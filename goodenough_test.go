package goodenough

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"goodenough/internal/sched"
	"goodenough/internal/stats"
)

func quickCfg(name string, rate float64) Config {
	cfg := DefaultConfig()
	cfg.Scheduler = name
	cfg.ArrivalRate = rate
	cfg.DurationSec = 15
	return cfg
}

func TestDefaultConfigRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationSec = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "GE" {
		t.Fatalf("scheduler = %q", res.Scheduler)
	}
	if res.Quality < 0.85 || res.Quality > 1 {
		t.Fatalf("quality = %v", res.Quality)
	}
	if res.Energy <= 0 || res.Jobs == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestEverySchedulerRuns(t *testing.T) {
	for _, name := range Schedulers() {
		cfg := quickCfg(name, 150)
		cfg.BEPBudget = 250
		cfg.BESCap = 1.8
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Jobs == 0 {
			t.Fatalf("%s: no jobs", name)
		}
		if int64(res.Jobs) != res.Completed+res.Expired {
			t.Fatalf("%s: job accounting broken: %+v", name, res)
		}
		if res.Quality < 0 || res.Quality > 1 {
			t.Fatalf("%s: quality %v", name, res.Quality)
		}
	}
}

func TestSchedulersSorted(t *testing.T) {
	names := Schedulers()
	if len(names) != 12 {
		t.Fatalf("expected 12 schedulers, got %d: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"ge", "be", "oq", "fcfs", "fdfs", "ljf", "sjf"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing scheduler %q in %v", want, names)
		}
	}
}

func TestUnknownSchedulerRejected(t *testing.T) {
	cfg := quickCfg("nope", 100)
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestBEPRequiresBudget(t *testing.T) {
	cfg := quickCfg("be-p", 100)
	cfg.BEPBudget = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("be-p without budget accepted")
	}
}

func TestBESRequiresCap(t *testing.T) {
	cfg := quickCfg("be-s", 100)
	cfg.BESCap = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("be-s without cap accepted")
	}
}

func TestInvalidConfigSurfaces(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.PowerBudget = -1 },
		func(c *Config) { c.QualityC = 0 },
		func(c *Config) { c.ArrivalRate = 0 },
		func(c *Config) { c.DemandMax = 0 },
		func(c *Config) { c.DurationSec = 0 },
		func(c *Config) { c.QuantumMS = 0 },
		func(c *Config) { c.DiscreteSpeeds = []float64{-1} },
	}
	for i, mut := range mutations {
		cfg := quickCfg("ge", 100)
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGESavesEnergyHeadline(t *testing.T) {
	ge, err := Run(quickCfg("ge", 130))
	if err != nil {
		t.Fatal(err)
	}
	be, err := Run(quickCfg("be", 130))
	if err != nil {
		t.Fatal(err)
	}
	if ge.Energy >= be.Energy {
		t.Fatalf("GE energy %v should undercut BE %v", ge.Energy, be.Energy)
	}
	if ge.Quality < 0.87 {
		t.Fatalf("GE quality %v below band", ge.Quality)
	}
}

func TestDiscreteSpeedsAccepted(t *testing.T) {
	cfg := quickCfg("ge", 150)
	for s := 0.2; s <= 3.2; s += 0.2 {
		cfg.DiscreteSpeeds = append(cfg.DiscreteSpeeds, s)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality <= 0 {
		t.Fatalf("discrete quality = %v", res.Quality)
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	a, err := Run(quickCfg("ge", 154))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg("ge", 154))
	if err != nil {
		t.Fatal(err)
	}
	if a.Quality != b.Quality || a.Energy != b.Energy {
		t.Fatal("identical configs diverged")
	}
}

func TestRandomWindowMode(t *testing.T) {
	cfg := quickCfg("fdfs", 180)
	cfg.RandomWindow = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs == 0 {
		t.Fatal("no jobs under random windows")
	}
}

func TestAESFractionExposed(t *testing.T) {
	res, err := Run(quickCfg("ge", 110))
	if err != nil {
		t.Fatal(err)
	}
	if res.AESFraction <= 0.3 {
		t.Fatalf("light-load AES fraction = %v", res.AESFraction)
	}
	be, _ := Run(quickCfg("be", 110))
	if be.AESFraction != 0 {
		t.Fatalf("BE AES fraction = %v, want 0", be.AESFraction)
	}
}

func TestSpeedMomentsFinite(t *testing.T) {
	res, err := Run(quickCfg("ge-wf", 154))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.AvgSpeed) || math.IsNaN(res.SpeedVariance) || res.AvgSpeed <= 0 {
		t.Fatalf("bad speed moments: %+v", res)
	}
}

func TestExportAndReplayTrace(t *testing.T) {
	cfg := quickCfg("ge", 150)
	cfg.DurationSec = 8
	var buf bytes.Buffer
	if err := ExportTrace(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	traceJSON := buf.String()
	if !strings.Contains(traceJSON, "\"jobs\"") {
		t.Fatal("trace JSON missing jobs")
	}

	// Replay must agree with the synthetic run on the same stream.
	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := RunTraceContext(context.Background(), cfg, strings.NewReader(traceJSON))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Jobs != direct.Jobs {
		t.Fatalf("replay saw %d jobs, direct %d", replayed.Jobs, direct.Jobs)
	}
	if math.Abs(replayed.Quality-direct.Quality) > 1e-9 ||
		math.Abs(replayed.Energy-direct.Energy) > 1e-6 {
		t.Fatalf("replay diverged: %+v vs %+v", replayed, direct)
	}

	// The same trace under a different policy shares the workload.
	cfg.Scheduler = "be"
	be, err := RunTraceContext(context.Background(), cfg, strings.NewReader(traceJSON))
	if err != nil {
		t.Fatal(err)
	}
	if be.Jobs != direct.Jobs {
		t.Fatal("trace replay changed the job count across policies")
	}
	if be.Energy <= direct.Energy {
		t.Fatalf("BE energy %v should exceed GE %v on the same trace", be.Energy, direct.Energy)
	}
}

func TestRunTraceRejectsGarbage(t *testing.T) {
	cfg := quickCfg("ge", 100)
	if _, err := RunTraceContext(context.Background(), cfg, strings.NewReader("not json")); err == nil {
		t.Fatal("garbage trace accepted")
	}
	if _, err := RunTraceContext(context.Background(), cfg, strings.NewReader(`{"jobs":[{"release":2,"deadline":1,"demand":5}]}`)); err == nil {
		t.Fatal("corrupt trace accepted")
	}
}

func TestRunTraceUnknownScheduler(t *testing.T) {
	cfg := quickCfg("nope", 100)
	if _, err := RunTraceContext(context.Background(), cfg, strings.NewReader(`{"jobs":[]}`)); err == nil {
		t.Fatal("unknown scheduler accepted in RunTraceContext")
	}
}

func TestRunWithTimeline(t *testing.T) {
	cfg := quickCfg("ge", 154)
	var buf bytes.Buffer
	res, err := RunWithOptions(cfg, RunOptions{Timeline: &buf, TimelineInterval: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_s,quality,power_w,load_units,waiting,aes,energy_j") {
		t.Fatalf("timeline header missing:\n%.100s", out)
	}
	if !strings.Contains(out, ",speed_c0_ghz") {
		t.Fatalf("timeline header lacks per-core speed columns:\n%.200s", out)
	}
	lines := strings.Count(out, "\n")
	// 15 simulated seconds sampled every 0.5 s → roughly 30 rows.
	if lines < 20 || lines > 60 {
		t.Fatalf("timeline rows = %d, want ~30", lines)
	}
	// The run's result must match a plain Run on the same config.
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality != plain.Quality || res.Energy != plain.Energy {
		t.Fatal("timeline recording perturbed the simulation")
	}
	// Timeline must show both modes at the critical rate (the aes column
	// is the sixth field).
	sawAES, sawBQ := false, false
	for _, line := range strings.Split(out, "\n")[1:] {
		fields := strings.Split(line, ",")
		if len(fields) < 7 {
			continue
		}
		switch fields[5] {
		case "1":
			sawAES = true
		case "0":
			sawBQ = true
		}
	}
	if !sawAES || !sawBQ {
		t.Fatal("timeline never shows both AES and BQ modes at the knee")
	}
}

func TestQualityFamilies(t *testing.T) {
	for _, fam := range []string{"", "exp", "log", "pow", "linear"} {
		cfg := quickCfg("ge", 130)
		cfg.QualityFamily = fam
		if fam == "log" {
			cfg.QualityC = 0.01
		}
		if fam == "pow" {
			cfg.QualityC = 0.5
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if res.Quality < 0.5 || res.Quality > 1 {
			t.Fatalf("%s: quality = %v", fam, res.Quality)
		}
	}
	cfg := quickCfg("ge", 100)
	cfg.QualityFamily = "nope"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestLinearFamilyCutsLess(t *testing.T) {
	// With linear quality there are no diminishing returns: hitting 0.9
	// quality requires keeping ~90% of the work, so GE's energy advantage
	// over BE shrinks versus the concave default.
	exp := quickCfg("ge", 120)
	lin := exp
	lin.QualityFamily = "linear"
	expRes, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	linRes, err := Run(lin)
	if err != nil {
		t.Fatal(err)
	}
	if linRes.Energy <= expRes.Energy {
		t.Fatalf("linear quality should force more work: %v vs %v (concave)",
			linRes.Energy, expRes.Energy)
	}
}

// TestSeedRobustness runs one configuration under five seeds: quality
// varies little from seed to seed (the EXPERIMENTS.md seed-robustness
// claim), while energy still differs.
func TestSeedRobustness(t *testing.T) {
	cfg := quickCfg("ge", 140)
	cfg.DurationSec = 10
	var q, e []float64
	for seed := uint64(1); seed <= 5; seed++ {
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		q, e = append(q, res.Quality), append(e, res.Energy)
	}
	mean := stats.Mean(q)
	if mean < 0.88 || mean > 0.92 {
		t.Fatalf("mean quality across seeds = %v", mean)
	}
	variance := 0.0
	for _, x := range q {
		variance += (x - mean) * (x - mean) / float64(len(q))
	}
	if std := math.Sqrt(variance); std > 0.01 {
		t.Fatalf("quality std across seeds = %v, want < 0.01", std)
	}
	if slices.Min(e) == slices.Max(e) {
		t.Fatal("different seeds should produce slightly different energies")
	}
}

func TestBigLittleMachine(t *testing.T) {
	cfg := quickCfg("ge", 154)
	cfg.CoreGroups = []CoreGroup{
		{Count: 8, PowerAlpha: 5, PowerBeta: 2},                   // big
		{Count: 8, PowerAlpha: 2, PowerBeta: 2, MaxSpeedGHz: 1.6}, // little
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < 0.85 {
		t.Fatalf("big.LITTLE quality = %v", res.Quality)
	}
	if int64(res.Jobs) != res.Completed+res.Expired {
		t.Fatalf("accounting broken: %+v", res)
	}
	// The efficient little cluster should lower total energy vs a
	// homogeneous all-big machine at the same budget.
	homog := quickCfg("ge", 154)
	ref, err := Run(homog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy >= ref.Energy {
		t.Fatalf("big.LITTLE energy %v should undercut homogeneous %v", res.Energy, ref.Energy)
	}
}

func TestBigLittleValidation(t *testing.T) {
	cfg := quickCfg("ge", 100)
	cfg.CoreGroups = []CoreGroup{{Count: 0, PowerAlpha: 5, PowerBeta: 2}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero-count core group accepted")
	}
	cfg = quickCfg("ge", 100)
	cfg.CoreGroups = []CoreGroup{{Count: 4, PowerAlpha: -1, PowerBeta: 2}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid group model accepted")
	}
	cfg = quickCfg("ge", 100)
	cfg.CoreGroups = []CoreGroup{{Count: 16, PowerAlpha: 5, PowerBeta: 2}}
	cfg.DiscreteSpeeds = []float64{1, 2}
	if _, err := Run(cfg); err == nil {
		t.Fatal("ladder + heterogeneity accepted")
	}
}

// TestCoreCountBounded checks that Validate turns away a core count over
// sched.MaxCores, given directly or as core groups (one of them huge, or
// several summing past the limit, or past the int range), with an error
// naming the limit, while a machine at the limit validates.
func TestCoreCountBounded(t *testing.T) {
	limit := fmt.Sprintf("limit of %d", sched.MaxCores)
	group := func(n int) CoreGroup { return CoreGroup{Count: n, PowerAlpha: 5, PowerBeta: 2} }
	cases := []struct {
		name   string
		cores  int
		groups []CoreGroup
	}{
		{"cores", sched.MaxCores + 1, nil},
		{"huge cores", 2000000000, nil},
		{"one group", 0, []CoreGroup{group(2000000000)}},
		{"group sum", 0, []CoreGroup{group(sched.MaxCores / 2), group(sched.MaxCores/2 + 1)}},
		{"overflowing sum", 0, []CoreGroup{group(8), group(math.MaxInt)}},
	}
	for _, tc := range cases {
		cfg := quickCfg("ge", 100)
		cfg.Cores, cfg.CoreGroups = tc.cores, tc.groups
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), limit) {
			t.Errorf("%s: Validate error %v, want one naming the %s", tc.name, err, limit)
		}
	}
	cfg := quickCfg("ge", 100)
	cfg.CoreGroups = []CoreGroup{group(sched.MaxCores - 1), group(1)}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%d cores in groups: %v", sched.MaxCores, err)
	}
}

func TestBurstyTraffic(t *testing.T) {
	cfg := quickCfg("ge", 0)
	cfg.ArrivalRate = 1 // ignored under Bursty but kept valid
	cfg.Bursty = true
	cfg.BurstHigh = 250
	cfg.BurstLow = 80
	cfg.BurstMeanHighSec = 2
	cfg.BurstMeanLowSec = 4
	cfg.DurationSec = 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs == 0 {
		t.Fatal("no bursty jobs")
	}
	// Mean rate ≈ (250·2+80·4)/6 ≈ 137 req/s — well within capacity, so
	// GE's compensation must keep quality near the target even through
	// 250 req/s flash crowds.
	if res.Quality < 0.85 {
		t.Fatalf("bursty-traffic quality = %v; compensation failed", res.Quality)
	}
	if int64(res.Jobs) != res.Completed+res.Expired {
		t.Fatalf("accounting broken: %+v", res)
	}
	// Invalid burst parameters must surface.
	cfg.BurstLow = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid burst config accepted")
	}
}
