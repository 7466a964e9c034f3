package sched

import (
	"math"
	"testing"

	"goodenough/internal/job"
	"goodenough/internal/machine"
	"goodenough/internal/power"
	"goodenough/internal/workload"
)

func shortSpec(rate float64, seed uint64) workload.Spec {
	s := workload.DefaultSpec(rate, seed)
	s.Duration = 20
	return s
}

func TestDefaultsMatchPaper(t *testing.T) {
	c := Defaults()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Cores != 16 || c.PowerBudget != 320 || c.QGE != 0.9 ||
		c.CriticalLoad != 154 || c.QuantumSec != 0.5 || c.CounterTrigger != 8 {
		t.Fatalf("defaults differ from §IV-B: %+v", c)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.PowerBudget = 0 },
		func(c *Config) { c.Model.A = -1 },
		func(c *Config) { c.Quality = nil },
		func(c *Config) { c.QGE = 1.5 },
		func(c *Config) { c.QGE = -0.1 },
		func(c *Config) { c.QuantumSec = 0 },
		func(c *Config) { c.CounterTrigger = 0 },
		func(c *Config) { c.RateWindow = 0 },
	}
	for i, mut := range mutations {
		c := Defaults()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewRunnerValidation(t *testing.T) {
	spec := shortSpec(100, 1)
	if _, err := NewRunner(Config{}, NewFCFS(), spec); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewRunner(Defaults(), nil, spec); err == nil {
		t.Error("nil policy accepted")
	}
	bad := spec
	bad.ArrivalRate = 0
	if _, err := NewRunner(Defaults(), NewFCFS(), bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() Result {
		r, err := NewRunner(Defaults(), NewFCFS(), shortSpec(150, 7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Quality != b.Quality || a.Energy != b.Energy || a.Completed != b.Completed {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

func TestEveryJobAccounted(t *testing.T) {
	for _, mk := range []func() Policy{
		func() Policy { return NewFCFS() },
		func() Policy { return NewFDFS() },
		func() Policy { return NewLJF() },
		func() Policy { return NewSJF() },
	} {
		p := mk()
		r, err := NewRunner(Defaults(), p, shortSpec(180, 3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Jobs == 0 {
			t.Fatalf("%s: no jobs generated", p.Name())
		}
		if int64(res.Jobs) != res.Completed+res.Expired {
			t.Fatalf("%s: %d jobs but %d completed + %d expired",
				p.Name(), res.Jobs, res.Completed, res.Expired)
		}
		if r.Monitor().Jobs() != res.Jobs {
			t.Fatalf("%s: monitor saw %d of %d jobs", p.Name(), r.Monitor().Jobs(), res.Jobs)
		}
	}
}

func TestQualityWithinBounds(t *testing.T) {
	for _, rate := range []float64{80, 150, 220} {
		r, _ := NewRunner(Defaults(), NewFDFS(), shortSpec(rate, 5))
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Quality < 0 || res.Quality > 1 {
			t.Fatalf("rate %v: quality %v out of range", rate, res.Quality)
		}
		if res.Energy < 0 {
			t.Fatalf("rate %v: negative energy", rate)
		}
	}
}

func TestEnergyNeverExceedsBudgetEnvelope(t *testing.T) {
	// Dynamic power is capped at H, so energy <= H · simTime.
	cfg := Defaults()
	r, _ := NewRunner(cfg, NewFCFS(), shortSpec(250, 9))
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy > cfg.PowerBudget*res.SimTime*(1+1e-9) {
		t.Fatalf("energy %v exceeds budget envelope %v", res.Energy, cfg.PowerBudget*res.SimTime)
	}
}

func TestLightLoadHighQuality(t *testing.T) {
	// At λ=50 a 16-core/320 W server is far under capacity; FDFS should
	// complete essentially everything.
	r, _ := NewRunner(Defaults(), NewFDFS(), shortSpec(50, 11))
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Runs-at-slowest-speed stretches each job over its whole window, so
	// Poisson bursts still queue briefly; ~0.98 is the expected level.
	if res.Quality < 0.95 {
		t.Fatalf("light-load FDFS quality = %v, want >= 0.95", res.Quality)
	}
}

func TestOverloadDegradesQuality(t *testing.T) {
	light, _ := NewRunner(Defaults(), NewFDFS(), shortSpec(100, 13))
	heavy, _ := NewRunner(Defaults(), NewFDFS(), shortSpec(260, 13))
	lr, err := light.Run()
	if err != nil {
		t.Fatal(err)
	}
	hr, err := heavy.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hr.Quality >= lr.Quality {
		t.Fatalf("overload did not degrade quality: %v vs %v", hr.Quality, lr.Quality)
	}
}

func TestSJFWorstLJFBad(t *testing.T) {
	// Fig. 3a: LJF and SJF have the worst quality under load because they
	// perturb the deadline order.
	runPolicy := func(p Policy) float64 {
		r, _ := NewRunner(Defaults(), p, shortSpec(200, 17))
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Quality
	}
	fdfs := runPolicy(NewFDFS())
	sjf := runPolicy(NewSJF())
	ljf := runPolicy(NewLJF())
	if sjf >= fdfs || ljf >= fdfs {
		t.Fatalf("demand-ordered baselines should underperform FDFS: fdfs=%v ljf=%v sjf=%v",
			fdfs, ljf, sjf)
	}
}

func TestFDFSBeatsFCFSUnderRandomDeadlines(t *testing.T) {
	// Fig. 4: with random service intervals FCFS degrades badly while FDFS
	// respects deadline order.
	spec := shortSpec(200, 19)
	spec.RandomWindow = true
	rFCFS, _ := NewRunner(Defaults(), NewFCFS(), spec)
	a, err := rFCFS.Run()
	if err != nil {
		t.Fatal(err)
	}
	rFDFS, _ := NewRunner(Defaults(), NewFDFS(), spec)
	b, err := rFDFS.Run()
	if err != nil {
		t.Fatal(err)
	}
	if b.Quality <= a.Quality {
		t.Fatalf("FDFS (%v) should beat FCFS (%v) with random deadlines", b.Quality, a.Quality)
	}
}

func TestDiscreteLadderRespected(t *testing.T) {
	cfg := Defaults()
	ladder, err := power.UniformLadder(3.2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ladder = ladder
	r, _ := NewRunner(cfg, NewFCFS(), shortSpec(150, 23))
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality <= 0 || res.Energy <= 0 {
		t.Fatalf("discrete run degenerate: %+v", res)
	}
}

func TestTriggerString(t *testing.T) {
	if TriggerQuantum.String() != "quantum" || TriggerIdleCore.String() != "idle-core" ||
		TriggerCounter.String() != "counter" {
		t.Fatal("trigger strings wrong")
	}
	if Trigger(9).String() != "trigger(9)" {
		t.Fatal("unknown trigger string wrong")
	}
}

func TestOrderString(t *testing.T) {
	names := map[Order]string{OrderFCFS: "FCFS", OrderFDFS: "FDFS", OrderLJF: "LJF",
		OrderSJF: "SJF", Order(9): "order(9)"}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%d.String() = %q", int(o), o.String())
		}
	}
}

func TestSimTimeCoversAllDeadlines(t *testing.T) {
	spec := shortSpec(100, 29)
	r, _ := NewRunner(Defaults(), NewFCFS(), spec)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The run must last at least until the final deadline window.
	if res.SimTime < spec.Duration-1 {
		t.Fatalf("simulation ended early at %v", res.SimTime)
	}
}

// modePolicyProbe verifies the runner's mode accounting plumbing.
type modePolicyProbe struct {
	flip bool
}

func (m *modePolicyProbe) Name() string { return "probe" }
func (m *modePolicyProbe) Reset()       {}
func (m *modePolicyProbe) Schedule(ctx *Context) {
	// Alternate modes every call; drop all waiting jobs on the floor by
	// assigning nothing (they expire).
	m.flip = !m.flip
	ctx.SetMode(m.flip)
}

func TestModeAccounting(t *testing.T) {
	r, err := NewRunner(Defaults(), &modePolicyProbe{}, shortSpec(100, 31))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ModeSwitches == 0 {
		t.Fatal("alternating policy recorded no mode switches")
	}
	if res.AESFraction <= 0 || res.AESFraction >= 1 {
		t.Fatalf("AES fraction = %v, want interior value", res.AESFraction)
	}
	// Probe never schedules anything: every job must expire with quality 0.
	if res.Completed != 0 {
		t.Fatalf("probe completed %d jobs", res.Completed)
	}
	if res.Quality != 0 {
		t.Fatalf("probe quality = %v, want 0", res.Quality)
	}
}

func TestWaitingJobsExpireWithZeroQuality(t *testing.T) {
	// Covered by the probe above, but check the monitor arithmetic too.
	r, _ := NewRunner(Defaults(), &modePolicyProbe{}, shortSpec(100, 37))
	res, _ := r.Run()
	if int64(res.Jobs) != res.Expired {
		t.Fatalf("jobs=%d expired=%d", res.Jobs, res.Expired)
	}
}

func TestSpeedStatisticsPopulated(t *testing.T) {
	r, _ := NewRunner(Defaults(), NewFCFS(), shortSpec(150, 41))
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgSpeed <= 0 {
		t.Fatalf("avg speed = %v", res.AvgSpeed)
	}
	if res.SpeedVariance < 0 {
		t.Fatalf("speed variance = %v", res.SpeedVariance)
	}
	if math.IsNaN(res.AvgSpeed) || math.IsNaN(res.SpeedVariance) {
		t.Fatal("NaN speed statistics")
	}
}

func TestSingleJobBaselineSpeedSelection(t *testing.T) {
	// Direct unit test of speedFor: a 300-unit job with a 0.15 s window
	// needs exactly 2 GHz; the default share (20 W) supports exactly 2 GHz.
	cfg := Defaults()
	p := NewFCFS()
	ctx := &Context{Now: 0, Cfg: &cfg}
	j := job.New(1, 0, 0.15, 300)
	if got := p.speedFor(ctx, j, 2.0); math.Abs(got-2) > 1e-9 {
		t.Fatalf("speedFor = %v, want 2", got)
	}
	// A 900-unit job in the same window needs 6 GHz but is capped at 2.
	heavy := job.New(2, 0, 0.15, 900)
	if got := p.speedFor(ctx, heavy, 2.0); math.Abs(got-2) > 1e-9 {
		t.Fatalf("capped speedFor = %v, want 2", got)
	}
	// Expired job: runs at the cap (and will truncate immediately).
	late := job.New(3, 0, 0.15, 100)
	ctx.Now = 0.2
	if got := p.speedFor(ctx, late, 2.0); got != 2.0 {
		t.Fatalf("expired speedFor = %v, want cap", got)
	}
}

func TestSingleJobDiscreteSpeedSelection(t *testing.T) {
	cfg := Defaults()
	ladder, _ := power.NewLadder([]float64{1, 2, 3})
	cfg.Ladder = ladder
	p := NewFCFS()
	ctx := &Context{Now: 0, Cfg: &cfg}
	// Needs 1.4 GHz → rounds up to 2 within the 2.5 cap.
	j := job.New(1, 0, 0.15, 210)
	if got := p.speedFor(ctx, j, 2.5); got != 2 {
		t.Fatalf("discrete speedFor = %v, want 2", got)
	}
	// Needs 2.8 GHz → up is 3 > cap 2.5 → falls to Down(2.5) = 2.
	h := job.New(2, 0, 0.15, 420)
	if got := p.speedFor(ctx, h, 2.5); got != 2 {
		t.Fatalf("discrete capped speedFor = %v, want 2", got)
	}
}

func TestResultExposesScheduler(t *testing.T) {
	r, _ := NewRunner(Defaults(), NewLJF(), shortSpec(100, 43))
	res, _ := r.Run()
	if res.Scheduler != "LJF" {
		t.Fatalf("scheduler name = %q", res.Scheduler)
	}
}

func TestRunnerAccessors(t *testing.T) {
	r, _ := NewRunner(Defaults(), NewFCFS(), shortSpec(100, 47))
	if r.Server() == nil || r.Monitor() == nil {
		t.Fatal("accessors returned nil")
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	prof := r.SpeedVarianceOverall()
	if prof.Duration() <= 0 {
		t.Fatal("overall speed profile empty")
	}
}

var _ = machine.ReasonCompleted // keep the import for FinalizeFunc docs

func TestNewRunnerFromSource(t *testing.T) {
	spec := shortSpec(150, 51)
	jobs := workload.NewGenerator(spec).All()
	tr := workload.Record(jobs, &spec, "")
	src, err := workload.NewReplayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunnerFromSource(Defaults(), NewFDFS(), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != len(jobs) {
		t.Fatalf("replayed %d of %d jobs", res.Jobs, len(jobs))
	}
	// Must match the generator-driven run exactly.
	r2, _ := NewRunner(Defaults(), NewFDFS(), spec)
	direct, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality != direct.Quality || res.Energy != direct.Energy {
		t.Fatalf("trace run diverged from generator run")
	}
}

func TestNewRunnerFromSourceValidation(t *testing.T) {
	if _, err := NewRunnerFromSource(Defaults(), NewFCFS(), nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewRunnerFromSource(Defaults(), nil, &workload.Replayer{}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewRunnerFromSource(Config{}, NewFCFS(), &workload.Replayer{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestResponseTimeMetrics(t *testing.T) {
	r, _ := NewRunner(Defaults(), NewFDFS(), shortSpec(120, 61))
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponse <= 0 {
		t.Fatalf("mean response = %v", res.MeanResponse)
	}
	// Responses cannot exceed the 150 ms window (completed jobs finish by
	// their deadlines).
	if res.P95Response > 0.150+1e-9 {
		t.Fatalf("p95 response %v exceeds the window", res.P95Response)
	}
	if res.MeanResponse > res.P95Response {
		t.Fatal("mean above p95")
	}
}

func TestFinishTimesStamped(t *testing.T) {
	spec := shortSpec(100, 63)
	jobs := workload.NewGenerator(spec).All()
	tr := workload.Record(jobs, &spec, "")
	src, _ := workload.NewReplayer(tr)
	r, _ := NewRunnerFromSource(Defaults(), NewFDFS(), src)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// Source jobs were re-minted; verify through a fresh replay instead:
	// the property is already asserted via MeanResponse > 0 above, so here
	// just assert determinism of response metrics.
	src2, _ := workload.NewReplayer(tr)
	r2, _ := NewRunnerFromSource(Defaults(), NewFDFS(), src2)
	res2, _ := r2.Run()
	if res2.MeanResponse <= 0 || res2.P95Response < res2.MeanResponse-1e-9 {
		t.Fatalf("response metrics inconsistent: %+v", res2)
	}
}

func TestEnergyMatchesSpeedMoments(t *testing.T) {
	// With P = a·s^2, total energy must equal a·∫s²dt summed over cores,
	// and ∫s²dt = (variance + mean²)·duration of the busy profile. This
	// pins the energy integrator to the speed statistics exactly.
	for _, mk := range []func() Policy{
		func() Policy { return NewFCFS() },
		func() Policy { return NewFDFS() },
	} {
		r, _ := NewRunner(Defaults(), mk(), shortSpec(170, 71))
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		busy := r.Server().BusySpeedProfile()
		integral := (busy.Variance() + busy.Mean()*busy.Mean()) * busy.Duration()
		want := Defaults().Model.A * integral
		if math.Abs(res.Energy-want) > 1e-6*math.Max(want, 1) {
			t.Fatalf("%s: energy %v != a·∫s²dt = %v", res.Scheduler, res.Energy, want)
		}
	}
}

func TestStressHighRate(t *testing.T) {
	// λ = 1000 req/s on the default machine: deep overload, but the run
	// must terminate with consistent accounting.
	spec := workload.DefaultSpec(1000, 73)
	spec.Duration = 3
	r, _ := NewRunner(Defaults(), NewFDFS(), spec)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Jobs) != res.Completed+res.Expired {
		t.Fatalf("accounting broken under stress: %+v", res)
	}
	if res.Quality < 0 || res.Quality > 1 {
		t.Fatalf("quality out of range: %v", res.Quality)
	}
}

func TestStressManyCores(t *testing.T) {
	cfg := Defaults()
	cfg.Cores = 256
	cfg.PowerBudget = 5120 // keep 20 W/core
	spec := workload.DefaultSpec(2000, 79)
	spec.Duration = 2
	r, err := NewRunner(cfg, NewFDFS(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < 0.9 {
		t.Fatalf("256 cores at proportional budget should cope: quality %v", res.Quality)
	}
}

func TestStressTinyWindows(t *testing.T) {
	spec := workload.DefaultSpec(100, 83)
	spec.Duration = 3
	spec.Window = 0.005 // 5 ms: nearly impossible deadlines
	r, _ := NewRunner(Defaults(), NewFDFS(), spec)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Jobs) != res.Completed+res.Expired {
		t.Fatal("accounting broken with tiny windows")
	}
}

func TestRateEstimator(t *testing.T) {
	r, _ := NewRunner(Defaults(), NewFCFS(), shortSpec(100, 87))
	// Empty window.
	if got := r.d.arrivalRate(0.5); got != 0 {
		t.Fatalf("empty estimator = %v", got)
	}
	// Feed arrivals at a known rate: 20 arrivals over 2 s → 10/s.
	for i := 0; i < 20; i++ {
		r.d.noteArrival(float64(i) * 0.1)
	}
	got := r.d.arrivalRate(2.0)
	if math.Abs(got-10) > 1.5 {
		t.Fatalf("estimated rate = %v, want ~10", got)
	}
	// Old arrivals age out of the window.
	got = r.d.arrivalRate(100)
	if got != 0 {
		t.Fatalf("stale arrivals not trimmed: %v", got)
	}
}

// triggerProbe records which trigger kinds reach the policy.
type triggerProbe struct {
	inner Policy
	seen  map[Trigger]int
}

func (p *triggerProbe) Name() string { return "trigger-probe" }
func (p *triggerProbe) Reset()       { p.inner.Reset() }
func (p *triggerProbe) Schedule(ctx *Context) {
	p.seen[ctx.Trigger]++
	p.inner.Schedule(ctx)
}

func TestAllTriggerKindsFire(t *testing.T) {
	probe := &triggerProbe{inner: NewFDFS(), seen: map[Trigger]int{}}
	r, _ := NewRunner(Defaults(), probe, shortSpec(150, 91))
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for _, trig := range []Trigger{TriggerQuantum, TriggerIdleCore, TriggerCounter} {
		if probe.seen[trig] == 0 {
			t.Fatalf("trigger %v never fired (saw %v)", trig, probe.seen)
		}
	}
	// Quantum ticks: roughly duration/0.5.
	if probe.seen[TriggerQuantum] < 30 {
		t.Fatalf("only %d quantum ticks in a 20 s run", probe.seen[TriggerQuantum])
	}
}

func TestModeEnergySplit(t *testing.T) {
	// The probe alternates AES/BQ but schedules nothing: zero energy, but
	// the split must still sum to the total for a real policy.
	r, _ := NewRunner(Defaults(), NewFDFS(), shortSpec(150, 95))
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AESEnergy+res.BQEnergy-res.Energy) > 1e-6*math.Max(res.Energy, 1) {
		t.Fatalf("mode energies %v + %v != total %v", res.AESEnergy, res.BQEnergy, res.Energy)
	}
	// FDFS reports BQ always: all energy lands there.
	if res.AESEnergy != 0 {
		t.Fatalf("always-BQ policy recorded AES energy %v", res.AESEnergy)
	}
}
