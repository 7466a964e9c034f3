package goodenough

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"goodenough/internal/sched"
	"goodenough/internal/verify"
	"goodenough/internal/workload"
)

// quadKillConfig is the acceptance scenario: a seeded GE run that loses 4
// of its 16 cores mid-run (two permanently, two transiently).
func quadKillConfig() Config {
	cfg := DefaultConfig()
	cfg.DurationSec = 30
	cfg.ArrivalRate = 180
	cfg.Faults = []FaultSpec{
		{AtSec: 5, Kind: "core-fail", Core: 1},
		{AtSec: 6, Kind: "core-fail", Core: 4},
		{AtSec: 7, Kind: "core-fail", Core: 9, DurationSec: 10},
		{AtSec: 8, Kind: "core-fail", Core: 14, DurationSec: 12},
	}
	return cfg
}

func TestQuadCoreKillAcceptance(t *testing.T) {
	res, err := Run(quadKillConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreFailures != 4 {
		t.Fatalf("core failures = %d, want 4", res.CoreFailures)
	}
	if res.RequeuedJobs == 0 {
		t.Fatal("no jobs requeued despite killing loaded cores")
	}
	if res.SurvivingCapacity <= 0 || res.SurvivingCapacity >= 1 {
		t.Fatalf("surviving capacity = %v, want in (0,1)", res.SurvivingCapacity)
	}
	if int64(res.Jobs) != res.Completed+res.Expired+res.DroppedJobs {
		t.Fatalf("accounting: %d jobs != %d completed + %d expired + %d dropped",
			res.Jobs, res.Completed, res.Expired, res.DroppedJobs)
	}
	if res.Quality <= 0 || res.Quality > 1 {
		t.Fatalf("quality = %v out of range", res.Quality)
	}
}

func TestQuadCoreKillDeterministic(t *testing.T) {
	a, err := Run(quadKillConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quadKillConfig())
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b)
	if sa != sb {
		t.Fatalf("identical seed + fault schedule diverged:\n%s\n%s", sa, sb)
	}
}

func TestQuadCoreKillUpholdsInvariants(t *testing.T) {
	cfg := quadKillConfig()
	scfg, _, policy, err := lower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{
		ArrivalRate: cfg.ArrivalRate, ParetoAlpha: cfg.ParetoAlpha,
		Xmin: cfg.DemandMin, Xmax: cfg.DemandMax,
		Window: cfg.WindowMS / 1000, Duration: cfg.DurationSec, Seed: cfg.Seed,
	}
	ck := verify.Wrap(policy)
	r, err := sched.NewRunner(scfg, ck, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if !ck.Ok() {
		t.Fatalf("GE violated invariants under the quad-kill schedule:\n%v",
			ck.Violations()[0])
	}
}

// TestFailuresNeverLowerMissRate: a heavy per-core failure rate (MTBF
// 20 s, MTTR 5 s) must not lower GE's or BE's miss rate, the fraction of
// jobs expired at a deadline or shed, below the fault-free run's.
func TestFailuresNeverLowerMissRate(t *testing.T) {
	missRate := func(r Result) float64 { return float64(r.Expired+r.DroppedJobs) / float64(r.Jobs) }
	for _, name := range []string{"ge", "be"} {
		cfg := quickCfg(name, 160)
		cfg.DurationSec = 10
		clean, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if name == "ge" && (clean.Quality <= 0 || clean.Quality > 1) {
			t.Fatalf("fault-free GE quality = %v", clean.Quality)
		}
		cfg.FaultMTBFSec, cfg.FaultMTTRSec = 20, 5
		faulty, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if missRate(faulty) < missRate(clean) {
			t.Fatalf("%s miss rate improved under failures: %v < %v", name, missRate(faulty), missRate(clean))
		}
	}
}

func TestGeneratedFaultsFromPublicConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationSec = 20
	cfg.ArrivalRate = 150
	cfg.FaultMTBFSec = 12
	cfg.FaultMTTRSec = 4
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("generated fault schedule is not deterministic for a fixed seed")
	}
	if int64(a.Jobs) != a.Completed+a.Expired+a.DroppedJobs {
		t.Fatal("accounting broken under generated faults")
	}
}

func TestFaultConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"unknown kind", func(c *Config) {
			c.Faults = []FaultSpec{{AtSec: 1, Kind: "meteor-strike", Core: 0}}
		}, "unknown fault kind"},
		{"core out of range", func(c *Config) {
			c.Faults = []FaultSpec{{AtSec: 1, Kind: "core-fail", Core: 99}}
		}, "core 99"},
		{"negative onset", func(c *Config) {
			c.Faults = []FaultSpec{{AtSec: -2, Kind: "core-fail", Core: 0}}
		}, "onset"},
		{"cap without watts", func(c *Config) {
			c.Faults = []FaultSpec{{AtSec: 1, Kind: "budget-cap"}}
		}, "budget cap"},
		{"stuck without speed", func(c *Config) {
			c.Faults = []FaultSpec{{AtSec: 1, Kind: "speed-stuck", Core: 0}}
		}, "speed"},
		{"generator without duration", func(c *Config) {
			c.DurationSec = 0
			c.FaultMTBFSec = 10
			c.FaultMTTRSec = 2
		}, "DurationSec"},
		{"generator negative mttr", func(c *Config) {
			c.FaultMTBFSec = 10
			c.FaultMTTRSec = -1
		}, "MTTR"},
		{"zero cores", func(c *Config) {
			c.Cores = 0
		}, "cores must be positive"},
		{"negative arrival rate", func(c *Config) {
			c.ArrivalRate = -10
		}, "arrival rate"},
		{"NaN discrete speed", func(c *Config) {
			c.DiscreteSpeeds = []float64{0.5, math.NaN(), 1.5}
		}, "speed"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestFaultSpecErrorPrefixedOnce: a bad fault spec names the faults
// package once, on the single-machine and on the fleet path.
func TestFaultSpecErrorPrefixedOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationSec = 1
	cfg.Faults = []FaultSpec{{AtSec: -1, Kind: "core-fail", Core: 1}}
	_, err := Run(cfg)
	want := "goodenough: faults: spec 0: onset time -1 must be finite and non-negative"
	if err == nil || err.Error() != want {
		t.Errorf("Run error = %v, want %q", err, want)
	}

	fc := chaosFleetConfig(t)
	fc.DurationSec = 10
	_, err = RunFleet(fc)
	want = "goodenough: faults: spec 3: onset time 10 outside the run horizon [0,10)"
	if err == nil || err.Error() != want {
		t.Errorf("RunFleet error = %v, want %q", err, want)
	}
}
