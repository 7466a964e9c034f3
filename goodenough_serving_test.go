package goodenough

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Context cancellation through the public API ---

func TestRunContextCancelReturnsPartial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationSec = 1e6 // only cancellation can end this run
	cfg.ArrivalRate = 200
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(25 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := RunContext(ctx, cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancelled run must not error, got %v", err)
	}
	if !res.Cancelled || res.CancelReason != context.Canceled.Error() {
		t.Fatalf("got Cancelled=%v reason=%q", res.Cancelled, res.CancelReason)
	}
	// Acceptance bound: the run must stop within the cancellation latency
	// plus generous slack, never anywhere near the 1e6 s workload.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if res.Jobs == 0 || res.SimTime <= 0 {
		t.Fatalf("partial result lost accounting: %+v", res)
	}
}

func TestRunContextDeadline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationSec = 1e6
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled || res.CancelReason != context.DeadlineExceeded.Error() {
		t.Fatalf("got Cancelled=%v reason=%q", res.Cancelled, res.CancelReason)
	}
}

func TestRunContextUncancelledMatchesRun(t *testing.T) {
	cfg := quickCfg("ge", 154)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if viaCtx != plain {
		t.Fatalf("RunContext diverged from Run:\n%+v\n%+v", viaCtx, plain)
	}
}

func TestRunTraceContextCancel(t *testing.T) {
	cfg := quickCfg("ge", 154)
	cfg.DurationSec = 120
	var trace strings.Builder
	if err := ExportTrace(cfg, &trace); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: the replay must stop immediately
	res, err := RunTraceContext(ctx, cfg, strings.NewReader(trace.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatal("trace replay ignored its context")
	}
}

// --- Concurrent runs ---

// TestRunConcurrentMatchesSequential calls Run from several goroutines at
// once, as geserve does, and requires each result to be bit-equal to the
// sequential Run of the same seed: concurrent runs share no state.
func TestRunConcurrentMatchesSequential(t *testing.T) {
	cfg := quickCfg("ge", 154)
	seeds := []uint64{1, 2, 3, 4, 5}
	got := make([]Result, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			c := cfg
			c.Seed = seed
			got[i], errs[i] = Run(c)
		}(i, seed)
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		c := cfg
		c.Seed = seed
		want, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("seed %d diverged when run concurrently:\n%+v\n%+v", seed, got[i], want)
		}
	}
}

// --- Consolidated Config.Validate: one case per invalid field ---

func TestConfigValidateTable(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // substring of the expected error
	}{
		{"unknown scheduler", func(c *Config) { c.Scheduler = "nope" }, "unknown scheduler"},
		{"be-p without budget", func(c *Config) { c.Scheduler = "be-p"; c.BEPBudget = 0 }, "BEPBudget"},
		{"be-s without cap", func(c *Config) { c.Scheduler = "be-s"; c.BESCap = 0 }, "BESCap"},
		{"zero cores", func(c *Config) { c.Cores = 0 }, "cores"},
		{"negative power budget", func(c *Config) { c.PowerBudget = -1 }, "power budget"},
		{"bad power model", func(c *Config) { c.PowerAlpha = -5 }, ""},
		{"zero quality c", func(c *Config) { c.QualityC = 0 }, "QualityC"},
		{"negative demand max", func(c *Config) { c.DemandMax = -1 }, "must be positive"},
		{"unknown quality family", func(c *Config) { c.QualityFamily = "bogus" }, "quality family"},
		{"qge above one", func(c *Config) { c.QGE = 1.5 }, "QGE"},
		{"zero quantum", func(c *Config) { c.QuantumMS = 0 }, "quantum"},
		{"zero counter trigger", func(c *Config) { c.CounterTrigger = 0 }, "counter trigger"},
		{"empty core group", func(c *Config) {
			c.CoreGroups = []CoreGroup{{Count: 0, PowerAlpha: 5, PowerBeta: 2}}
		}, "core group"},
		{"bad discrete ladder", func(c *Config) { c.DiscreteSpeeds = []float64{-1} }, ""},
		{"zero arrival rate", func(c *Config) { c.ArrivalRate = 0 }, "arrival rate"},
		{"zero pareto alpha", func(c *Config) { c.ParetoAlpha = 0 }, "Pareto"},
		{"demand min above max", func(c *Config) { c.DemandMin = 2000 }, "Pareto"},
		{"zero window", func(c *Config) { c.WindowMS = 0 }, "window"},
		{"bad random window", func(c *Config) { c.RandomWindow = true; c.WindowMinMS = 0 }, "window"},
		{"zero duration", func(c *Config) { c.DurationSec = 0 }, "duration"},
		{"bad burst", func(c *Config) { c.Bursty = true }, "burst"},
		{"bad mix class", func(c *Config) {
			c.Mix = []WorkloadClass{{Name: "x", Weight: 0}}
		}, "weight"},
		{"bad fault kind", func(c *Config) {
			c.Faults = []FaultSpec{{AtSec: 1, Kind: "melted"}}
		}, "fault"},
		{"mtbf without mttr", func(c *Config) { c.FaultMTBFSec = 60 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestConfigValidateAcceptsDefaults(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	// Every Run variant funnels through the same checks, so a validated
	// config must run.
	cfg := quickCfg("ge", 154)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestValidateMatchesRun pins the consolidation property: Run accepts a
// config iff Validate does (checked over the table's mutations).
func TestValidateMatchesRun(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Scheduler = "nope" },
		func(c *Config) { c.QualityC = 0 },
		func(c *Config) { c.ArrivalRate = -3 },
		func(c *Config) {},
	}
	for i, mut := range muts {
		cfg := quickCfg("ge", 100)
		mut(&cfg)
		vErr := cfg.Validate()
		_, rErr := Run(cfg)
		if (vErr == nil) != (rErr == nil) {
			t.Fatalf("mutation %d: Validate err=%v but Run err=%v", i, vErr, rErr)
		}
	}
}
