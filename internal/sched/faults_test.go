package sched

import (
	"fmt"
	"testing"

	"goodenough/internal/faults"
)

// faultCfg injects the given specs into a Defaults config.
func faultCfg(t *testing.T, specs ...faults.Spec) Config {
	t.Helper()
	cfg := Defaults()
	fs, err := faults.New(faults.Cores, specs, cfg.Cores, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fs
	return cfg
}

func runFaulty(t *testing.T, cfg Config, rate float64, seed uint64) Result {
	t.Helper()
	r, err := NewRunner(cfg, NewFCFS(), shortSpec(rate, seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCoreFailureRequeuesAndAccounts(t *testing.T) {
	cfg := faultCfg(t,
		faults.Spec{At: 4, Kind: faults.CoreFail, Target: 0},
		faults.Spec{At: 4, Kind: faults.CoreFail, Target: 1},
		faults.Spec{At: 5, Kind: faults.CoreFail, Target: 2, Duration: 8},
	)
	res := runFaulty(t, cfg, 200, 21)
	if res.CoreFailures != 3 {
		t.Fatalf("core failures = %d, want 3", res.CoreFailures)
	}
	if res.RequeuedJobs == 0 {
		t.Fatal("killing loaded cores at 200 req/s requeued nothing")
	}
	if res.SurvivingCapacity >= 1 || res.SurvivingCapacity <= 0 {
		t.Fatalf("surviving capacity = %v, want in (0,1)", res.SurvivingCapacity)
	}
	// Every job still ends exactly one way.
	if int64(res.Jobs) != res.Completed+res.Expired+res.DroppedJobs {
		t.Fatalf("%d jobs but %d completed + %d expired + %d dropped",
			res.Jobs, res.Completed, res.Expired, res.DroppedJobs)
	}
}

func TestTransientFailureRecoversCapacity(t *testing.T) {
	permanent := runFaulty(t, faultCfg(t,
		faults.Spec{At: 2, Kind: faults.CoreFail, Target: 3},
	), 150, 22)
	transient := runFaulty(t, faultCfg(t,
		faults.Spec{At: 2, Kind: faults.CoreFail, Target: 3, Duration: 3},
	), 150, 22)
	if transient.SurvivingCapacity <= permanent.SurvivingCapacity {
		t.Fatalf("transient capacity %v not above permanent %v",
			transient.SurvivingCapacity, permanent.SurvivingCapacity)
	}
}

func TestBudgetCapShedsUnderOverload(t *testing.T) {
	// Starve the machine to an unsustainable cap mid-run: the admission
	// control must shed rather than let everything expire unplanned.
	cfg := faultCfg(t,
		faults.Spec{At: 3, Kind: faults.BudgetCap, Value: 10, Duration: 10},
	)
	res := runFaulty(t, cfg, 250, 23)
	if res.DroppedJobs == 0 {
		t.Fatal("a 10 W cap at 250 req/s shed nothing")
	}
	if int64(res.Jobs) != res.Completed+res.Expired+res.DroppedJobs {
		t.Fatalf("accounting broken: %d != %d+%d+%d",
			res.Jobs, res.Completed, res.Expired, res.DroppedJobs)
	}
}

func TestStuckSpeedRunCompletes(t *testing.T) {
	cfg := faultCfg(t,
		faults.Spec{At: 1, Kind: faults.SpeedStuck, Target: 4, Value: 0.8, Duration: 10},
		faults.Spec{At: 2, Kind: faults.SpeedStuck, Target: 5, Value: 2.5},
	)
	res := runFaulty(t, cfg, 160, 24)
	if res.Jobs == 0 || res.SimTime <= 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if int64(res.Jobs) != res.Completed+res.Expired+res.DroppedJobs {
		t.Fatal("accounting broken under stuck DVFS")
	}
}

func TestFaultRunsAreDeterministic(t *testing.T) {
	mk := func() Result {
		cfg := faultCfg(t,
			faults.Spec{At: 2, Kind: faults.CoreFail, Target: 1, Duration: 4},
			faults.Spec{At: 3, Kind: faults.BudgetCap, Value: 120, Duration: 5},
			faults.Spec{At: 4, Kind: faults.SpeedStuck, Target: 7, Value: 1.2, Duration: 3},
		)
		return runFaulty(t, cfg, 180, 25)
	}
	a, b := mk(), mk()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("same seed and fault schedule diverged:\n%+v\n%+v", a, b)
	}
}

func TestGeneratedFaultScheduleRuns(t *testing.T) {
	cfg := Defaults()
	fs, err := faults.Generate(9, cfg.Cores, 20, 15, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fs
	res := runFaulty(t, cfg, 150, 26)
	if int64(res.Jobs) != res.Completed+res.Expired+res.DroppedJobs {
		t.Fatal("accounting broken under generated faults")
	}
}

func TestFaultFreeRunUnchangedByFaultsNil(t *testing.T) {
	plain := runFaulty(t, Defaults(), 170, 27)
	empty, err := faults.New(faults.Cores, nil, Defaults().Cores, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults()
	cfg.Faults = empty
	withEmpty := runFaulty(t, cfg, 170, 27)
	if fmt.Sprintf("%+v", plain) != fmt.Sprintf("%+v", withEmpty) {
		t.Fatalf("an empty fault schedule changed the run:\n%+v\n%+v", plain, withEmpty)
	}
	if plain.SurvivingCapacity != 1 {
		t.Fatalf("fault-free surviving capacity = %v, want 1", plain.SurvivingCapacity)
	}
}

func TestConfigValidationTable(t *testing.T) {
	badFaults := func(c *Config) {
		fs, err := faults.New(faults.Cores, []faults.Spec{{At: 1, Kind: faults.CoreFail, Target: 20}}, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.Faults = fs // built for 32 cores, config has 16
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }, "cores must be positive"},
		{"negative budget", func(c *Config) { c.PowerBudget = -5 }, "power budget must be positive"},
		{"bad QGE", func(c *Config) { c.QGE = 1.5 }, "QGE must lie in [0,1]"},
		{"zero quantum", func(c *Config) { c.QuantumSec = 0 }, "quantum must be positive"},
		{"zero counter", func(c *Config) { c.CounterTrigger = 0 }, "counter trigger must be positive"},
		{"core mismatch faults", badFaults, "fault schedule"},
	}
	for _, tc := range cases {
		cfg := Defaults()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !containsStr(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestConfigRejectsMachineScopeFaults: one Schedule type serves both
// scopes, so the runner's validation must turn away a fleet's machine
// schedule rather than read machine indices as cores.
func TestConfigRejectsMachineScopeFaults(t *testing.T) {
	cfg := Defaults()
	fs, err := faults.New(faults.Machines, []faults.Spec{
		{At: 1, Kind: faults.MachineCrash, Target: 2, Duration: 1},
	}, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fs
	err = cfg.Validate()
	if err == nil || !containsStr(err.Error(), "not a core fault kind") {
		t.Fatalf("machine-scope schedule: error %v, want a scope rejection", err)
	}
	if _, err := NewRunner(cfg, NewFCFS(), shortSpec(100, 1)); err == nil {
		t.Fatal("NewRunner accepted a machine-scope schedule")
	}
}
