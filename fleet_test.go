package goodenough

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"goodenough/internal/obs"
)

// chaosFleetConfig loads the committed golden chaos scenario: a 10-machine
// fleet where machines crash (twice for machine 1), partition, and degrade
// mid-run, all recovering before the horizon.
func chaosFleetConfig(t testing.TB) FleetConfig {
	t.Helper()
	raw, err := os.ReadFile("testdata/fleet_chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	fc := DefaultFleetConfig()
	fc.Machines = 10
	fc.DurationSec = 30
	fc.ArrivalRate = 154 * float64(fc.Machines)
	if err := json.Unmarshal(raw, &fc.MachineFaults); err != nil {
		t.Fatal(err)
	}
	return fc
}

// TestFleetChaosGoldenScenario is the acceptance scenario: under the
// committed chaos schedule, every health-aware dispatch policy finishes with
// zero lost-forever jobs, full accounting, and bounded quality loss against
// the identical fault-free run.
func TestFleetChaosGoldenScenario(t *testing.T) {
	clean := chaosFleetConfig(t)
	clean.MachineFaults = nil
	base, err := RunFleet(clean)
	if err != nil {
		t.Fatal(err)
	}
	if base.Quality <= 0 {
		t.Fatalf("fault-free baseline quality = %v", base.Quality)
	}
	for _, policy := range DispatchPolicies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			fc := chaosFleetConfig(t)
			fc.Dispatch = policy
			res, err := RunFleet(fc)
			if err != nil {
				t.Fatal(err)
			}
			if res.LostForever != 0 {
				t.Fatalf("%d jobs lost forever", res.LostForever)
			}
			if int64(res.Jobs) != res.Completed+res.Expired+res.Dropped {
				t.Fatalf("accounting: %d jobs != %d completed + %d expired + %d dropped",
					res.Jobs, res.Completed, res.Expired, res.Dropped)
			}
			if res.Crashes != 4 || res.Partitions != 1 || res.Degrades != 2 {
				t.Fatalf("faults applied = %d crashes, %d partitions, %d degrades; want 4/1/2",
					res.Crashes, res.Partitions, res.Degrades)
			}
			if res.Redispatches == 0 {
				t.Fatal("no re-dispatches despite crashing loaded machines")
			}
			if res.LostWork <= 0 {
				t.Fatal("crashes wiped no in-flight work")
			}
			if res.Availability <= 0 || res.Availability >= 1 {
				t.Fatalf("availability = %v, want in (0,1) with machines down part of the run", res.Availability)
			}
			// Bounded quality loss: chaos may cost quality, but the fleet
			// must stay within 0.05 of the fault-free run.
			if res.Quality < base.Quality-0.05 {
				t.Fatalf("quality %v fell more than 0.05 below fault-free %v", res.Quality, base.Quality)
			}
		})
	}
}

// TestFleetDeterminism runs the same chaotic fleet twice with the same
// seed — concurrently, the way geserve runs simulations — and
// requires byte-identical event streams and identical results: no hidden
// shared state between fleet instances. The config is deliberately small
// (the full event stream is captured twice) but exercises every machine
// fault kind.
func TestFleetDeterminism(t *testing.T) {
	fc := DefaultFleetConfig()
	fc.DurationSec = 8
	fc.MachineFaults = []MachineFaultSpec{
		{AtSec: 2, Kind: "crash", Machine: 1, DurationSec: 3},
		{AtSec: 3, Kind: "partition", Machine: 2, DurationSec: 2},
		{AtSec: 4, Kind: "slow", Machine: 3, DurationSec: 3, Factor: 0.5},
	}
	var (
		results [2]FleetResult
		events  [2][]byte
		errs    [2]error
		wg      sync.WaitGroup
	)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			results[i], errs[i] = RunFleetWithOptions(fc, RunOptions{Events: &buf})
			events[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	r1, e1 := results[0], events[0]
	r2, e2 := results[1], events[1]
	if !bytes.Equal(e1, e2) {
		i := 0
		for i < len(e1) && i < len(e2) && e1[i] == e2[i] {
			i++
		}
		t.Fatalf("event streams diverge at byte %d of %d/%d", i, len(e1), len(e2))
	}
	s1, s2 := fmt.Sprintf("%+v", r1), fmt.Sprintf("%+v", r2)
	if s1 != s2 {
		t.Fatalf("identical seed + fault schedule diverged:\n%s\n%s", s1, s2)
	}
	if len(e1) == 0 {
		t.Fatal("no events recorded")
	}
}

// TestFleetCrashMidQuantumRedispatch is the regression test for crash
// recovery accounting: a single crash mid-quantum wipes in-flight progress,
// and every displaced job is re-dispatched exactly once — never duplicated,
// never leaked.
func TestFleetCrashMidQuantumRedispatch(t *testing.T) {
	fc := DefaultFleetConfig()
	fc.Machines = 3
	fc.DurationSec = 10
	fc.ArrivalRate = 154 * 3
	// Offset from the quantum grid so the crash lands mid-quantum with
	// partial progress on every busy core.
	fc.MachineFaults = []MachineFaultSpec{
		{AtSec: 2.5037, Kind: "crash", Machine: 1, DurationSec: 3},
	}

	redispatched := map[int]int{}
	var downAt float64
	sink := observerFunc(func(e obs.Event) {
		switch e.Type {
		case obs.EventRedispatch:
			redispatched[e.Job]++
		case obs.EventMachineDown:
			downAt = e.Time
		}
	})
	res, err := RunFleetWithOptions(fc, RunOptions{Observer: sink})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
	if downAt != 2.5037 {
		t.Fatalf("machine-down at %v, want 2.5037", downAt)
	}
	if res.LostWork <= 0 {
		t.Fatal("mid-quantum crash wiped no in-flight progress")
	}
	if len(redispatched) == 0 {
		t.Fatal("no displaced jobs re-dispatched")
	}
	for job, n := range redispatched {
		if n != 1 {
			t.Fatalf("job %d re-dispatched %d times, want exactly once", job, n)
		}
	}
	if int64(len(redispatched)) != res.Redispatches {
		t.Fatalf("redispatch events cover %d jobs but result counts %d",
			len(redispatched), res.Redispatches)
	}
	if res.LostForever != 0 {
		t.Fatalf("%d jobs lost forever", res.LostForever)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d jobs hit the re-dispatch limit after a single crash", res.Dropped)
	}
}

// TestFleetConfigValidation exercises the field-level rejection paths:
// overlapping windows, out-of-horizon onsets, bad factors, per-core faults
// at fleet scale, and unknown dispatch policies.
func TestFleetConfigValidation(t *testing.T) {
	base := DefaultFleetConfig()
	base.DurationSec = 10
	cases := []struct {
		name   string
		mutate func(*FleetConfig)
	}{
		{"overlapping windows", func(fc *FleetConfig) {
			fc.MachineFaults = []MachineFaultSpec{
				{AtSec: 1, Kind: "crash", Machine: 0, DurationSec: 5},
				{AtSec: 3, Kind: "partition", Machine: 0, DurationSec: 5},
			}
		}},
		{"onset beyond horizon", func(fc *FleetConfig) {
			fc.MachineFaults = []MachineFaultSpec{
				{AtSec: 11, Kind: "crash", Machine: 0, DurationSec: 1},
			}
		}},
		{"machine out of range", func(fc *FleetConfig) {
			fc.MachineFaults = []MachineFaultSpec{
				{AtSec: 1, Kind: "crash", Machine: 99, DurationSec: 1},
			}
		}},
		{"slow factor out of range", func(fc *FleetConfig) {
			fc.MachineFaults = []MachineFaultSpec{
				{AtSec: 1, Kind: "slow", Machine: 0, DurationSec: 1, Factor: 1.5},
			}
		}},
		{"unknown fault kind", func(fc *FleetConfig) {
			fc.MachineFaults = []MachineFaultSpec{
				{AtSec: 1, Kind: "meteor", Machine: 0, DurationSec: 1},
			}
		}},
		{"per-core faults at fleet scale", func(fc *FleetConfig) {
			fc.Faults = []FaultSpec{{AtSec: 1, Kind: "core-fail", Core: 0}}
		}},
		{"unknown dispatch policy", func(fc *FleetConfig) {
			fc.Dispatch = "oracle"
		}},
		{"no machines", func(fc *FleetConfig) {
			fc.Machines = 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := base
			tc.mutate(&fc)
			if err := fc.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("default fleet config rejected: %v", err)
	}
}

// TestFleetPartitionStrandsNoJobs checks that a machine partitioned from the
// dispatcher keeps serving its queue and that routing steers around it.
func TestFleetPartitionStrandsNoJobs(t *testing.T) {
	fc := DefaultFleetConfig()
	fc.Machines = 3
	fc.DurationSec = 10
	fc.ArrivalRate = 154 * 3
	fc.MachineFaults = []MachineFaultSpec{
		{AtSec: 2, Kind: "partition", Machine: 0, DurationSec: 4},
	}
	res, err := RunFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 1 {
		t.Fatalf("partitions = %d, want 1", res.Partitions)
	}
	if res.Crashes != 0 || res.LostWork != 0 {
		t.Fatalf("partition lost work: crashes=%d lostwork=%v", res.Crashes, res.LostWork)
	}
	if res.LostForever != 0 {
		t.Fatalf("%d jobs lost forever", res.LostForever)
	}
	// A partition is not a crash: availability is unaffected.
	if res.Availability != 1 {
		t.Fatalf("availability = %v, want 1 (partitioned machines still serve)", res.Availability)
	}
}

// TestFleetWholeOutageExpiresParkedJobs: with every machine crashed for
// longer than a response window, arrivals park at the dispatcher and expire
// there, and each one still lands in the accounting exactly once.
func TestFleetWholeOutageExpiresParkedJobs(t *testing.T) {
	fc := DefaultFleetConfig()
	fc.Machines = 2
	fc.DurationSec = 6
	fc.ArrivalRate = 154 * 2
	fc.MachineFaults = []MachineFaultSpec{
		{AtSec: 2, Kind: "crash", Machine: 0, DurationSec: 2},
		{AtSec: 2, Kind: "crash", Machine: 1, DurationSec: 2},
	}
	res, err := RunFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	// 2 s of 308 req/s with nowhere to go, less the few still within
	// their window when the machines return.
	if res.PendingExpired < 400 {
		t.Fatalf("pending expired = %d, want the outage's arrivals (~600)", res.PendingExpired)
	}
	if res.LostForever != 0 {
		t.Fatalf("%d jobs lost forever", res.LostForever)
	}
	if int64(res.Jobs) != res.Completed+res.Expired+res.Dropped {
		t.Fatalf("accounting: %d jobs != %d completed + %d expired + %d dropped",
			res.Jobs, res.Completed, res.Expired, res.Dropped)
	}
	if res.Expired < res.PendingExpired {
		t.Fatalf("expired %d excludes the %d parked expiries", res.Expired, res.PendingExpired)
	}
}

// TestSingleMachineFleetMatchesRun: a fault-free one-machine fleet under
// round-robin dispatch is the single-machine loop behind a pass-through
// dispatcher, so it must reproduce Run exactly — every trigger, including
// the idle-core wakeups of cores that drain before their last deadline.
func TestSingleMachineFleetMatchesRun(t *testing.T) {
	for _, scheduler := range []string{"ge", "fdfs"} {
		for seed := uint64(1); seed <= 4; seed++ {
			for _, rate := range []float64{60, 154, 308} {
				cfg := DefaultConfig()
				cfg.Scheduler = scheduler
				cfg.Seed = seed
				cfg.ArrivalRate = rate
				cfg.DurationSec = 10
				want, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunFleet(FleetConfig{Config: cfg, Machines: 1, Dispatch: "rr"})
				if err != nil {
					t.Fatal(err)
				}
				fields := []struct {
					name      string
					got, want any
				}{
					{"Energy", got.Energy, want.Energy},
					{"Quality", got.Quality, want.Quality},
					{"Jobs", got.Jobs, want.Jobs},
					{"Completed", got.Completed, want.Completed},
					{"Expired", got.Expired, want.Expired},
					{"AESFraction", got.AESFraction, want.AESFraction},
					{"AESEnergy", got.AESEnergy, want.AESEnergy},
					{"BQEnergy", got.BQEnergy, want.BQEnergy},
					{"MeanResponse", got.MeanResponse, want.MeanResponse},
					{"P95Response", got.P95Response, want.P95Response},
					{"SimTime", got.SimTime, want.SimTime},
				}
				for _, f := range fields {
					if f.got != f.want {
						t.Errorf("%s seed %d at %v req/s: fleet %s = %v, Run = %v",
							scheduler, seed, rate, f.name, f.got, f.want)
					}
				}
			}
		}
	}
}
