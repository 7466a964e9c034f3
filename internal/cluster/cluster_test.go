package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"goodenough/internal/core"
	"goodenough/internal/faults"
	"goodenough/internal/sched"
	"goodenough/internal/workload"
)

// TestNewRejectsCoreScopeFaults: one Schedule type serves both scopes, so
// the fleet must turn away a machine's core schedule rather than read core
// indices as machines.
func TestNewRejectsCoreScopeFaults(t *testing.T) {
	cores, err := faults.New(faults.Cores, []faults.Spec{
		{At: 1, Kind: faults.CoreFail, Target: 2, Duration: 1},
	}, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := NewDispatcher("rr", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	node := sched.Defaults()
	_, err = New(Config{
		Machines:  4,
		Node:      node,
		NewPolicy: func() sched.Policy { return core.NewGE(node.QGE) },
		Dispatch:  disp,
		Workload: workload.Spec{
			ArrivalRate: 100, ParetoAlpha: 3, Xmin: 130, Xmax: 1000,
			Window: 0.15, Duration: 2, Seed: 1,
		},
		Faults: cores,
	})
	if err == nil || !strings.Contains(err.Error(), "not a machine fault kind") {
		t.Fatalf("core-scope schedule: error %v, want a scope rejection", err)
	}
}

// waitGoroutines waits for the goroutine count to fall back to at most
// want, the count taken before the test body. A goroutine that has
// signalled its exit may still be counted for an instant; one that never
// exits keeps the count above want and fails the test. A goroutine of an
// earlier test that exits late only lowers the count.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d: one outlived its owner", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// goroutineFleet builds a small fleet of the given shard count, fed a
// stream of about 6k jobs: many of the producer's chunks.
func goroutineFleet(t *testing.T, shards int) *Fleet {
	t.Helper()
	node := sched.Defaults()
	disp, err := NewDispatcher("p2c", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultSpec(3000, 3)
	spec.Duration = 2
	f, err := New(Config{
		Machines:  8,
		Node:      node,
		NewPolicy: func() sched.Policy { return core.NewGE(node.QGE) },
		Dispatch:  disp,
		Workload:  spec,
		Shards:    shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRunLeavesNoGoroutine checks that Run waits for every goroutine it
// starts — the arrival producer and the shard workers — on success and on
// an error return.
func TestRunLeavesNoGoroutine(t *testing.T) {
	for _, shards := range []int{1, 4} {
		before := runtime.NumGoroutine()
		res, err := goroutineFleet(t, shards).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Jobs < 5000 || res.LostForever != 0 {
			t.Fatalf("K=%d: %d jobs, %d lost forever; want many chunks and none lost",
				shards, res.Jobs, res.LostForever)
		}
		waitGoroutines(t, before)

		// A quantum the kernel rejects fails Run right after the producer
		// has started drawing.
		before = runtime.NumGoroutine()
		f := goroutineFleet(t, shards)
		f.nodeCfg.QuantumSec = -1
		if _, err := f.Run(); err == nil {
			t.Fatalf("K=%d: Run accepted a negative quantum", shards)
		}
		waitGoroutines(t, before)
	}
}
