package cluster

import (
	"runtime"
	"testing"
	"time"

	"goodenough/internal/core"
	"goodenough/internal/job"
	"goodenough/internal/sched"
	"goodenough/internal/workload"
)

// producerSpec is a stream of many chunks: about 30k jobs.
func producerSpec() workload.Spec {
	spec := workload.DefaultSpec(3000, 3)
	spec.Duration = 10
	return spec
}

// TestProducerMatchesGenerator takes a whole stream through the producer,
// finalizing each job as soon as it is taken so every chunk handed back
// carries jobs to reinitialize. The stream must equal the generator's own,
// job for job and field for field, and after the look-ahead's first fill
// every job must be a reused one: a handed-back job is never dropped.
func TestProducerMatchesGenerator(t *testing.T) {
	want := workload.NewGenerator(producerSpec())
	f := &Fleet{prod: startProducer(workload.NewGenerator(producerSpec()))}
	defer f.prod.close()
	distinct := make(map[*job.Job]bool)
	n := 0
	for {
		a, ok := f.nextArrival()
		if !ok {
			break
		}
		w := want.Next()
		if w == nil {
			t.Fatalf("producer drew %d jobs past the generator's end", n+1)
		}
		if *a.job != *w {
			t.Fatalf("job %d: producer drew %+v, generator %+v", n, *a.job, *w)
		}
		if a.release != w.Release || a.remaining != w.Remaining() {
			t.Fatalf("job %d: arrival carries release %v and remaining %v, job has %v and %v",
				n, a.release, a.remaining, w.Release, w.Remaining())
		}
		distinct[a.job] = true
		a.job.State = job.StateFinalized
		f.recycle(a.job)
		n++
	}
	if w := want.Next(); w != nil {
		t.Fatalf("producer ended after %d jobs; the generator still has job %d", n, w.ID)
	}
	if n < 20*chunkJobs {
		t.Fatalf("stream of %d jobs spans too few chunks to exercise recycling", n)
	}
	if limit := (lookahead + 2) * chunkJobs; len(distinct) > limit {
		t.Fatalf("%d distinct jobs for %d arrivals, want at most %d: handed-back jobs were not reused",
			len(distinct), n, limit)
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

// TestProducerCloseMidStream stops a producer parked on a full look-ahead:
// close must return, and the producer goroutine must exit.
func TestProducerCloseMidStream(t *testing.T) {
	before := runtime.NumGoroutine()
	f := &Fleet{prod: startProducer(workload.NewGenerator(producerSpec()))}
	if _, ok := f.nextArrival(); !ok {
		t.Fatal("empty stream")
	}
	f.prod.close()
	waitGoroutines(t, before)
}

// goroutineFleet builds a small fleet of the given shard count.
func goroutineFleet(t *testing.T, shards int) *Fleet {
	t.Helper()
	node := sched.Defaults()
	disp, err := NewDispatcher("p2c", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := producerSpec()
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
		if res.Jobs < 10*chunkJobs || res.LostForever != 0 {
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
