package sched

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"goodenough/internal/job"
	"goodenough/internal/obs"
	"goodenough/internal/workload"
)

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

// endlessSpec is a stream far longer than the producer's look-ahead, so a
// producer that is never closed stays parked on it.
func endlessSpec() workload.Spec {
	spec := shortSpec(200, 5)
	spec.Duration = 1e6
	return spec
}

// TestBuildingRunnersStartsNoGoroutine builds and drops 1,000 runners, half
// over a generator and half over a trace, as a set-up benchmark does: the
// arrival producer belongs to Run, so no goroutine may start.
func TestBuildingRunnersStartsNoGoroutine(t *testing.T) {
	spec := shortSpec(200, 5)
	tr := workload.Record(workload.NewGenerator(spec).All(), &spec, "")
	before := runtime.NumGoroutine()
	for i := range 500 {
		if _, err := NewRunner(Defaults(), NewFCFS(), endlessSpec()); err != nil {
			t.Fatal(err)
		}
		src, err := workload.NewReplayer(tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewRunnerFromSource(Defaults(), NewFCFS(), src); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%d goroutines after building %d runners, %d before: construction started one",
				n, 2*(i+1), before)
		}
	}
}

// cancelAfter cancels its run's context at the given arrival.
type cancelAfter struct {
	arrivals, at int
	cancel       context.CancelFunc
}

// Observe implements obs.Observer.
func (c *cancelAfter) Observe(e obs.Event) {
	if e.Type == obs.EventJobArrive {
		if c.arrivals++; c.arrivals == c.at {
			c.cancel()
		}
	}
}

// backwardsSource emits n jobs a millisecond apart, except that job back is
// released before its predecessor.
type backwardsSource struct{ n, next, back int }

// NextInto implements workload.Source.
func (s *backwardsSource) NextInto(reuse *job.Job) *job.Job {
	if s.next == s.n {
		return nil
	}
	release := float64(s.next) / 1000
	if s.next == s.back {
		release -= 0.0015
	}
	j := job.New(s.next, release, release+0.15, 300)
	if reuse != nil {
		*reuse, j = *j, reuse
	}
	s.next++
	return j
}

// Expected implements workload.Source.
func (s *backwardsSource) Expected() int { return s.n }

// TestRunStopsItsProducer checks that Run waits for its arrival producer on
// every return path: the end of the stream, a context cancelled mid-run
// while the producer is parked on a full look-ahead, and the error a source
// that emits an out-of-order release causes.
func TestRunStopsItsProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	r, err := NewRunner(Defaults(), NewFDFS(), shortSpec(300, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := r.Run(); err != nil || res.Jobs < 5000 {
		t.Fatalf("normal end: %d jobs, error %v; want a stream of many chunks", res.Jobs, err)
	}
	waitGoroutines(t, before)

	before = runtime.NumGoroutine()
	r, err = NewRunner(Defaults(), NewFCFS(), endlessSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.SetContext(ctx)
	r.SetObserver(&cancelAfter{at: 2000, cancel: cancel})
	if res, err := r.Run(); err != nil || !res.Cancelled {
		t.Fatalf("cancelled run: Cancelled %v, error %v; want a partial result", res.Cancelled, err)
	}
	waitGoroutines(t, before)

	before = runtime.NumGoroutine()
	r, err = NewRunnerFromSource(Defaults(), NewFCFS(), &backwardsSource{n: 5000, back: 700})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "job 700 out of order") {
		t.Fatalf("out-of-order source: error %v, want one naming job 700", err)
	}
	waitGoroutines(t, before)
}
