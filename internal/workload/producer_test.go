package workload

import (
	"runtime"
	"testing"
	"time"

	"goodenough/internal/job"
)

// producerSpec is a stream of many chunks: about 30k jobs.
func producerSpec() Spec {
	spec := DefaultSpec(3000, 3)
	spec.Duration = 10
	return spec
}

// TestProducerMatchesGenerator takes a whole stream through the producer,
// finalizing each job as soon as it is taken so every chunk handed back
// carries jobs to reinitialize. The stream must equal the generator's own,
// job for job and field for field, and after the look-ahead's first fill
// every job must be a reused one: a handed-back job is never dropped.
func TestProducerMatchesGenerator(t *testing.T) {
	want := NewGenerator(producerSpec())
	p := StartProducer(NewGenerator(producerSpec()))
	defer p.Close()
	if p.chunkJobs != maxChunkJobs {
		t.Fatalf("%d jobs per chunk for a 30k-job stream, want %d", p.chunkJobs, maxChunkJobs)
	}
	distinct := make(map[*job.Job]bool)
	n := 0
	for {
		a, ok := p.Next()
		if !ok {
			break
		}
		w := want.Next()
		if w == nil {
			t.Fatalf("producer drew %d jobs past the generator's end", n+1)
		}
		if *a.Job != *w {
			t.Fatalf("job %d: producer drew %+v, generator %+v", n, *a.Job, *w)
		}
		if a.Release != w.Release || a.Remaining != w.Remaining() {
			t.Fatalf("job %d: arrival carries release %v and remaining %v, job has %v and %v",
				n, a.Release, a.Remaining, w.Release, w.Remaining())
		}
		distinct[a.Job] = true
		a.Job.State = job.StateFinalized
		p.Recycle(a.Job)
		n++
	}
	if w := want.Next(); w != nil {
		t.Fatalf("producer ended after %d jobs; the generator still has job %d", n, w.ID)
	}
	if n < 20*maxChunkJobs {
		t.Fatalf("stream of %d jobs spans too few chunks to exercise recycling", n)
	}
	if limit := (lookahead + 2) * maxChunkJobs; len(distinct) > limit {
		t.Fatalf("%d distinct jobs for %d arrivals, want at most %d: handed-back jobs were not reused",
			len(distinct), n, limit)
	}
	// Once the stream has ended nothing is kept for a producer that will
	// draw no more.
	p.Recycle(&job.Job{})
	if len(p.freed) != 0 {
		t.Fatalf("%d jobs kept after the stream ended", len(p.freed))
	}
}

// TestProducerReplaysTrace takes a trace through the producer, recycling
// every job: the replay must equal the trace entry for entry.
func TestProducerReplaysTrace(t *testing.T) {
	spec := DefaultSpec(150, 21)
	spec.Duration = 20
	tr := Record(NewGenerator(spec).All(), &spec, "")
	rep, err := NewReplayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	p := StartProducer(rep)
	defer p.Close()
	n := 0
	for a, ok := p.Next(); ok; a, ok = p.Next() {
		tj := tr.Jobs[n]
		if a.Job.ID != n || a.Release != tj.Release || a.Job.Deadline != tj.Deadline ||
			a.Job.Demand != tj.Demand || a.Remaining != tj.Demand || a.Job.Processed != 0 {
			t.Fatalf("replayed job %d: %+v, trace entry %+v", n, *a.Job, tj)
		}
		a.Job.Advance(a.Remaining / 2) // a reused job must come back clean
		p.Recycle(a.Job)
		n++
	}
	if n != len(tr.Jobs) {
		t.Fatalf("replayed %d of %d jobs", n, len(tr.Jobs))
	}
}

// TestChunkSize pins the chunk rule: the look-ahead and the chunk being
// taken hold a short stream whole, and no chunk exceeds maxChunkJobs.
func TestChunkSize(t *testing.T) {
	for _, c := range []struct{ expected, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 1}, {5, 1}, {6, 2}, {100, 20},
		{1276, 256}, {1e6, 256}, {1 << 31, 256},
	} {
		if got := chunkSize(c.expected); got != c.want {
			t.Errorf("chunkSize(%d) = %d, want %d", c.expected, got, c.want)
		}
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
// Close must return, and the producer goroutine must exit.
func TestProducerCloseMidStream(t *testing.T) {
	before := runtime.NumGoroutine()
	p := StartProducer(NewGenerator(producerSpec()))
	if _, ok := p.Next(); !ok {
		t.Fatal("empty stream")
	}
	p.Close()
	waitGoroutines(t, before)
}
