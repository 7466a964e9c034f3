package sim

import "testing"

// The BenchmarkKernel* suite pins the event-kernel hot path: scheduling,
// delivery, and cancellation, in steady state. Each benchmark warms the
// engine up before ResetTimer so slab/heap growth is excluded and the
// measured region is the true steady state — the acceptance bar is
// 0 allocs/op. scripts/bench_baseline.sh turns the output into
// BENCH_BASELINE.json; `make bench-check` gates CI against it.

// BenchmarkKernelScheduleDeliver measures the fundamental cycle: one
// Schedule immediately followed by one delivery, on a queue kept at a
// realistic standing depth (64 pending events, the order of one server's
// deadline+idle backlog).
func BenchmarkKernelScheduleDeliver(b *testing.B) {
	eng := NewEngine(func(*Event) error { return nil })
	const depth = 64
	t := 1.0
	for i := 0; i < depth; i++ {
		t += 0.25
		if _, err := eng.Schedule(t, KindArrival); err != nil {
			b.Fatal(err)
		}
	}
	// Warm one full cycle so free-list/slab growth is outside the timer.
	for i := 0; i < depth; i++ {
		t += 0.25
		eng.Schedule(t, KindArrival)
		if _, err := step(eng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := eng.Processed
	for i := 0; i < b.N; i++ {
		t += 0.25
		eng.Schedule(t, KindArrival)
		if _, err := step(eng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.Processed-start)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkKernelChurn measures a burst pattern: schedule a batch of 128
// events at jittered future times, then drain it — the shape of an
// arrival burst followed by a quantum of deliveries.
func BenchmarkKernelChurn(b *testing.B) {
	eng := NewEngine(func(*Event) error { return nil })
	const batch = 128
	t := 1.0
	churn := func() {
		for i := 0; i < batch; i++ {
			// Deterministic jitter so heap paths vary but runs compare.
			t += float64((i*37)%11) * 0.01
			if _, err := eng.Schedule(t+float64((i*53)%17)*0.1, KindArrival); err != nil {
				b.Fatal(err)
			}
		}
		for eng.Pending() > 0 {
			if _, err := step(eng); err != nil {
				b.Fatal(err)
			}
		}
		if eng.Now() > t {
			t = eng.Now()
		}
	}
	churn() // warm the slab
	b.ReportAllocs()
	b.ResetTimer()
	start := eng.Processed
	for i := 0; i < b.N; i++ {
		churn()
	}
	b.ReportMetric(float64(eng.Processed-start)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkKernelCancel measures the cancel-heavy pattern the scheduler
// actually exhibits: per-core idle events are re-armed (cancel + schedule)
// at every trigger, so most scheduled events die before delivery.
func BenchmarkKernelCancel(b *testing.B) {
	eng := NewEngine(func(*Event) error { return nil })
	const cores = 16
	t := 1.0
	pending := make([]EventID, cores)
	rearm := func() {
		for c := 0; c < cores; c++ {
			if pending[c] != 0 {
				eng.Cancel(pending[c])
			}
			id, err := eng.ScheduleCoreRef(t+1+float64(c)*0.01, KindCoreIdle, c, -1)
			if err != nil {
				b.Fatal(err)
			}
			pending[c] = id
		}
		t += 0.5
		eng.Schedule(t, KindQuantum)
		if _, err := step(eng); err != nil { // deliver the quantum tick
			b.Fatal(err)
		}
	}
	rearm() // warm
	b.ReportAllocs()
	b.ResetTimer()
	start := eng.Processed
	for i := 0; i < b.N; i++ {
		rearm()
	}
	b.ReportMetric(float64(eng.Processed-start)/b.Elapsed().Seconds(), "events/sec")
}
