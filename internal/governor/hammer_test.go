package governor

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"goodenough/internal/obs"
)

// TestGovernorRaceHammer runs the live control loop against a storm of
// concurrent Register/Finish/Admit traffic and telemetry reads, then stops
// it mid-flight. Its value is under -race (the CI test job): every shared
// path — tick vs. Finish swap-delete, cut vs. cancel, atomic publication —
// gets exercised simultaneously.
func TestGovernorRaceHammer(t *testing.T) {
	g, err := New(Config{
		Budget:   2,
		Quantum:  time.Millisecond, // spin the loop hard
		QGE:      0.9,
		QueueLen: func() int { return 4 },
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g.Admit()
				ctx, cancel := context.WithCancel(context.Background())
				tk := g.Register(0.01, cancel, obs.SpanContext{})
				if seed%2 == 0 {
					runtime.Gosched()
				}
				select {
				case <-ctx.Done(): // cut landed; fine
				default:
				}
				tk.Finish()
				tk.Finish() // double-finish must stay safe under contention
				cancel()
				_ = g.State()
				_ = g.Headroom()
				_ = g.RetryAfter()
			}
		}(w)
	}
	wg.Wait()
	g.Stop()
	// Post-stop drain: Register/Finish must still work (requests finishing
	// during SIGTERM drain outlive the control loop).
	tk := g.Register(1, func() {}, obs.SpanContext{})
	if q, cut := tk.Finish(); cut || q != 1 {
		t.Fatalf("post-stop Finish = (%v, %v), want (1, false)", q, cut)
	}
	if inFlight(g) != 0 {
		t.Fatalf("InFlight = %d after hammer, want 0", inFlight(g))
	}
}

// TestGovernorStopNoLeak proves Start/Stop cycles strand no goroutine —
// the SIGTERM drain path calls Stop and must get the control loop's exit,
// not a promise. Also covers Stop-without-Start and double-Stop.
func TestGovernorStopNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		g, err := New(Config{Budget: 1, Quantum: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		time.Sleep(3 * time.Millisecond) // let it tick at least once
		g.Stop()
		g.Stop() // idempotent
	}
	// Never started: Stop must not hang.
	g, err := New(Config{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { g.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop without Start hung")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
