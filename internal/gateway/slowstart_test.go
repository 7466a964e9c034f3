package gateway

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSlowStartRampSchedule walks a 3-step ramp through its weight/cap
// schedule directly on the replica state machine.
func TestSlowStartRampSchedule(t *testing.T) {
	r, err := newReplica(0, "http://127.0.0.1:1", 3, time.Second, 3, 100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(100, 0)

	// Up replica: full weight, no cap.
	if w, limit, done := r.slowStart(t0); w != 1 || limit != math.MaxInt64 || done {
		t.Fatalf("idle slowStart = (%v, %d, %v), want (1, MaxInt64, false)", w, limit, done)
	}

	r.markDown(t0)
	if d, ok := r.rejoin(t0.Add(2 * time.Second)); !ok || d != 2*time.Second {
		t.Fatalf("rejoin after markDown = (%v, %v), want (2s, true)", d, ok)
	}
	if d, ok := r.rejoin(t0.Add(3 * time.Second)); ok {
		t.Fatalf("second rejoin double-counted the outage (%v)", d)
	}

	rejoined := t0.Add(2 * time.Second)
	steps := []struct {
		after  time.Duration
		weight float64
		limit  int64
	}{
		{0, 1.0 / 8, 1},
		{50 * time.Millisecond, 1.0 / 8, 1},
		{100 * time.Millisecond, 1.0 / 4, 2},
		{250 * time.Millisecond, 1.0 / 2, 4},
	}
	for _, st := range steps {
		now := rejoined.Add(st.after)
		w, limit, done := r.slowStart(now)
		if w != st.weight || limit != st.limit || done {
			t.Fatalf("slowStart(+%v) = (%v, %d, %v), want (%v, %d, false)",
				st.after, w, limit, done, st.weight, st.limit)
		}
		if got := r.weightNow(now); got != st.weight {
			t.Fatalf("weightNow(+%v) = %v, want %v", st.after, got, st.weight)
		}
	}

	// Past the last step the ramp completes exactly once.
	end := rejoined.Add(301 * time.Millisecond)
	if w, _, done := r.slowStart(end); w != 1 || !done {
		t.Fatalf("slowStart past ramp = (%v, done=%v), want (1, true)", w, done)
	}
	if _, _, done := r.slowStart(end); done {
		t.Fatal("ramp completion reported twice")
	}

	// A relapse mid-ramp cancels the ramp and restarts the outage clock.
	r.markDown(end)
	r.rejoin(end.Add(time.Second))
	mid := end.Add(time.Second + 150*time.Millisecond)
	if w, _, _ := r.slowStart(mid); w != 1.0/4 {
		t.Fatalf("restarted ramp weight = %v, want 1/4", w)
	}
	r.markDown(mid)
	if w := r.weightNow(mid); w != 1 {
		t.Fatalf("weight after relapse = %v, want 1 (ramp cancelled, replica is down)", w)
	}
}

// TestBreakerTrip: Trip opens immediately from closed (no threshold wait),
// re-opens from half-open releasing the trial slot, and leaves an already
// open breaker's timer alone.
func TestBreakerTrip(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, time.Second, nil)
	b.now = func() time.Time { return now }

	b.Trip()
	if st := b.State(); st != breakerOpen {
		t.Fatalf("state after Trip = %v, want open", st)
	}
	openedAt := b.openedAt

	// A straggler Trip while open must not extend the window.
	now = now.Add(500 * time.Millisecond)
	b.Trip()
	if !b.openedAt.Equal(openedAt) {
		t.Fatal("Trip on an open breaker refreshed openedAt")
	}

	// Half-open admits a trial; a refused trial trips back open.
	now = now.Add(600 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open trial refused after the open window lapsed")
	}
	b.Trip()
	if st := b.State(); st != breakerOpen {
		t.Fatalf("state after half-open Trip = %v, want open", st)
	}
	now = now.Add(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("trial slot not released by the half-open Trip")
	}
	b.Success()
	if st := b.State(); st != breakerClosed {
		t.Fatalf("state after trial success = %v, want closed", st)
	}
}

// TestRefusedTripsBreakerImmediately: a connection-refused attempt — the
// signature of a SIGKILLed replica — must open the breaker and clear the
// probe verdict on the very first request, not after BreakerFailures
// strikes; after the open window a half-open trial walks the usual
// refused -> open -> half-open -> closed recovery.
func TestRefusedTripsBreakerImmediately(t *testing.T) {
	// Reserve an address with a real listener, then close it so connections
	// are refused while the "replica" is down.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	good := okBackend(t, nil, 0)
	g, front := newPoolGateway(t, Config{
		Replicas:         []string{"http://" + addr},
		BreakerFailures:  3, // must NOT take 3 strikes
		BreakerOpenFor:   100 * time.Millisecond,
		RetryBudgetBurst: 100,
		DisableHedging:   true,
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
	}, good)
	// Probes stay off for now so the refused *request* path, not the probe
	// loop, is what marks the replica down.

	// The rotating cursor decides which replica the first request tries, so
	// two requests guarantee the dead one is attempted exactly once — and
	// one refused attempt must be enough to open the breaker.
	for i := 0; i < 2; i++ {
		resp, body := postRun(t, front.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d not rescued by retry: %d %s", i, resp.StatusCode, body)
		}
	}
	if st := g.replicas[0].br.State(); st != breakerOpen {
		t.Fatalf("breaker %v after a refused attempt, want open", st)
	}
	if g.replicas[0].probeOK.Load() {
		t.Fatal("refused attempt left probeOK true")
	}
	if n := g.Metrics().CounterValue("refused_total"); n != 1 {
		t.Fatalf("refused_total = %d, want 1", n)
	}

	// While the breaker is open the dead replica is out of the pick order:
	// no attempt is even made against it.
	for i := 0; i < 3; i++ {
		resp, _ := postRun(t, front.URL)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-GE-Replica") != "replica1" {
			t.Fatalf("request %d: status %d replica %s", i, resp.StatusCode, resp.Header.Get("X-GE-Replica"))
		}
	}

	// The replica restarts on the same address; the half-open trial closes
	// the breaker and the rejoin begins slow-start.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"result":{}}`)
	})}
	go hs.Serve(l2)
	t.Cleanup(func() { hs.Close() })

	// In production the active probe loop is what flips probeOK back after a
	// restart; start it now for the recovery half of the test.
	g.Start()
	time.Sleep(120 * time.Millisecond) // open window lapses
	deadline := time.Now().Add(5 * time.Second)
	for g.replicas[0].br.State() != breakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after restart (state %v)", g.replicas[0].br.State())
		}
		postRun(t, front.URL)
		time.Sleep(10 * time.Millisecond)
	}
	if n := g.Metrics().CounterValue("slowstart_enter_total"); n < 1 {
		t.Fatalf("slowstart_enter_total = %d after a rejoin, want >= 1", n)
	}
	if w := g.replicas[0].weightNow(time.Now()); w >= 1 {
		t.Fatalf("rejoined replica weight = %v, want < 1 (ramping)", w)
	}
	if n := g.Metrics().HistogramCount("rejoin_seconds"); n < 1 {
		t.Fatalf("rejoin_seconds observations = %d, want >= 1", n)
	}
}

// TestSlowStartCapLimitsConcurrency: a replica at ramp step 0 (cap 1) must
// not be handed a second concurrent request in the preferred pass even
// when it looks idle; the spill goes to its peer.
func TestSlowStartCapLimitsConcurrency(t *testing.T) {
	b0 := okBackend(t, nil, 0)
	b1 := okBackend(t, nil, 0)
	g, _ := newPoolGateway(t, Config{
		RejoinRampSteps: 3,
		RejoinRampStep:  time.Minute, // hold step 0 for the whole test
	}, b0, b1)

	// replica0 just rejoined: step 0, weight 1/8, cap 1 — and one request
	// is already in flight on it.
	g.replicas[0].markDown(time.Now().Add(-time.Second))
	g.noteRejoin(g.replicas[0])
	g.replicas[0].inflight.Store(1)
	g.replicas[1].inflight.Store(3)

	for i := 0; i < 4; i++ {
		rep := g.pick(pickScratchFor(g))
		if rep != g.replicas[1] {
			t.Fatalf("pick %d chose ramping %s at its cap, want replica1", i, rep.name)
		}
	}

	// With the in-flight slot free, the ramping replica is preferred again
	// (weight-scaled load 0 beats the busy peer).
	g.replicas[0].inflight.Store(0)
	if rep := g.pick(pickScratchFor(g)); rep != g.replicas[0] {
		t.Fatalf("pick with free cap chose %s, want ramping replica0", rep.name)
	}
}

// TestSlowStartWeightBiasesLoad: mid-ramp, the weight-scaled in-flight
// order sends the recovering replica proportionally less traffic: at
// weight 1/2 and equal in-flight counts the full-weight peer wins.
func TestSlowStartWeightBiasesLoad(t *testing.T) {
	b0 := okBackend(t, nil, 0)
	b1 := okBackend(t, nil, 0)
	g, _ := newPoolGateway(t, Config{
		RejoinRampSteps: 1, // single step: weight 1/2, cap 1... then full
		RejoinRampStep:  time.Minute,
	}, b0, b1)

	g.replicas[0].markDown(time.Now().Add(-time.Second))
	g.noteRejoin(g.replicas[0])
	g.replicas[0].inflight.Store(0) // under its cap of 1
	g.replicas[1].inflight.Store(1)

	// replica0 scaled load: 0/0.5 = 0 < 1 -> still preferred when empty.
	if rep := g.pick(pickScratchFor(g)); rep != g.replicas[0] {
		t.Fatalf("pick chose %s, want empty ramping replica0", rep.name)
	}

	// Equal raw in-flight: ramping replica's scaled load (1/0.5 = 2) loses
	// to the full-weight peer (1/1 = 1)... but its cap (1) already removes
	// it from the preferred pass, which is the same outcome.
	g.replicas[0].inflight.Store(1)
	if rep := g.pick(pickScratchFor(g)); rep != g.replicas[1] {
		t.Fatalf("pick chose %s, want full-weight replica1", rep.name)
	}
}

// TestReplicazShowsSlowStart: the live table carries the ramp weight.
func TestReplicazShowsSlowStart(t *testing.T) {
	b0 := okBackend(t, nil, 0)
	g, front := newPoolGateway(t, Config{
		RejoinRampSteps: 3,
		RejoinRampStep:  time.Minute,
	}, b0)
	g.replicas[0].markDown(time.Now().Add(-time.Second))
	g.noteRejoin(g.replicas[0])

	resp, err := http.Get(front.URL + "/replicaz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	if !strings.Contains(page, "weight=0.125") || !strings.Contains(page, "slow-start") {
		t.Fatalf("replicaz missing slow-start weight:\n%s", page)
	}
}

// TestPickConcurrentScratch hammers pick from many goroutines to shake out
// races in the pooled scratch (run with -race).
func TestPickConcurrentScratch(t *testing.T) {
	b0 := okBackend(t, nil, 0)
	b1 := okBackend(t, nil, 0)
	b2 := okBackend(t, nil, 0)
	g, _ := newPoolGateway(t, Config{}, b0, b1, b2)

	var stop atomic.Bool
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for !stop.Load() {
				sc := g.scratch.Get().(*pickScratch)
				sc.reset()
				if rep := g.pick(sc); rep == nil {
					t.Error("pick returned nil with a healthy pool")
					return
				}
				g.scratch.Put(sc)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	for w := 0; w < 4; w++ {
		<-done
	}
}
