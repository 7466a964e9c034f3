package governor

import (
	"context"
	"math"
	"testing"
	"time"

	"goodenough/internal/obs"
)

// testClock is a manually advanced clock for deterministic ticks.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Unix(1_700_000_000, 0)}
}
func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// recordSink captures decisions for assertions.
type recordSink struct{ ds []obs.Decision }

func (r *recordSink) ObserveDecision(d obs.Decision) { r.ds = append(r.ds, d) }

func (r *recordSink) count(k obs.DecisionKind) int {
	n := 0
	for _, d := range r.ds {
		if d.Kind == k {
			n++
		}
	}
	return n
}

// newTestGovernor builds a governor with a fake clock and a queue knob.
func newTestGovernor(t *testing.T, cfg Config, clk *testClock, queue *int) *Governor {
	t.Helper()
	cfg.Now = clk.now
	cfg.QueueLen = func() int { return *queue }
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBrownoutLadder walks the full ladder deterministically:
// ok → degraded → shedding → (hysteresis) → ok. Load is injected through
// the queue probe — queued work amortized over the rate window is offered
// load the governor must plan against.
func TestBrownoutLadder(t *testing.T) {
	clk := newTestClock()
	queue := 0
	sink := &recordSink{}
	g := newTestGovernor(t, Config{
		Budget:        2,
		Quantum:       100 * time.Millisecond,
		QGE:           0.9,
		NominalDemand: time.Second,
		RateWindow:    time.Second,
		Decisions:     sink,
	}, clk, &queue)

	// Idle: ok, full headroom, admission open.
	for i := 0; i < 3; i++ {
		g.tick(clk.now())
		clk.advance(100 * time.Millisecond)
	}
	if s := g.State(); s != StateOK {
		t.Fatalf("idle state = %v, want ok", s)
	}
	if hr := g.Headroom(); hr != 1 {
		t.Fatalf("idle headroom = %v, want 1", hr)
	}
	if !g.Admit() {
		t.Fatal("idle governor refused admission")
	}

	// Mild overload: queue of 4 × 1s demand over a 1s window = 4 units/s
	// against budget 2 → u = 2, cut level 1/2 = 0.5, quality f(0.5) ≈ 0.95
	// ≥ QGE → degraded, still admitting.
	queue = 4
	g.tick(clk.now())
	if s := g.State(); s != StateDegraded {
		t.Fatalf("mild overload state = %v, want degraded", s)
	}
	if !g.Admit() {
		t.Fatal("degraded governor must keep admitting")
	}
	if hr := g.Headroom(); hr != 0 {
		t.Fatalf("overloaded headroom = %v, want 0", hr)
	}

	// Severe overload: queue of 10 → u = 5, 1/u = 0.2 below the Q_GE floor
	// (tau ≈ 0.38) → shedding, admission closed, Retry-After published.
	queue = 10
	clk.advance(100 * time.Millisecond)
	g.tick(clk.now())
	if s := g.State(); s != StateShedding {
		t.Fatalf("severe overload state = %v, want shedding", s)
	}
	if g.Admit() {
		t.Fatal("shedding governor admitted a request")
	}
	if g.Sheds() != 1 {
		t.Fatalf("Sheds() = %d, want 1", g.Sheds())
	}
	ra := g.RetryAfter()
	if ra < time.Second || ra > 30*time.Second {
		t.Fatalf("Retry-After %v outside [1s, 30s] clamp", ra)
	}

	// Recovery: load vanishes, but the ladder steps down only after
	// recoverTicks consecutive calm quanta.
	queue = 0
	for calm := 1; calm < recoverTicks; calm++ {
		clk.advance(100 * time.Millisecond)
		g.tick(clk.now())
		if s := g.State(); s != StateShedding {
			t.Fatalf("state dropped after %d calm ticks: %v (hysteresis broken)", calm, s)
		}
	}
	clk.advance(100 * time.Millisecond)
	g.tick(clk.now())
	if s := g.State(); s != StateOK {
		t.Fatalf("recovered state = %v, want ok", s)
	}
	if !g.Admit() {
		t.Fatal("recovered governor refused admission")
	}
	// Every transition left a decision record.
	if n := sink.count(obs.DecisionModeSwitch); n != 3 {
		t.Fatalf("mode-switch decisions = %d, want 3 (→degraded, →shedding, →ok)", n)
	}
	if n := sink.count(obs.DecisionShed); n != 1 {
		t.Fatalf("shed decisions = %d, want 1", n)
	}
}

// TestCutLowestMarginalFirst: under degraded load, requests past the cut
// level are cancelled via their run contexts, most-progressed (lowest
// f'(c)) first, and Finish reports a partial quality.
func TestCutLowestMarginalFirst(t *testing.T) {
	clk := newTestClock()
	// Two admissions this quantum (EWMA rate 2/s) plus a queue of 2 over a
	// 1s window = 4 units/s against budget 2 → u = 2, cut level 0.5.
	queue := 2
	sink := &recordSink{}
	g := newTestGovernor(t, Config{
		Budget:        2,
		Quantum:       100 * time.Millisecond,
		QGE:           0.9,
		NominalDemand: time.Second,
		RateWindow:    time.Second,
		Decisions:     sink,
	}, clk, &queue)

	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	a := g.Register(1.0, cancelA, obs.SpanContext{}) // will be 60% done: past level
	clk.advance(500 * time.Millisecond)
	b := g.Register(1.0, cancelB, obs.SpanContext{}) // will be 10% done: below level
	clk.advance(100 * time.Millisecond)

	g.tick(clk.now())
	if g.State() != StateDegraded {
		t.Fatalf("state = %v, want degraded", g.State())
	}
	select {
	case <-ctxA.Done():
	default:
		t.Fatal("60-percent-progressed request was not cut")
	}
	select {
	case <-ctxB.Done():
		t.Fatal("10-percent-progressed request was cut below the level")
	default:
	}
	qa, cutA := a.Finish()
	if !cutA {
		t.Fatal("Finish(a) reports uncut after a cut")
	}
	if qa <= 0 || qa >= 1 {
		t.Fatalf("cut quality = %v, want in (0, 1)", qa)
	}
	qb, cutB := b.Finish()
	if cutB || qb != 1 {
		t.Fatalf("uncut Finish = (%v, %v), want (1, false)", qb, cutB)
	}
	if g.Cuts() != 1 {
		t.Fatalf("Cuts() = %d, want 1", g.Cuts())
	}
	if n := sink.count(obs.DecisionCut); n != 1 {
		t.Fatalf("cut decisions = %d, want 1", n)
	}
	cancelA()
	cancelB()
}

// TestBQCompensation: with observed quality below Q_GE the governor skips
// cutting for the quantum — a request past the level survives — and emits
// a compensate decision.
func TestBQCompensation(t *testing.T) {
	clk := newTestClock()
	queue := 4
	sink := &recordSink{}
	g := newTestGovernor(t, Config{
		Budget:        2,
		Quantum:       100 * time.Millisecond,
		QGE:           0.9,
		NominalDemand: time.Second,
		RateWindow:    time.Second,
		Decisions:     sink,
	}, clk, &queue)

	// Observed quality has slipped (as if a burst of deep cuts just
	// drained): the next overloaded quantum must compensate, not cut.
	g.mu.Lock()
	g.qualEWMA = 0.5
	g.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tk := g.Register(1.0, cancel, obs.SpanContext{})
	clk.advance(700 * time.Millisecond) // x = 0.7, far past any cut level

	g.tick(clk.now())
	select {
	case <-ctx.Done():
		t.Fatal("governor cut during BQ compensation")
	default:
	}
	if n := sink.count(obs.DecisionCompensate); n != 1 {
		t.Fatalf("compensate decisions = %d, want 1", n)
	}
	if _, cut := tk.Finish(); cut {
		t.Fatal("ticket marked cut during compensation")
	}
}

// TestAllowanceMetering: the dist-driven budget meter cuts a request that
// outruns its allowance even when the uniform level alone would spare it
// (huge demand → tiny normalized progress).
func TestAllowanceMetering(t *testing.T) {
	clk := newTestClock()
	queue := 0
	g := newTestGovernor(t, Config{
		Budget:        1, // two in-flight requests consume 2 units/s: over budget
		Quantum:       100 * time.Millisecond,
		QGE:           0.9,
		NominalDemand: time.Second,
		RateWindow:    time.Second,
	}, clk, &queue)

	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelA()
	defer cancelB()
	g.Register(100, cancelA, obs.SpanContext{})
	g.Register(100, cancelB, obs.SpanContext{})

	cutSeen := false
	for i := 0; i < 10 && !cutSeen; i++ {
		clk.advance(100 * time.Millisecond)
		g.tick(clk.now())
		select {
		case <-ctxA.Done():
			cutSeen = true
		default:
		}
		select {
		case <-ctxB.Done():
			cutSeen = true
		default:
		}
	}
	if !cutSeen {
		t.Fatal("budget meter never cut despite 2 units/s consumed against a budget of 1")
	}
	if g.Cuts() == 0 {
		t.Fatal("Cuts() = 0 after metered cut")
	}
}

// TestRetryAfterFromDrainRate: the shed hint is backlog over observed
// drain rate, clamped to the configured bounds.
func TestRetryAfterFromDrainRate(t *testing.T) {
	clk := newTestClock()
	queue := 5
	g := newTestGovernor(t, Config{
		Budget:        2,
		Quantum:       100 * time.Millisecond,
		NominalDemand: time.Second,
		RateWindow:    time.Second,
	}, clk, &queue)

	// Three completions in one quantum → drain EWMA = 0.1·(3/0.1s) = 3/s.
	for i := 0; i < 3; i++ {
		tk := g.Register(1.0, func() {}, obs.SpanContext{})
		tk.Finish()
	}
	g.tick(clk.now())
	// (queued+1)/drain = 6/3 = 2s.
	got := g.RetryAfter().Seconds()
	if math.Abs(got-2) > 0.1 {
		t.Fatalf("Retry-After = %vs, want ≈2s from drain rate", got)
	}

	// No drain observed → the hint pins to the max clamp, never zero.
	g2 := newTestGovernor(t, Config{Budget: 2, Quantum: 100 * time.Millisecond}, clk, &queue)
	g2.tick(clk.now())
	if ra := g2.RetryAfter(); ra != 30*time.Second {
		t.Fatalf("zero-drain Retry-After = %v, want the 30s clamp", ra)
	}
}

// TestFinishIdempotent: double Finish returns the first verdict and the
// in-flight set shrinks exactly once.
// inFlight is the number of registered, unfinished tickets.
func inFlight(g *Governor) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.inflight)
}

func TestFinishIdempotent(t *testing.T) {
	clk := newTestClock()
	queue := 0
	g := newTestGovernor(t, Config{Budget: 8}, clk, &queue)
	tk := g.Register(1.0, func() {}, obs.SpanContext{})
	if inFlight(g) != 1 {
		t.Fatalf("InFlight = %d, want 1", inFlight(g))
	}
	q1, c1 := tk.Finish()
	q2, c2 := tk.Finish()
	if q1 != q2 || c1 != c2 {
		t.Fatalf("Finish not idempotent: (%v,%v) then (%v,%v)", q1, c1, q2, c2)
	}
	if inFlight(g) != 0 {
		t.Fatalf("InFlight = %d after double Finish, want 0", inFlight(g))
	}
}

// TestNominalLearning: uncut completions teach the demand estimator.
func TestNominalLearning(t *testing.T) {
	clk := newTestClock()
	queue := 0
	g := newTestGovernor(t, Config{Budget: 8, NominalDemand: time.Second}, clk, &queue)
	for i := 0; i < 20; i++ {
		tk := g.Register(0, func() {}, obs.SpanContext{})
		clk.advance(3 * time.Second)
		tk.Finish()
	}
	g.mu.Lock()
	nominal := g.nominal
	g.mu.Unlock()
	if nominal < 2.5 {
		t.Fatalf("nominal = %vs after twenty 3s completions, want ≥ 2.5s", nominal)
	}
}
