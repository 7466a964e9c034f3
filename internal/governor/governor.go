// Package governor is the live GE overload governor: the paper's
// good-enough machinery — sum-constrained budget metering, marginal-quality
// cutting, BQ compensation, and quality-floor shedding — run as a control
// loop over a real worker pool instead of a simulated core array.
//
// The model: every in-flight request consumes one work-unit per second
// while it runs (a slot of real CPU), and carries a demand — the seconds of
// work a full-quality answer needs. Config.Budget is the sustained
// work-rate the operator grants the pool. Each quantum the governor
// estimates the offered work-rate (admission rate × mean demand, plus the
// backlog drained over the rate window) and compares it to the budget:
//
//   - fits → state ok. Nobody is touched.
//   - over budget, but a uniform cut to fraction τ = capacity/offered of
//     each request's demand still yields batch quality ≥ Q_GE → state
//     degraded. Requests whose progress has reached the cut level are
//     cancelled (the PR-3 context plumbing turns that into a partial
//     Result), lowest marginal quality f'(c) first — exactly the
//     simulator's shed ordering, shared via sched.CompareShed.
//   - even cutting everyone to the Q_GE floor cannot fit → state shedding.
//     Cutting continues at the floor (never below — the good-enough
//     guarantee), and admission closes: new arrivals get 429 with a
//     Retry-After derived from the observed drain rate, the only honest
//     number the server has.
//
// Budget metering reuses internal/dist: per quantum the budget is
// distributed over in-flight consumption demands — equal sharing below the
// critical load, water-filling above (the paper's ES/WF hybrid) — and a
// request that outruns its accumulated allowance is cut even when the
// uniform level alone would spare it. BQ compensation: when the observed
// quality EWMA falls below Q_GE, the governor skips cutting for a quantum
// to rebuild quality, trading latency for fidelity like the paper's BQ
// mode. Every verdict — admit, cut, compensate, shed, state switch — emits
// an obs decision record and, where a parent exists, a span.
//
// The per-quantum tick is allocation-free in steady state (scratch slices,
// fixed-size EWMAs, atomic published state); BenchmarkGovernorTick gates
// that at 0 allocs/op.
package governor

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"goodenough/internal/dist"
	"goodenough/internal/obs"
	"goodenough/internal/quality"
	"goodenough/internal/sched"
)

// State is the brownout ladder position, ordered by severity.
type State int32

const (
	// StateOK: offered load fits the budget; no request is degraded.
	StateOK State = iota
	// StateDegraded: demand is being cut, but quality stays >= Q_GE.
	StateDegraded
	// StateShedding: even Q_GE-floor cutting cannot fit; admission closed.
	StateShedding
)

// String returns the stable wire name (readyz bodies, X-GE-Brownout).
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateDegraded:
		return "degraded"
	case StateShedding:
		return "shedding"
	default:
		return "unknown"
	}
}

// ParseState is the inverse of String; unknown text reports ok=false.
func ParseState(s string) (State, bool) {
	switch s {
	case "ok":
		return StateOK, true
	case "degraded":
		return StateDegraded, true
	case "shedding":
		return StateShedding, true
	}
	return StateOK, false
}

// minRetryAfter floors the drain-rate-derived shed hint, and is the hint
// before the first control tick.
const minRetryAfter = time.Second

// Config parameterizes the governor. Zero values take the defaults noted
// on each field.
type Config struct {
	// Budget is the sustained work-rate granted to the pool, in
	// work-units/sec (one running request consumes one unit/sec). Typical:
	// the worker-slot count. Default 1.
	Budget float64
	// Quantum is the control period. Default 100ms.
	Quantum time.Duration
	// CriticalLoad is the fraction of Budget above which budget metering
	// switches from equal sharing to water-filling (the paper's ES/WF
	// critical-load boundary). Default 0.85.
	CriticalLoad float64
	// QGE is the good-enough batch quality target. Default 0.9.
	QGE float64
	// Concavity is the exponential quality function's C over normalized
	// demand (Xmax = 1): quality of a request served fraction x of its
	// demand is (1-e^{-Cx})/(1-e^{-C}). Default 6.
	Concavity float64
	// NominalDemand seeds the estimate of full-quality seconds of work per
	// request; the governor then learns it from uncut completions.
	// Default 1s.
	NominalDemand time.Duration
	// RateWindow smooths the admission/drain rate estimators and is the
	// horizon over which queued backlog must drain. Default 5s.
	RateWindow time.Duration
	// RecoverTicks is how many consecutive calm quanta must pass before
	// the ladder steps back down (hysteresis). Default 3.
	RecoverTicks int
	// MaxRetryAfter caps the drain-rate-derived shed hint, which never
	// falls below minRetryAfter. Default 30s.
	MaxRetryAfter time.Duration
	// QueueLen probes the admission-queue depth (optional; nil reads 0).
	QueueLen func() int
	// Decisions receives one record per admit/cut/compensate/shed/switch
	// verdict (optional).
	Decisions obs.DecisionSink
	// Spans, when set, emits governor spans parented to request spans.
	Spans *obs.SpanBus
	// Now is the clock, injectable for deterministic tests. Default
	// time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 1
	}
	if c.Quantum <= 0 {
		c.Quantum = 100 * time.Millisecond
	}
	if c.CriticalLoad <= 0 || c.CriticalLoad > 1 {
		c.CriticalLoad = 0.85
	}
	if c.QGE <= 0 || c.QGE >= 1 {
		c.QGE = 0.9
	}
	if c.Concavity <= 0 {
		c.Concavity = 6
	}
	if c.NominalDemand <= 0 {
		c.NominalDemand = time.Second
	}
	if c.RateWindow <= 0 {
		c.RateWindow = 5 * time.Second
	}
	if c.RecoverTicks <= 0 {
		c.RecoverTicks = 3
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Ticket tracks one admitted request from Register to Finish.
type Ticket struct {
	g         *Governor
	id        int
	idx       int // position in g.inflight (swap-delete bookkeeping)
	start     time.Time
	demand    float64 // seconds of full-quality work
	allowance float64 // metered work budget granted so far, seconds
	cancel    context.CancelFunc
	span      obs.SpanContext
	cut       bool
	done      bool
}

// cutCand is tick scratch: a cut victim with its shed-ordering key.
type cutCand struct {
	t        *Ticket
	marginal float64
}

// Governor runs the control loop. Build with New, drive with Start/Stop
// (or tick directly in tests), and wrap every request in Register/Finish.
type Governor struct {
	cfg    Config
	f      *quality.Exponential // over normalized demand, Xmax = 1
	tauQGE float64              // normalized volume where f reaches QGE

	mu           sync.Mutex
	inflight     []*Ticket
	nextID       int
	admits       int     // Register calls since last tick
	finishes     int     // Finish calls since last tick
	lamEWMA      float64 // admissions/sec
	drainEWMA    float64 // completions/sec
	demandEWMA   float64 // mean demand of admitted requests, seconds
	nominal      float64 // learned full-quality seconds per request
	qualEWMA     float64 // observed per-request quality
	cutLevel     float64 // current normalized cut level (1 = no cutting)
	lastLoad     float64 // offered work-rate seen by the last tick
	calm         int     // consecutive ticks below the current state
	compensating bool    // BQ: skipping cuts to rebuild quality

	filler  dist.Filler
	demands []float64
	cands   []cutCand

	state    atomic.Int32
	headroom atomic.Uint64 // Float64bits(1 - utilization, clamped to [0,1])
	retryNS  atomic.Int64  // drain-derived Retry-After, nanoseconds
	cuts     atomic.Int64
	sheds    atomic.Int64
	ticks    atomic.Int64

	stopCh    chan struct{}
	doneCh    chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
}

// New builds a governor. The configuration cannot fail beyond defaulting,
// but the constructor keeps the error slot so future validation does not
// change call sites.
func New(cfg Config) (*Governor, error) {
	cfg = cfg.withDefaults()
	f := quality.NewExponential(cfg.Concavity, 1)
	g := &Governor{
		cfg:        cfg,
		f:          f,
		tauQGE:     f.Inverse(cfg.QGE),
		nominal:    cfg.NominalDemand.Seconds(),
		demandEWMA: cfg.NominalDemand.Seconds(),
		qualEWMA:   1,
		cutLevel:   1,
		stopCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
	}
	g.headroom.Store(math.Float64bits(1))
	g.retryNS.Store(int64(minRetryAfter))
	return g, nil
}

// BindQueue installs the admission-queue probe after construction (the
// server owns the queue but is built after its governor).
func (g *Governor) BindQueue(fn func() int) {
	g.mu.Lock()
	g.cfg.QueueLen = fn
	g.mu.Unlock()
}

// Start launches the control loop at the configured quantum. Idempotent.
func (g *Governor) Start() {
	g.startOnce.Do(func() {
		go func() {
			defer close(g.doneCh)
			tick := time.NewTicker(g.cfg.Quantum)
			defer tick.Stop()
			for {
				select {
				case <-g.stopCh:
					return
				case <-tick.C:
					g.tick(g.cfg.Now())
				}
			}
		}()
	})
}

// Stop halts the control loop and waits for it to exit (so SIGTERM drain
// leaves no goroutine behind). Safe to call multiple times and without
// Start; Register/Finish stay usable after Stop for requests still
// draining — the last published state simply freezes.
func (g *Governor) Stop() {
	g.stopOnce.Do(func() { close(g.stopCh) })
	g.startOnce.Do(func() { close(g.doneCh) }) // never started: nothing to wait for
	<-g.doneCh
}

// State returns the current brownout ladder position.
func (g *Governor) State() State { return State(g.state.Load()) }

// Headroom returns the fraction of budget still unclaimed by offered load,
// clamped to [0, 1]. Replica pickers prefer the largest value.
func (g *Governor) Headroom() float64 {
	return math.Float64frombits(g.headroom.Load())
}

// RetryAfter returns the current drain-rate-derived shed hint: the time
// for the present backlog plus one to drain at the observed completion
// rate, clamped to [minRetryAfter, MaxRetryAfter].
func (g *Governor) RetryAfter() time.Duration {
	return time.Duration(g.retryNS.Load())
}

// Cuts reports how many in-flight requests have been cut since start.
func (g *Governor) Cuts() int64 { return g.cuts.Load() }

// Sheds reports how many admissions have been refused since start.
func (g *Governor) Sheds() int64 { return g.sheds.Load() }

// Admit is the admission verdict: false while the ladder sits at
// shedding. Each refusal emits a shed decision carrying the load and
// capacity the verdict rests on.
func (g *Governor) Admit() bool {
	if State(g.state.Load()) != StateShedding {
		if g.cfg.Decisions != nil {
			g.mu.Lock()
			load := g.lastLoad
			g.mu.Unlock()
			obs.EmitDecision(g.cfg.Decisions, obs.Decision{
				Kind: obs.DecisionAdmit, Machine: -1, Job: -1,
				Load: load, Capacity: g.cfg.Budget, Budget: g.cfg.Budget,
				Action: "admit"})
		}
		return true
	}
	g.sheds.Add(1)
	if g.cfg.Decisions != nil {
		g.mu.Lock()
		load := g.lastLoad
		g.mu.Unlock()
		obs.EmitDecision(g.cfg.Decisions, obs.Decision{
			Kind: obs.DecisionShed, Machine: -1, Job: -1,
			Load: load, Capacity: g.cfg.Budget, Budget: g.cfg.Budget,
			Action: "brownout"})
	}
	return false
}

// Register enrolls an admitted request. demand is the full-quality work
// estimate in seconds (<= 0 uses the learned nominal); cancel is the
// request's run-context cancel, which a cut invokes to produce a partial
// Result. span, when non-zero, parents the cut span for this request.
func (g *Governor) Register(demand float64, cancel context.CancelFunc, span obs.SpanContext) *Ticket {
	g.mu.Lock()
	defer g.mu.Unlock()
	if demand <= 0 {
		demand = g.nominal
	}
	const alpha = 0.1
	g.demandEWMA += alpha * (demand - g.demandEWMA)
	t := &Ticket{
		g:      g,
		id:     g.nextID,
		idx:    len(g.inflight),
		start:  g.cfg.Now(),
		demand: demand,
		// One quantum of grace so a request admitted between ticks is
		// never cut before the metering has seen it once.
		allowance: g.cfg.Quantum.Seconds(),
		cancel:    cancel,
		span:      span,
	}
	g.nextID++
	g.admits++
	g.inflight = append(g.inflight, t)
	return t
}

// Finish settles a ticket: removes it from the in-flight set, feeds the
// quality and drain estimators, and returns the request's achieved quality
// (1 for an uncut natural completion, f(progress) for a cut one) plus
// whether it was cut. Idempotent; later calls return the first verdict.
func (t *Ticket) Finish() (q float64, cut bool) {
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if t.done {
		return t.quality(g.cfg.Now()), t.cut
	}
	t.done = true
	g.finishes++
	// Swap-delete from the in-flight set.
	last := len(g.inflight) - 1
	g.inflight[t.idx] = g.inflight[last]
	g.inflight[t.idx].idx = t.idx
	g.inflight[last] = nil
	g.inflight = g.inflight[:last]

	now := g.cfg.Now()
	q = t.quality(now)
	const qAlpha = 0.2
	g.qualEWMA += qAlpha * (q - g.qualEWMA)
	if !t.cut {
		// Natural completions teach the nominal-demand estimator what a
		// full-quality request actually costs.
		elapsed := now.Sub(t.start).Seconds()
		const nAlpha = 0.3
		g.nominal += nAlpha * (elapsed - g.nominal)
		if g.nominal < 1e-3 {
			g.nominal = 1e-3
		} else if g.nominal > 600 {
			g.nominal = 600
		}
	}
	return q, t.cut
}

// quality computes the achieved quality of the ticket at time now. Uncut
// requests completed on their own terms: quality 1 by definition. Cut
// requests score f(progress/demand) — the paper's per-job quality of a
// demand served only partially.
func (t *Ticket) quality(now time.Time) float64 {
	if !t.cut {
		return 1
	}
	x := now.Sub(t.start).Seconds() / t.demand
	if x >= 1 {
		return 1
	}
	return t.g.f.Value(x)
}

// tick is the per-quantum control step. Allocation-free in steady state:
// scratch slices are governor-owned, decisions and spans are flat values,
// and published state goes through atomics.
func (g *Governor) tick(now time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ticks.Add(1)
	cfg := &g.cfg
	h := cfg.Quantum.Seconds()
	window := cfg.RateWindow.Seconds()
	beta := h / window
	if beta > 1 {
		beta = 1
	}
	g.lamEWMA += beta * (float64(g.admits)/h - g.lamEWMA)
	g.drainEWMA += beta * (float64(g.finishes)/h - g.drainEWMA)
	g.admits, g.finishes = 0, 0

	queued := 0
	if cfg.QueueLen != nil {
		queued = cfg.QueueLen()
	}
	pbar := g.demandEWMA
	if pbar < 1e-3 {
		pbar = 1e-3
	}
	// Offered work-rate: the sustained admission stream plus the backlog
	// amortized over the rate window. The instantaneous consumption of the
	// in-flight set (one unit/sec each) is a floor — n running requests
	// spend n units/sec right now regardless of what arrives next.
	load := g.lamEWMA*pbar + float64(queued)*pbar/window
	if n := float64(len(g.inflight)); n > load {
		load = n
	}
	g.lastLoad = load
	u := load / cfg.Budget
	heavy := load >= cfg.CriticalLoad*cfg.Budget

	// Plan the cut level and raw ladder position for this quantum.
	raw, level := planLevel(u, g.tauQGE)

	// BQ compensation: observed quality has slipped below the target, so
	// skip cutting for this quantum and let in-flight work run to rebuild
	// it — the paper's BQ mode trading throughput for fidelity. Admission
	// still closes if the raw state says shedding.
	if raw != StateOK && g.qualEWMA < cfg.QGE {
		level = 1
		if !g.compensating {
			g.compensating = true
			g.emitState(now, obs.DecisionCompensate, "compensate", load, u)
		}
	} else if g.compensating {
		g.compensating = false
	}
	g.cutLevel = level

	// Ladder with hysteresis: escalate immediately, recover only after
	// RecoverTicks consecutive calmer quanta.
	cur := State(g.state.Load())
	switch {
	case raw > cur:
		cur, g.calm = raw, 0
		g.state.Store(int32(cur))
		g.emitState(now, obs.DecisionModeSwitch, cur.String(), load, u)
	case raw < cur:
		g.calm++
		if g.calm >= cfg.RecoverTicks {
			cur, g.calm = raw, 0
			g.state.Store(int32(cur))
			g.emitState(now, obs.DecisionModeSwitch, cur.String(), load, u)
		}
	default:
		g.calm = 0
	}

	// Budget metering over the in-flight set: distribute the budget across
	// per-request consumption demands — ES under light load, WF above the
	// critical boundary — and advance each ticket's allowance. A request
	// past the uniform cut level, or past its metered allowance, is cut.
	g.demands = g.demands[:0]
	for _, t := range g.inflight {
		d := 1.0
		if x := now.Sub(t.start).Seconds() / t.demand; x >= 1 {
			d = 0 // saturated: wants nothing more
		}
		g.demands = append(g.demands, d)
	}
	alloc := g.filler.Distribute(dist.PolicyHybrid, cfg.Budget, g.demands, heavy)
	g.cands = g.cands[:0]
	for i, t := range g.inflight {
		if t.cut {
			continue
		}
		elapsed := now.Sub(t.start).Seconds()
		if g.compensating {
			// Compensation suspends both cut mechanisms; the allowance
			// catches up to actual progress so the quantum of grace does
			// not turn into a burst of instant cuts when it ends.
			if t.allowance < elapsed {
				t.allowance = elapsed
			}
			t.allowance += alloc[i] * h
			continue
		}
		t.allowance += alloc[i] * h
		x := elapsed / t.demand
		if elapsed >= t.allowance || (level < 1 && x >= level) {
			g.cands = append(g.cands, cutCand{t: t, marginal: g.f.Marginal(x)})
		}
	}
	// Cut lowest marginal quality first — the simulator's shed order —
	// so the decision stream records victims cheapest-first.
	slices.SortStableFunc(g.cands, func(a, b cutCand) int {
		return sched.CompareShed(a.marginal, a.t.id, b.marginal, b.t.id)
	})
	for _, c := range g.cands {
		t := c.t
		t.cut = true
		g.cuts.Add(1)
		if t.cancel != nil {
			t.cancel()
		}
		obs.EmitDecision(cfg.Decisions, obs.Decision{
			Kind: obs.DecisionCut, Machine: -1, Job: t.id,
			Load: load, Capacity: cfg.Budget, Marginal: c.marginal,
			Budget: cfg.Budget, Score: level, Alts: len(g.cands),
			Action: "cut"})
		if cfg.Spans != nil {
			s := cfg.Spans.Start("governor.cut", obs.SpanSched, t.span)
			s.SetValue(now.Sub(t.start).Seconds() / t.demand)
			s.SetNote(cur.String())
			cfg.Spans.Finish(s)
		}
	}

	// Publish the shed hint and headroom.
	retry := cfg.MaxRetryAfter
	if g.drainEWMA > 1e-9 {
		retry = time.Duration(float64(queued+1) / g.drainEWMA * float64(time.Second))
	}
	if retry < minRetryAfter {
		retry = minRetryAfter
	}
	if retry > cfg.MaxRetryAfter {
		retry = cfg.MaxRetryAfter
	}
	g.retryNS.Store(int64(retry))
	hr := 1 - u
	if hr < 0 {
		hr = 0
	} else if hr > 1 {
		hr = 1
	}
	g.headroom.Store(math.Float64bits(hr))
}

// planLevel maps utilization to the raw ladder position and the normalized
// cut level for the quantum: no cutting when load fits, a proportional cut
// while it keeps batch quality at or above the Q_GE floor, and the floor
// itself (plus closed admission) beyond that. Quality is monotone in
// budget by construction — level = clamp(1/u, tauQGE, 1) — which the fuzz
// harness checks against the full tick pipeline.
func planLevel(u, tauQGE float64) (State, float64) {
	if math.IsNaN(u) || u <= 1 {
		return StateOK, 1
	}
	tb := 1 / u
	if tb >= tauQGE {
		return StateDegraded, tb
	}
	return StateShedding, tauQGE
}

// emitState records a ladder or compensation transition.
func (g *Governor) emitState(now time.Time, kind obs.DecisionKind, action string, load, u float64) {
	obs.EmitDecision(g.cfg.Decisions, obs.Decision{
		Kind: kind, Machine: -1, Job: -1,
		Load: load, Capacity: g.cfg.Budget, Budget: g.cfg.Budget,
		Score: u, Alts: len(g.inflight), Action: action})
	if g.cfg.Spans != nil {
		s := g.cfg.Spans.Start("governor."+action, obs.SpanSched, obs.SpanContext{})
		s.SetValue(u)
		s.SetNote(action)
		g.cfg.Spans.Finish(s)
	}
}
