// Package gateway is the resilient replica front tier for geserve fleets:
// an HTTP gateway that load-balances /v1/run, /v1/trace, and /v1/sweep
// across a pool of replicas and keeps answering when individual replicas
// stall or die.
//
// Per replica it runs a state machine driven by two signal paths:
//
//   - active probes: a background loop GETs each replica's /readyz on a
//     fixed interval; failures mark the replica not-ready so the picker
//     avoids it before a single client request has to pay for discovery;
//   - passive signals: every proxied response updates the replica's state —
//     5xx, connection errors, and timeouts feed its circuit breaker;
//     429 + Retry-After parks it in a cooldown (overloaded, not sick);
//     X-GE-Queue-Depth becomes the picker's load tiebreak.
//
// The circuit breaker is the classic closed → open → half-open automaton
// with single-probe admission in half-open. Hedged requests cover the
// latency tail: when the primary attempt has been in flight longer than a
// quantile of recent upstream latencies (clamped to [HedgeMinDelay,
// HedgeMaxDelay]), one duplicate attempt is sent to a different replica;
// the first response wins and the loser's context is cancelled, which the
// replica's PR-3 plumbing turns into an abandoned partial run within
// microseconds. A global retry budget (token bucket refilled by client
// traffic) bounds retries + hedges so they cannot amplify a pool-wide
// outage into a self-inflicted storm.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"goodenough/internal/obs"
)

// Config parameterizes the gateway. Zero values get defaults; only
// Replicas is required.
type Config struct {
	// Replicas are the geserve base URLs to balance across (required).
	Replicas []string
	// ProbeInterval is the active /readyz probe period (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe (default 2s).
	ProbeTimeout time.Duration
	// BreakerFailures is the consecutive-failure count that opens a
	// replica's breaker (default 3).
	BreakerFailures int
	// BreakerOpenFor is how long an open breaker refuses traffic before
	// admitting a half-open trial (default 2s).
	BreakerOpenFor time.Duration
	// RejoinRampSteps is the number of reduced-weight steps a recovered
	// replica climbs before taking full traffic again (default 3: weights
	// 1/8, 1/4, 1/2 with concurrent-in-flight caps 1, 2, 4, then full).
	// The breaker's half-open state admits one probe; this extends that
	// into a multi-step ramp so a replica restarted under overload is not
	// instantly handed a full share of a thundering herd.
	RejoinRampSteps int
	// RejoinRampStep is how long each slow-start step lasts (default 500ms).
	RejoinRampStep time.Duration
	// DisableHedging turns tail-latency hedging off (for A/B runs).
	DisableHedging bool
	// QualityAware makes the picker sort replicas by their governor
	// signals first — brownout ladder position ascending, then budget
	// headroom descending — before the in-flight/queue-depth load order.
	// With ungoverned replicas (no X-GE-Brownout headers) every replica
	// reports ok/full-headroom and the ordering degenerates to the
	// classic one, so the flag is safe to leave on in mixed pools.
	QualityAware bool
	// HedgeQuantile is the latency quantile that sets the hedge delay
	// (default 0.95).
	HedgeQuantile float64
	// HedgeMinDelay floors the hedge delay and is used while the latency
	// tracker warms up (default 50ms).
	HedgeMinDelay time.Duration
	// HedgeMaxDelay caps the hedge delay (default 2s).
	HedgeMaxDelay time.Duration
	// MaxAttempts caps upstream attempts per client request, hedges
	// included (default 3).
	MaxAttempts int
	// RetryBudgetRatio is the retry/hedge tokens earned per client request
	// (default 0.2 — extra attempts bounded at 20% of traffic).
	RetryBudgetRatio float64
	// RetryBudgetBurst is the bucket cap and initial fill (default 16).
	RetryBudgetBurst float64
	// RequestTimeout bounds one whole client request through the gateway,
	// all attempts included (default 90s).
	RequestTimeout time.Duration
	// Transport overrides the upstream round tripper (tests).
	Transport http.RoundTripper
	// Spans, when non-nil, traces every proxied request: the client's
	// X-GE-Trace-Id / X-GE-Span-Id headers are joined (or a fresh trace
	// rooted), each upstream attempt becomes a sibling span annotated
	// won/lost, and the trace context is forwarded to the replica. Nil
	// disables tracing at zero hot-path cost.
	Spans *obs.SpanBus
	// Logf, when set, receives one line per noteworthy transition
	// (breaker flips, probe state changes).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerOpenFor <= 0 {
		c.BreakerOpenFor = 2 * time.Second
	}
	if c.RejoinRampSteps <= 0 {
		c.RejoinRampSteps = 3
	}
	if c.RejoinRampStep <= 0 {
		c.RejoinRampStep = 500 * time.Millisecond
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = 50 * time.Millisecond
	}
	if c.HedgeMaxDelay <= 0 {
		c.HedgeMaxDelay = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBudgetRatio <= 0 {
		c.RetryBudgetRatio = 0.2
	}
	if c.RetryBudgetBurst <= 0 {
		c.RetryBudgetBurst = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 90 * time.Second
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Gateway fronts a pool of geserve replicas. Create with New, start the
// probe loops with Start, serve Handler, stop with Close.
type Gateway struct {
	cfg      Config
	replicas []*replica
	mux      *http.ServeMux
	client   *http.Client
	metrics  *obs.SyncRegistry
	spans    *obs.SpanBus
	sampler  *obs.Sampler
	budget   *budget
	hedge    *delayTracker

	rr      atomic.Uint64 // round-robin tiebreak cursor
	scratch sync.Pool     // *pickScratch, reused across serveProxy calls

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeWG     sync.WaitGroup
	startOnce   sync.Once

	started time.Time
}

// errorBody mirrors the replica-side JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

const (
	// maxRelayBytes caps how much of an upstream response body the gateway
	// will buffer and relay. Responses over the cap fail the attempt rather
	// than being silently truncated.
	maxRelayBytes = 64 << 20
	// cooldownCap clamps the Retry-After hint a shedding replica sends:
	// the gateway parks the replica for at most this long.
	cooldownCap = 15 * time.Second
	// sampleInterval is the /timeseriez sampling period.
	sampleInterval = time.Second
	// retryAfter is the hint attached when the gateway itself sheds (no
	// eligible replica), and caps how long a replica answering 503 is
	// parked.
	retryAfter = time.Second
	// maxBodyBytes caps client request bodies.
	maxBodyBytes = 8 << 20
)

// latencyBounds are the request-latency histogram buckets in seconds.
var latencyBounds = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// rejoinBounds bucket replica recovery times (down → back in the pool) in
// seconds: sub-second for in-process restarts through minutes for a crash
// loop fighting its backoff.
var rejoinBounds = []float64{
	0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60, 120, 300,
}

// New builds a Gateway over the configured replica pool.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("gateway: at least one replica URL is required")
	}
	m := obs.NewSyncRegistry()
	probeCtx, probeCancel := context.WithCancel(context.Background())
	g := &Gateway{
		cfg:         cfg,
		client:      &http.Client{Transport: cfg.Transport},
		metrics:     m,
		spans:       cfg.Spans,
		budget:      newBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetBurst),
		hedge:       newDelayTracker(cfg.HedgeQuantile, cfg.HedgeMinDelay, cfg.HedgeMaxDelay, 128),
		probeCtx:    probeCtx,
		probeCancel: probeCancel,
		started:     time.Now(),
	}
	for i, base := range cfg.Replicas {
		i := i
		rep, err := newReplica(i, base, cfg.BreakerFailures, cfg.BreakerOpenFor,
			cfg.RejoinRampSteps, cfg.RejoinRampStep,
			func(from, to breakerState) { g.onBreakerTransition(i, from, to) })
		if err != nil {
			probeCancel()
			return nil, err
		}
		g.replicas = append(g.replicas, rep)
	}
	g.scratch.New = func() any {
		return &pickScratch{tried: make([]bool, len(g.replicas))}
	}

	counters := []string{
		"gw_requests_total", "gw_ok_total", "gw_err_total", "gw_no_replica_total",
		"hedges_fired_total", "hedges_won_total",
		"retries_total", "retry_budget_exhausted_total",
		"breaker_open_total", "breaker_halfopen_total", "breaker_close_total",
		"probe_fail_total", "refused_total",
		"slowstart_enter_total", "slowstart_done_total",
	}
	gauges := []string{"retry_budget_tokens", "hedge_delay_seconds"}
	for _, r := range g.replicas {
		counters = append(counters, r.name+"_attempts_total", r.name+"_errs_total")
		gauges = append(gauges, r.name+"_inflight", r.name+"_probe_ok")
		m.GaugeSet(r.name+"_probe_ok", 1)
	}
	m.Preset(counters, gauges)
	if err := m.NewHistogram("gw_request_seconds", latencyBounds); err != nil {
		panic(err) // static bounds
	}
	if err := m.NewHistogram("upstream_seconds", latencyBounds); err != nil {
		panic(err)
	}
	if err := m.NewHistogram("rejoin_seconds", rejoinBounds); err != nil {
		panic(err)
	}

	// Live telemetry: sampler callbacks read the registry, never the
	// request path.
	g.sampler = obs.NewSampler(sampleInterval, 300)
	for _, name := range []string{
		"gw_requests_total", "gw_ok_total", "gw_err_total",
		"hedges_fired_total", "hedges_won_total", "retries_total",
	} {
		name := name
		g.sampler.Track(name, func() float64 { return float64(m.CounterValue(name)) })
	}
	for _, name := range []string{"retry_budget_tokens", "hedge_delay_seconds"} {
		name := name
		g.sampler.Track(name, func() float64 { return m.GaugeValue(name) })
	}
	for _, r := range g.replicas {
		r := r
		g.sampler.Track(r.name+"_inflight", func() float64 { return float64(r.inflight.Load()) })
	}
	g.sampler.Start()

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("GET /metricz", g.handleMetricz)
	g.mux.HandleFunc("GET /replicaz", g.handleReplicaz)
	g.mux.HandleFunc("GET /timeseriez", g.handleTimeseriez)
	for _, path := range []string{"/v1/run", "/v1/trace", "/v1/sweep"} {
		path := path
		g.mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
			g.serveProxy(w, r, path)
		})
	}
	return g, nil
}

// onBreakerTransition feeds breaker flips into metrics, the log, and the
// replica's outage clock: open starts an outage, closed (the half-open
// trial succeeded) ends it and begins the rejoin slow-start ramp.
func (g *Gateway) onBreakerTransition(idx int, from, to breakerState) {
	switch to {
	case breakerOpen:
		g.metrics.Inc("breaker_open_total")
		g.replicas[idx].markDown(time.Now())
	case breakerHalfOpen:
		g.metrics.Inc("breaker_halfopen_total")
	case breakerClosed:
		g.metrics.Inc("breaker_close_total")
		g.noteRejoin(g.replicas[idx])
	}
	g.cfg.Logf("gegate: replica%d breaker %s -> %s", idx, from, to)
}

// noteRejoin records the end of a replica outage exactly once: the
// recovery-time histogram sample, the slow-start event, and the log line.
func (g *Gateway) noteRejoin(rep *replica) {
	down, ok := rep.rejoin(time.Now())
	if !ok {
		return
	}
	g.metrics.Observe("rejoin_seconds", down.Seconds())
	g.metrics.Inc("slowstart_enter_total")
	g.cfg.Logf("gegate: %s rejoined after %s down; slow-start ramp begins",
		rep.name, down.Round(time.Millisecond))
}

// Start launches the active health-probe loops; idempotent.
func (g *Gateway) Start() {
	g.startOnce.Do(func() {
		for _, rep := range g.replicas {
			rep := rep
			g.probeWG.Add(1)
			go func() {
				defer g.probeWG.Done()
				ticker := time.NewTicker(g.cfg.ProbeInterval)
				defer ticker.Stop()
				for {
					ok := rep.probe(g.probeCtx, g.client, g.cfg.ProbeTimeout)
					was := rep.probeOK.Swap(ok)
					if ok != was {
						g.cfg.Logf("gegate: %s probe %v -> %v", rep.name, was, ok)
						if ok {
							// The process answered readyz again: a restarted
							// replica rejoins through slow-start even before
							// its breaker walks half-open -> closed.
							g.noteRejoin(rep)
						} else {
							rep.markDown(time.Now())
						}
					}
					if ok {
						g.metrics.GaugeSet(rep.name+"_probe_ok", 1)
					} else {
						g.metrics.GaugeSet(rep.name+"_probe_ok", 0)
						g.metrics.Inc("probe_fail_total")
					}
					select {
					case <-g.probeCtx.Done():
						return
					case <-ticker.C:
					}
				}
			}()
		}
	})
}

// Close stops the probe loops and waits for them. In-flight proxied
// requests are governed by their own contexts (and http.Server.Shutdown at
// the binary level), not by Close.
func (g *Gateway) Close() {
	g.probeCancel()
	g.probeWG.Wait()
	g.sampler.Stop()
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Metrics exposes the gateway registry (tests, replicaz).
func (g *Gateway) Metrics() *obs.SyncRegistry { return g.metrics }

// pickCand is one pick candidate with its slow-start weight captured at
// partition time, so the sort sees a consistent snapshot.
type pickCand struct {
	rep    *replica
	weight float64
}

// pickOrder sorts candidates by (governor signals if quality-aware,
// weight-scaled in-flight, reported queue depth, rotating round-robin).
// It lives inside pickScratch and is fed through sort.Stable via a pointer,
// so ordering allocates nothing.
type pickOrder struct {
	cands   []pickCand
	offset  uint64
	n       uint64
	quality bool
}

func (o *pickOrder) Len() int      { return len(o.cands) }
func (o *pickOrder) Swap(i, j int) { o.cands[i], o.cands[j] = o.cands[j], o.cands[i] }
func (o *pickOrder) Less(i, j int) bool {
	a, b := o.cands[i], o.cands[j]
	ia, ib := a.rep, b.rep
	if o.quality {
		// Governor signals outrank raw load: an ok replica beats a
		// degraded one regardless of in-flight counts, and among
		// equals the one with the most unclaimed budget wins.
		if ba, bb := ia.brownout.Load(), ib.brownout.Load(); ba != bb {
			return ba < bb
		}
		if ha, hb := ia.headroomFrac(), ib.headroomFrac(); ha != hb {
			return ha > hb
		}
	}
	// In-flight counts are scaled by the slow-start weight (compared
	// cross-multiplied to stay in one branch): a replica ramping at 1/4
	// weight looks 4x as loaded, so it receives a proportional trickle
	// instead of an equal share. At full weight this is the plain
	// least-inflight order.
	fa := float64(ia.inflight.Load()) * b.weight
	fb := float64(ib.inflight.Load()) * a.weight
	if fa != fb {
		return fa < fb
	}
	if qa, qb := ia.queueDepth.Load(), ib.queueDepth.Load(); qa != qb {
		return qa < qb
	}
	return (uint64(ia.idx)+o.n-o.offset%o.n)%o.n < (uint64(ib.idx)+o.n-o.offset%o.n)%o.n
}

// pickScratch is the reusable per-request state of the pick path: the
// tried set and the candidate partitions. Pooled on Gateway.scratch so the
// pick path performs no allocations.
type pickScratch struct {
	tried      []bool
	pref, desp []pickCand
	order      pickOrder
}

func (sc *pickScratch) reset() {
	for i := range sc.tried {
		sc.tried[i] = false
	}
}

// pick chooses the next replica for an attempt, preferring actively
// healthy, non-cooling replicas with slow-start headroom, ordered by
// (weight-scaled in-flight, reported queue depth) with a rotating
// tiebreak; a desperation pass ignores probe, cooldown, and ramp caps so a
// pool that looks entirely unhealthy still gets a last try. Breaker
// admission is checked per candidate because Allow has half-open side
// effects. Returns nil when every untried replica's breaker refuses.
func (g *Gateway) pick(sc *pickScratch) *replica {
	now := time.Now()
	offset := g.rr.Add(1) - 1

	sc.pref, sc.desp = sc.pref[:0], sc.desp[:0]
	for _, rep := range g.replicas {
		if sc.tried[rep.idx] {
			continue
		}
		w, limit, done := rep.slowStart(now)
		if done {
			g.metrics.Inc("slowstart_done_total")
			g.cfg.Logf("gegate: %s slow-start ramp complete, back at full weight", rep.name)
		}
		// The ramp cap is a hard bound in the preferred pass: step k admits
		// at most 2^k concurrent requests, so a freshly-restarted replica
		// cannot be handed the whole herd no matter how empty it looks.
		if rep.eligible(now) && rep.inflight.Load() < limit {
			sc.pref = append(sc.pref, pickCand{rep, w})
		} else {
			sc.desp = append(sc.desp, pickCand{rep, w})
		}
	}

	sc.order.offset = offset
	sc.order.n = uint64(len(g.replicas))
	sc.order.quality = g.cfg.QualityAware
	for _, pass := range [2][]pickCand{sc.pref, sc.desp} {
		sc.order.cands = pass
		sort.Stable(&sc.order)
		for _, c := range sc.order.cands {
			if c.rep.br.Allow() {
				return c.rep
			}
		}
	}
	return nil
}

// attemptResult is the outcome of one upstream attempt.
type attemptResult struct {
	rep     *replica
	span    *obs.Span // nil when tracing is off
	hedged  bool
	status  int         // 0 on transport error
	header  http.Header // nil on transport error
	body    []byte
	err     error
	latency time.Duration
}

// retryable reports whether the attempt indicts the replica or the moment,
// making another replica worth trying: transport errors, timeouts, 5xx,
// and 429 shedding. 2xx and other 4xx pass through to the client.
func (a attemptResult) retryable() bool {
	if a.err != nil {
		return true
	}
	return a.status >= 500 || a.status == http.StatusTooManyRequests
}

// selfInflicted reports whether an attempt error was caused by the gateway
// cancelling the attempt itself (hedge loser, client disconnect, request
// deadline) rather than by the replica. Such errors must not feed the
// breaker: a healthy-but-slower replica that keeps losing hedge races would
// otherwise accumulate spurious strikes until its breaker opened.
func (g *Gateway) selfInflicted(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, context.Canceled)
}

// doAttempt executes one upstream POST and classifies the outcome, feeding
// the replica's breaker and passive signals. The attempt span sp (nil when
// tracing is off) has its context forwarded to the replica and rides the
// result; the caller finishes it once the attempt's fate is known. With
// tracing off, the client's own trace context (if any) is forwarded
// verbatim instead, so request identity survives the hop — the crash drill
// reconciles client acks against replica journals by trace ID.
func (g *Gateway) doAttempt(ctx context.Context, rep *replica, path string, body []byte, hedged bool, sp *obs.Span, clientCtx obs.SpanContext) attemptResult {
	g.metrics.Inc(rep.name + "_attempts_total")
	n := rep.inflight.Add(1)
	g.metrics.GaugeSet(rep.name+"_inflight", float64(n))
	defer func() {
		g.metrics.GaugeSet(rep.name+"_inflight", float64(rep.inflight.Add(-1)))
	}()

	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.base+path, bytes.NewReader(body))
	if err != nil {
		return attemptResult{rep: rep, span: sp, hedged: hedged, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if sp != nil {
		sp.Context().Inject(req.Header)
	} else {
		clientCtx.Inject(req.Header)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		if g.selfInflicted(ctx, err) {
			// A hedge loser's cancel or a client disconnect, not a replica
			// verdict: no breaker strike, no error metric, but release any
			// half-open trial slot this attempt was holding.
			rep.br.Neutral()
			return attemptResult{rep: rep, span: sp, hedged: hedged, err: err, latency: time.Since(start)}
		}
		if errors.Is(err, syscall.ECONNREFUSED) {
			// Connection refused is an unambiguous down-signal — the process
			// is gone, not slow. Trip the breaker and drop the probe verdict
			// immediately so a killed replica leaves the pick order within
			// one request instead of waiting out two more strikes and the
			// next probe interval.
			g.metrics.Inc("refused_total")
			g.metrics.Inc(rep.name + "_errs_total")
			rep.br.Trip() // opening the breaker marks the outage start
			if rep.probeOK.Swap(false) {
				g.metrics.GaugeSet(rep.name+"_probe_ok", 0)
				g.cfg.Logf("gegate: %s connection refused; marked down", rep.name)
			}
			return attemptResult{rep: rep, span: sp, hedged: hedged, err: err, latency: time.Since(start)}
		}
		rep.br.Failure()
		g.metrics.Inc(rep.name + "_errs_total")
		g.cfg.Logf("gegate: %s attempt: %v", rep.name, err)
		return attemptResult{rep: rep, span: sp, hedged: hedged, err: err, latency: time.Since(start)}
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes+1))
	if err != nil {
		if g.selfInflicted(ctx, err) {
			rep.br.Neutral()
			return attemptResult{rep: rep, span: sp, hedged: hedged, err: err, latency: time.Since(start)}
		}
		rep.br.Failure()
		g.metrics.Inc(rep.name + "_errs_total")
		return attemptResult{rep: rep, span: sp, hedged: hedged, err: err, latency: time.Since(start)}
	}
	if int64(len(respBody)) > maxRelayBytes {
		// The replica answered but the body exceeds what the gateway will
		// buffer; relaying a truncated body with the original status would
		// corrupt the response, so fail the attempt instead. The replica
		// isn't sick — no breaker strike — but any half-open trial resolves.
		rep.br.Neutral()
		g.metrics.Inc(rep.name + "_errs_total")
		g.cfg.Logf("gegate: %s response exceeds %d-byte relay cap", rep.name, int64(maxRelayBytes))
		return attemptResult{
			rep: rep, span: sp, hedged: hedged,
			err:     fmt.Errorf("%s response exceeds %d-byte relay cap", rep.name, int64(maxRelayBytes)),
			latency: time.Since(start),
		}
	}
	res := attemptResult{
		rep: rep, span: sp, hedged: hedged,
		status: resp.StatusCode, header: resp.Header, body: respBody,
		latency: time.Since(start),
	}
	rep.notePassive(resp.Header)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		// Overloaded, not sick: cooldown instead of a breaker strike. Still
		// resolve any half-open trial, or the probing flag would stay set and
		// Allow would refuse this replica forever.
		rep.br.Neutral()
		rep.setCooldown(resp.Header.Get("Retry-After"), time.Now(), cooldownCap)
	case resp.StatusCode >= 500:
		rep.br.Failure()
		g.metrics.Inc(rep.name + "_errs_total")
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining replicas also send no Retry-After; park briefly so
			// the picker stops hammering them while probes catch up.
			rep.setCooldown(resp.Header.Get("Retry-After"), time.Now(), retryAfter)
		}
	default:
		rep.br.Success()
		g.hedge.observe(res.latency)
		g.metrics.Observe("upstream_seconds", res.latency.Seconds())
	}
	return res
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// shedNoReplica answers a request the gateway cannot place anywhere.
func (g *Gateway) shedNoReplica(w http.ResponseWriter) {
	g.metrics.Inc("gw_no_replica_total")
	g.metrics.Inc("gw_err_total")
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no healthy replica"})
}

// relay writes the winning attempt to the client with attribution headers.
func (g *Gateway) relay(w http.ResponseWriter, res attemptResult, attempts int) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	for _, h := range []string{
		"Retry-After", "X-GE-Inflight", "X-GE-Queue-Depth",
		"X-GE-Brownout", "X-GE-Headroom", "X-GE-Quality",
	} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-GE-Replica", res.rep.name)
	w.Header().Set("X-GE-Attempts", strconv.Itoa(attempts))
	if res.hedged {
		w.Header().Set("X-GE-Hedged", "1")
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// finishAttempt annotates and finishes one attempt span once its fate is
// known: won means the client received this attempt's response. Nil-safe.
func (g *Gateway) finishAttempt(res attemptResult, won bool) {
	if res.span == nil {
		return
	}
	res.span.SetValue(res.latency.Seconds())
	res.span.SetAux(float64(res.status))
	switch {
	case won:
		res.span.SetNote("won")
	case res.err != nil && !errors.Is(res.err, context.Canceled):
		res.span.SetNote("error")
	default:
		// Includes hedge losers whose attempt we cancelled ourselves.
		res.span.SetNote("lost")
	}
	g.spans.Finish(res.span)
}

// serveProxy is the heart of the gateway: admit, pick, attempt, hedge,
// retry within budget, relay the first terminal answer.
func (g *Gateway) serveProxy(w http.ResponseWriter, r *http.Request, path string) {
	g.metrics.Inc("gw_requests_total")
	g.budget.deposit()
	g.metrics.GaugeSet("retry_budget_tokens", g.budget.level())

	// Tracing: join the client's trace (or root a fresh one), echo the IDs,
	// and hang one child span off this request per upstream attempt.
	clientCtx := obs.ParseSpanContext(r.Header)
	span := g.spans.Start(path, obs.SpanGateway, clientCtx)
	span.Context().Inject(w.Header())
	defer g.spans.Finish(span)

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		g.metrics.Inc("gw_err_total")
		span.SetNote("error")
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading body: %v", err)})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()

	start := time.Now()
	results := make(chan attemptResult, g.cfg.MaxAttempts)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	sc := g.scratch.Get().(*pickScratch)
	sc.reset()
	defer g.scratch.Put(sc)
	launched, consumed := 0, 0
	// Every launched attempt writes exactly one buffered result. Whatever
	// serveProxy has not consumed when it returns is drained off-path so
	// loser spans still finish (and return to the pool).
	defer func() {
		if n := launched - consumed; n > 0 {
			go func() {
				for i := 0; i < n; i++ {
					g.finishAttempt(<-results, false)
				}
			}()
		}
	}()

	// launch starts one attempt on a not-yet-tried replica; false when no
	// replica's breaker admits or the attempt cap is reached.
	launch := func(hedged bool) bool {
		if launched >= g.cfg.MaxAttempts {
			return false
		}
		rep := g.pick(sc)
		if rep == nil {
			return false
		}
		sc.tried[rep.idx] = true
		launched++
		asp := g.spans.Start("attempt."+rep.name, obs.SpanAttempt, span.Context())
		asp.SetFlag(hedged)
		actx, acancel := context.WithCancel(ctx)
		cancels = append(cancels, acancel)
		go func() {
			results <- g.doAttempt(actx, rep, path, body, hedged, asp, clientCtx)
		}()
		return true
	}

	if !launch(false) {
		span.SetNote("no-replica")
		g.shedNoReplica(w)
		return
	}

	var hedgeCh <-chan time.Time
	if !g.cfg.DisableHedging && g.cfg.MaxAttempts > 1 {
		d := g.hedge.delay()
		g.metrics.GaugeSet("hedge_delay_seconds", d.Seconds())
		timer := time.NewTimer(d)
		defer timer.Stop()
		hedgeCh = timer.C
	}

	outstanding := 1
	var lastFail attemptResult
	for {
		select {
		case res := <-results:
			outstanding--
			consumed++
			if !res.retryable() {
				// Terminal: success or a client error worth passing through.
				if res.hedged {
					g.metrics.Inc("hedges_won_total")
				}
				if res.status < 400 {
					g.metrics.Inc("gw_ok_total")
				} else {
					g.metrics.Inc("gw_err_total")
				}
				g.metrics.Observe("gw_request_seconds", time.Since(start).Seconds())
				g.finishAttempt(res, true)
				span.SetAux(float64(launched))
				g.relay(w, res, launched)
				return
			}
			g.finishAttempt(res, false)
			lastFail = res
			// Retry on a different replica if the budget and pool allow.
			if g.budget.withdraw() {
				if launch(false) {
					g.metrics.Inc("retries_total")
					outstanding++
				} else {
					g.budget.refund()
				}
			} else {
				g.metrics.Inc("retry_budget_exhausted_total")
			}
			if outstanding == 0 {
				g.metrics.Inc("gw_err_total")
				g.metrics.Observe("gw_request_seconds", time.Since(start).Seconds())
				span.SetNote("failed")
				span.SetAux(float64(launched))
				if lastFail.err != nil || lastFail.status == 0 {
					writeJSON(w, http.StatusBadGateway, errorBody{
						Error: fmt.Sprintf("all %d attempts failed: %v", launched, lastFail.err),
					})
					return
				}
				g.relay(w, lastFail, launched)
				return
			}
		case <-hedgeCh:
			hedgeCh = nil // at most one hedge per request
			if g.budget.withdraw() {
				if launch(true) {
					g.metrics.Inc("hedges_fired_total")
					outstanding++
				} else {
					g.budget.refund()
				}
			} else {
				g.metrics.Inc("retry_budget_exhausted_total")
			}
		case <-ctx.Done():
			// Client gone or gateway deadline: abandon the attempts (their
			// contexts are children of ctx) and answer best effort.
			g.metrics.Inc("gw_err_total")
			span.SetNote("timeout")
			writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "gateway timeout: " + ctx.Err().Error()})
			return
		}
	}
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok uptime=%s replicas=%d\n", time.Since(g.started).Round(time.Second), len(g.replicas))
}

// handleReadyz answers 200 while at least one replica could take traffic.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	now := time.Now()
	for _, rep := range g.replicas {
		if rep.eligible(now) && rep.br.State() != breakerOpen {
			fmt.Fprintln(w, "ready")
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "no healthy replica")
}

// handleMetricz renders the registry in the Prometheus text exposition
// format.
func (g *Gateway) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	_ = g.metrics.WritePrometheus(w)
}

// handleTimeseriez dumps the sampler rings as JSON for cmd/gestat.
func (g *Gateway) handleTimeseriez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = g.sampler.WriteJSON(w)
}

// handleReplicaz renders the live replica table: one line per replica with
// its breaker state, probe verdict, in-flight count, and passive signals.
func (g *Gateway) handleReplicaz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	now := time.Now()
	for _, rep := range g.replicas {
		cooling := ""
		if rep.coolingDown(now) {
			cooling = " cooling"
		}
		slowstart := ""
		if w := rep.weightNow(now); w < 1 {
			slowstart = " slow-start"
		}
		fmt.Fprintf(w, "%-10s %-28s breaker=%-9s probe_ok=%-5v inflight=%d queue_depth=%d brownout=%s headroom=%.3f weight=%.3f%s%s\n",
			rep.name, rep.base, rep.br.State(), rep.probeOK.Load(),
			rep.inflight.Load(), rep.queueDepth.Load(),
			rep.brownoutState(), rep.headroomFrac(), rep.weightNow(now), cooling, slowstart)
	}
}
