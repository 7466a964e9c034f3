// Package server runs the goodenough simulator as a hardened, long-lived
// HTTP/JSON service — the repo's online serving layer.
//
// The paper's GE scheduler is an online algorithm for interactive services
// under bursty load; this package gives the reproduction the matching
// operational envelope. Admission is a first-class decision, exactly as in
// profit-oriented online scheduling: at most MaxConcurrent simulations run
// at once, at most QueueDepth requests wait behind them, and everything
// beyond that is shed immediately with 429 + Retry-After so clients back
// off instead of piling on. Every run is bounded by a per-request timeout
// and by the client connection: either one cancels the simulation
// mid-flight through the context plumbing in goodenough.RunContext, and the
// partial Result (Cancelled=true) is still returned. Worker panics are
// converted into structured 500s by a recovery middleware instead of
// killing the process. SIGTERM (via Drain) stops admission, lets in-flight
// runs finish inside a drain deadline, then cancels the stragglers.
//
// Endpoints:
//
//	POST /v1/run     one simulation; body is a goodenough.Config overlay
//	POST /v1/trace   replay a recorded workload trace
//	POST /v1/sweep   a batch of runs over rates × seeds (one admission slot)
//	GET  /healthz    liveness (always 200 while the process serves)
//	GET  /readyz     readiness (503 once draining), with metrics snapshot
//	GET  /metricz    the obs registry (Prometheus text)
//	GET  /timeseriez recent per-second samples of load metrics, as JSON
package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"goodenough"
	"goodenough/internal/governor"
	"goodenough/internal/obs"
)

// RunFunc executes one simulation. It exists so tests can substitute
// blocking, panicking, or instant runners; production use keeps the
// default, goodenough.RunContext.
type RunFunc func(ctx context.Context, cfg goodenough.Config) (goodenough.Result, error)

// Config parameterizes the serving layer. The zero value is usable:
// withDefaults fills every field.
type Config struct {
	// MaxConcurrent is the number of simulations allowed to execute
	// simultaneously (default: GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth is how many admitted requests may wait for a worker slot
	// beyond the ones executing; anything past it is shed with 429
	// (default: 2×MaxConcurrent).
	QueueDepth int
	// RequestTimeout bounds each run; expiry cancels the simulation and
	// returns the partial result (default: 30s).
	RequestTimeout time.Duration
	// DrainTimeout is how long Drain waits for in-flight runs before
	// cancelling them (default: 10s).
	DrainTimeout time.Duration
	// RetryAfter is the backoff hint attached to shed responses
	// (default: 1s).
	RetryAfter time.Duration
	// MaxBodyBytes caps request bodies (default: 8 MiB).
	MaxBodyBytes int64
	// MaxSweepPoints bounds the rates×seeds fan-out a single sweep request
	// may ask for (default: 64).
	MaxSweepPoints int
	// Run substitutes the simulation entry point (tests only; default
	// goodenough.RunContext).
	Run RunFunc
	// Spans, when non-nil, traces every request: incoming X-GE-Trace-Id /
	// X-GE-Span-Id headers are joined (or a fresh trace rooted), the
	// request and the scheduler's work become spans on this bus, and the
	// trace ID is echoed on the response. Nil disables tracing at zero
	// hot-path cost.
	Spans *obs.SpanBus
	// Governor, when non-nil, runs the live GE overload control loop over
	// this server's worker pool: requests register with it for budget
	// metering and marginal-quality cutting, admission consults its
	// brownout ladder (shedding → 429 with a drain-derived Retry-After),
	// and /readyz plus the X-GE-Brownout / X-GE-Headroom headers expose
	// its state. New starts the loop (binding the admission-queue probe)
	// and Drain stops it. Nil keeps the pre-governor behavior exactly.
	Governor *governor.Governor
	// SampleInterval is the /timeseriez sampling period (default: 1s).
	SampleInterval time.Duration
	// Journal, when non-nil, is the crash-safe request ledger: every
	// admitted request appends an accept record before work starts and a
	// done record before its response is written, so a crash (SIGKILL, OOM)
	// leaves orphans the next incarnation reports at startup and on
	// /recoveryz. Nil disables journaling; /recoveryz then answers
	// {"enabled": false}. The server does not close the journal — the owner
	// that opened it does, after Drain.
	Journal *Journal
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = defaultConcurrency()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 64
	}
	if c.Run == nil {
		c.Run = goodenough.RunContext
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = time.Second
	}
	return c
}

// Server is the admission-controlled simulation service. Create with New,
// expose via Handler, and shut down with Drain.
type Server struct {
	cfg Config
	mux *http.ServeMux

	slots chan struct{} // worker tokens; len == in-flight runs

	mu       sync.Mutex
	queued   int  // admitted requests waiting for a slot
	draining bool // no new admissions once set
	drainCh  chan struct{}
	inflight sync.WaitGroup

	// runCtx is the ancestor of every simulation context; cancelRuns
	// force-cancels whatever is still executing when the drain deadline
	// passes. Cancelled runs return partial results within microseconds
	// (the sim kernel polls its context every few events).
	runCtx     context.Context
	cancelRuns context.CancelFunc

	metrics *obs.SyncRegistry
	spans   *obs.SpanBus
	sampler *obs.Sampler
	started time.Time
}

// New builds a Server; see Config for the knobs.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		slots:      make(chan struct{}, cfg.MaxConcurrent),
		drainCh:    make(chan struct{}),
		runCtx:     ctx,
		cancelRuns: cancel,
		metrics:    newMetrics(),
		spans:      cfg.Spans,
		started:    time.Now(),
	}
	// Live telemetry: the sampler polls values the serving path already
	// maintains, so /timeseriez never touches the request hot path.
	s.sampler = obs.NewSampler(cfg.SampleInterval, 300)
	s.sampler.Track("inflight", func() float64 { return float64(s.InFlight()) })
	s.sampler.Track("queue_depth", func() float64 { return float64(s.QueueDepth()) })
	for _, name := range []string{"requests_total", "run_ok_total", "shed_total", "run_err_total"} {
		name := name
		s.sampler.Track(name, func() float64 { return float64(s.metrics.CounterValue(name)) })
	}
	if cfg.Governor != nil {
		s.sampler.Track("brownout_state", func() float64 { return float64(cfg.Governor.State()) })
		s.sampler.Track("governor_headroom", cfg.Governor.Headroom)
		s.sampler.Track("governor_cut_total", func() float64 { return float64(cfg.Governor.Cuts()) })
		cfg.Governor.BindQueue(s.QueueDepth)
		cfg.Governor.Start()
	}
	s.sampler.Start()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /recoveryz", s.handleRecoveryz)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	s.mux.HandleFunc("GET /timeseriez", s.handleTimeseriez)
	s.mux.Handle("POST /v1/run", s.instrument(http.HandlerFunc(s.handleRun)))
	s.mux.Handle("POST /v1/trace", s.instrument(http.HandlerFunc(s.handleTrace)))
	s.mux.Handle("POST /v1/sweep", s.instrument(http.HandlerFunc(s.handleSweep)))
	return s
}

// Handler returns the full middleware stack: panic recovery wrapping the
// routing mux. Safe for concurrent use.
func (s *Server) Handler() http.Handler {
	return s.recoverPanics(s.mux)
}

// admission is the outcome of one acquire attempt.
type admission int

const (
	admitted admission = iota
	shedQueueFull
	shedDraining
	shedClientGone
	// shedBrownout: the governor's ladder sits at shedding — even cutting
	// every in-flight request to the Q_GE floor cannot fit the budget, so
	// new work is refused before it touches the queue.
	shedBrownout
)

// acquire claims a worker slot, waiting in the bounded admission queue if
// none is free. On success the caller owns one slot and one inflight
// reservation; it must call the returned release exactly once.
func (s *Server) acquire(ctx context.Context) (release func(), verdict admission) {
	// The governor's verdict comes first: a browned-out server sheds before
	// the request can occupy queue space, and the 429 carries the
	// drain-derived Retry-After instead of the static hint.
	if s.cfg.Governor != nil && !s.cfg.Governor.Admit() {
		return nil, shedBrownout
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, shedDraining
	}
	select {
	case s.slots <- struct{}{}: // free worker, no queueing
		s.inflight.Add(1)
		s.mu.Unlock()
		return s.release, admitted
	default:
	}
	if s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return nil, shedQueueFull
	}
	s.queued++
	s.metrics.GaugeSet("queue_depth", float64(s.queued))
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		s.queued--
		s.metrics.GaugeSet("queue_depth", float64(s.queued))
		s.mu.Unlock()
	}()
	select {
	case s.slots <- struct{}{}:
		s.mu.Lock()
		if s.draining {
			// Drain began while we waited; hand the slot back untouched.
			s.mu.Unlock()
			<-s.slots
			return nil, shedDraining
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		return s.release, admitted
	case <-ctx.Done():
		return nil, shedClientGone
	case <-s.drainCh:
		return nil, shedDraining
	}
}

func (s *Server) release() {
	<-s.slots
	s.inflight.Done()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// InFlight returns the number of simulations currently executing.
func (s *Server) InFlight() int { return len(s.slots) }

// QueueDepth returns the number of admitted requests waiting for a worker
// slot — the passive-health signal exported as X-GE-Queue-Depth.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Drain gracefully shuts the serving layer down: admission stops
// immediately (new requests get 503, queued waiters are woken and shed),
// in-flight runs get DrainTimeout to finish, and whatever is still running
// after that — or after ctx is cancelled, whichever comes first — has its
// simulation context cancelled and completes with a partial result. Drain
// returns once every in-flight request has finished; it is idempotent, and
// concurrent calls all block until the drain completes.
func (s *Server) Drain(ctx context.Context) error {
	defer s.sampler.Stop()
	if s.cfg.Governor != nil {
		// Stop the control loop once nothing is left in flight; tickets
		// settling during the drain still Finish safely after Stop.
		defer s.cfg.Governor.Stop()
	}
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
		s.cancelRuns() // nothing left to cancel; releases the context
		return nil
	case <-ctx.Done():
		s.cancelRuns()
		<-done
		return ctx.Err()
	case <-timer.C:
		// Deadline passed: force-cancel the stragglers. They return
		// partial results promptly, so this wait is short.
		s.cancelRuns()
		<-done
		return nil
	}
}

// runContext derives the context governing one simulation: bounded by the
// per-request timeout, the client connection, and the server-wide
// force-cancel used at the drain deadline.
func (s *Server) runContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	stop := context.AfterFunc(s.runCtx, cancel)
	return ctx, func() { stop(); cancel() }
}
