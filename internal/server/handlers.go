package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"goodenough"
	"goodenough/internal/governor"
	"goodenough/internal/obs"
)

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterMS accompanies 429s: the client should back off at least
	// this long (the Retry-After header carries the same hint in whole
	// seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// runResponse wraps one simulation result.
type runResponse struct {
	Result goodenough.Result `json:"result"`
}

// sweepPoint is one entry of a sweep response.
type sweepPoint struct {
	Rate   float64           `json:"rate"`
	Seed   uint64            `json:"seed"`
	Result goodenough.Result `json:"result"`
}

// sweepResponse carries the completed points of a sweep. Cancelled reports
// that the request's deadline (or a drain) interrupted the batch; Points
// then holds the prefix that finished.
type sweepResponse struct {
	Points    []sweepPoint `json:"points"`
	Cancelled bool         `json:"cancelled,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "")
	_ = enc.Encode(v) // the client hanging up is not our error
}

// retryHint is the backoff attached to shed responses: the governor's
// drain-rate-derived estimate when one is running, the static config knob
// otherwise.
func (s *Server) retryHint() time.Duration {
	if s.cfg.Governor != nil {
		return s.cfg.Governor.RetryAfter()
	}
	return s.cfg.RetryAfter
}

// shedResponse emits the load-shedding reply for a verdict other than
// admitted.
func (s *Server) shedResponse(w http.ResponseWriter, verdict admission) {
	switch verdict {
	case shedQueueFull, shedBrownout:
		retry := s.retryHint()
		secs := int64(retry / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		msg := "admission queue full"
		if verdict == shedBrownout {
			s.metrics.Inc("brownout_shed_total")
			w.Header().Set("X-GE-Brownout", s.cfg.Governor.State().String())
			msg = "brownout: shedding to hold quality floor"
		} else {
			s.metrics.Inc("shed_total")
		}
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error:        msg,
			RetryAfterMS: retry.Milliseconds(),
		})
	case shedDraining:
		s.metrics.Inc("rejected_draining_total")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server draining"})
	case shedClientGone:
		s.metrics.Inc("client_gone_total")
		// 499-style: the client is gone, but write something valid anyway.
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "client cancelled while queued"})
	}
}

// decodeStrict decodes raw into v as exactly one JSON value. Unknown fields
// are rejected — they are almost always typos — and so is anything but
// whitespace after the value, which would otherwise be ignored.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// decodeConfig reads a goodenough.Config overlay: the body's fields are
// applied on top of DefaultConfig, so `{"DurationSec": 2}` is a complete
// request.
func (s *Server) decodeConfig(w http.ResponseWriter, r *http.Request, raw []byte) (goodenough.Config, bool) {
	cfg := goodenough.DefaultConfig()
	if err := decodeStrict(raw, &cfg); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad config: %v", err)})
		return goodenough.Config{}, false
	}
	return cfg, true
}

// readBody slurps the (size-capped) request body.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading body: %v", err)})
		return nil, false
	}
	return buf.Bytes(), true
}

// execute admits, runs, and accounts one simulation closure. The closure
// receives the bounded run context and returns the response payload.
func (s *Server) execute(w http.ResponseWriter, r *http.Request,
	run func(ctx context.Context) (any, error)) {
	// Tracing: join the caller's trace (or root a fresh one), echo the IDs
	// so the client can stitch, and finish the span exactly once on every
	// exit path. With a nil bus all of this is nil-receiver no-ops.
	span := s.spans.Start(r.URL.Path, obs.SpanServer, obs.ParseSpanContext(r.Header))
	span.Context().Inject(w.Header())
	defer s.spans.Finish(span)

	release, verdict := s.acquire(r.Context())
	if verdict != admitted {
		span.SetNote("shed")
		s.shedResponse(w, verdict)
		return
	}
	defer release()
	s.metrics.Inc("admitted_total")
	s.metrics.GaugeSet("inflight", float64(s.InFlight()))
	defer func() { s.metrics.GaugeSet("inflight", float64(s.InFlight()-1)) }()

	// Journal the acceptance before any work runs, and the outcome before
	// the response goes out; see the ordering argument in journal.go. The
	// request identity is the caller's trace ID when one arrived, so the
	// drill harness can reconcile client-side acknowledgements against this
	// ledger.
	jdone := func(status int) {}
	if j := s.cfg.Journal; j != nil {
		id := j.NextID()
		if sc := obs.ParseSpanContext(r.Header); sc.Valid() {
			id = fmt.Sprintf("%016x", sc.Trace)
		}
		j.Accept(id, r.URL.Path)
		jdone = func(status int) { j.Done(id, status) }
	}

	ctx, cancel := s.runContext(r)
	defer cancel()
	// Enroll with the governor: the ticket meters this request against the
	// power budget every quantum, and a cut fires cancel — the same context
	// plumbing the timeout uses — so the run returns a partial Result.
	var ticket *governor.Ticket
	if g := s.cfg.Governor; g != nil {
		ticket = g.Register(0, cancel, span.Context())
		// Idempotent backstop: a panicking run must still settle its ticket
		// or the governor meters a ghost forever.
		defer ticket.Finish()
	}
	if s.spans != nil {
		ctx = obs.ContextWithSpan(ctx, s.spans, span.Context())
	}
	payload, err := run(ctx)
	if ticket != nil {
		q, cut := ticket.Finish()
		if cut {
			s.metrics.Inc("governor_cut_total")
		}
		// Achieved quality rides every governed reply; geload aggregates it
		// into the batch-quality distribution.
		w.Header().Set("X-GE-Quality", strconv.FormatFloat(q, 'f', 4, 64))
	}
	if err != nil {
		span.SetNote("error")
		s.metrics.Inc("run_err_total")
		// goodenough.RunContext reports cancellation as a partial result,
		// not an error, so an error here is a config/trace problem — except
		// with substituted RunFuncs, which may surface the context error
		// directly.
		if errIsCancel(err) {
			jdone(http.StatusServiceUnavailable)
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
			return
		}
		jdone(http.StatusBadRequest)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	s.metrics.Inc("run_ok_total")
	jdone(http.StatusOK)
	writeJSON(w, http.StatusOK, payload)
}

// handleRun executes one simulation. Body: a goodenough.Config overlay.
// A run that hits the request timeout (or a drain force-cancel) still
// answers 200 with Result.Cancelled=true — partial results are the point
// of a good-enough service.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	cfg, ok := s.decodeConfig(w, r, raw)
	if !ok {
		return
	}
	if err := cfg.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	s.execute(w, r, func(ctx context.Context) (any, error) {
		res, err := s.cfg.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		if res.Cancelled {
			s.metrics.Inc("run_cancelled_total")
		}
		return runResponse{Result: res}, nil
	})
}

// traceRequest is the /v1/trace body: a config overlay plus the recorded
// trace JSON (as produced by goodenough.ExportTrace or cmd/getrace).
type traceRequest struct {
	Config json.RawMessage `json:"config"`
	Trace  json.RawMessage `json:"trace"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req traceRequest
	if err := decodeStrict(raw, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	if len(req.Trace) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing trace"})
		return
	}
	cfgRaw := req.Config
	if len(cfgRaw) == 0 {
		cfgRaw = []byte("{}")
	}
	cfg, ok := s.decodeConfig(w, r, cfgRaw)
	if !ok {
		return
	}
	s.execute(w, r, func(ctx context.Context) (any, error) {
		res, err := goodenough.RunTraceContext(ctx, cfg, bytes.NewReader(req.Trace))
		if err != nil {
			return nil, err
		}
		if res.Cancelled {
			s.metrics.Inc("run_cancelled_total")
		}
		return runResponse{Result: res}, nil
	})
}

// sweepRequest is the /v1/sweep body: one config overlay fanned out over
// arrival rates and/or seeds. Empty lists fall back to the config's own
// rate/seed, so {"config":{}, "rates":[100,200]} is two points.
type sweepRequest struct {
	Config json.RawMessage `json:"config"`
	Rates  []float64       `json:"rates"`
	Seeds  []uint64        `json:"seeds"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req sweepRequest
	if err := decodeStrict(raw, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	cfgRaw := req.Config
	if len(cfgRaw) == 0 {
		cfgRaw = []byte("{}")
	}
	base, ok := s.decodeConfig(w, r, cfgRaw)
	if !ok {
		return
	}
	rates := req.Rates
	if len(rates) == 0 {
		rates = []float64{base.ArrivalRate}
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{base.Seed}
	}
	points := len(rates) * len(seeds)
	if points > s.cfg.MaxSweepPoints {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("sweep asks for %d points, limit is %d", points, s.cfg.MaxSweepPoints),
		})
		return
	}
	// Validate every point before admitting, so a sweep never half-runs on
	// a config error.
	for _, rate := range rates {
		cfg := base
		cfg.ArrivalRate = rate
		if err := cfg.Validate(); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
	}
	s.execute(w, r, func(ctx context.Context) (any, error) {
		resp := sweepResponse{Points: make([]sweepPoint, 0, points)}
		for _, rate := range rates {
			for _, seed := range seeds {
				if ctx.Err() != nil {
					resp.Cancelled = true
					return resp, nil
				}
				cfg := base
				cfg.ArrivalRate = rate
				cfg.Seed = seed
				res, err := s.cfg.Run(ctx, cfg)
				if err != nil {
					return nil, err
				}
				if res.Cancelled {
					s.metrics.Inc("run_cancelled_total")
					resp.Cancelled = true
					resp.Points = append(resp.Points, sweepPoint{Rate: rate, Seed: seed, Result: res})
					return resp, nil
				}
				resp.Points = append(resp.Points, sweepPoint{Rate: rate, Seed: seed, Result: res})
			}
		}
		return resp, nil
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok uptime=%s\n", time.Since(s.started).Round(time.Second))
}

// handleReadyz answers 200 with a metrics snapshot while the server admits
// work, 503 once it cannot — draining, a governor ladder at shedding, or
// (ungoverned) a saturated admission queue — the signal load balancers and
// gegate probes use to stop routing. The 200 body's first line always
// starts with "ready" (scripts grep for it); governed servers append the
// ladder state and headroom, and stamp X-GE-Brownout on every answer.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if g := s.cfg.Governor; g != nil {
		state := g.State()
		w.Header().Set("X-GE-Brownout", state.String())
		w.Header().Set("X-GE-Headroom", strconv.FormatFloat(g.Headroom(), 'f', 3, 64))
		if state == governor.StateShedding {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "shedding retry_after=%s\n", g.RetryAfter())
			return
		}
		fmt.Fprintf(w, "ready state=%s headroom=%.3f\n", state, g.Headroom())
		_ = s.metrics.WriteText(w)
		return
	}
	if s.QueueDepth() >= s.cfg.QueueDepth {
		// Ungoverned saturation: every queue slot is taken, so the next
		// request would be shed — tell the balancer before it sends one.
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "saturated")
		return
	}
	fmt.Fprintln(w, "ready")
	_ = s.metrics.WriteText(w)
}

// recoveryzBody is the /recoveryz response: the startup reconciliation of
// the crash journal, plus the live journal-write error count.
type recoveryzBody struct {
	Enabled  bool  `json:"enabled"`
	Errs     int64 `json:"journal_errs,omitempty"`
	Recovery       // inlined: incarnation, prior_records, corrupt, orphans
}

// handleRecoveryz reports what this incarnation found in the crash journal
// at startup: its boot count and the requests a predecessor accepted but
// never finished. The drill harness audits these orphans against the
// gateway's retry accounting.
func (s *Server) handleRecoveryz(w http.ResponseWriter, r *http.Request) {
	j := s.cfg.Journal
	if j == nil {
		writeJSON(w, http.StatusOK, recoveryzBody{Enabled: false})
		return
	}
	rec := j.Recovery()
	if rec.Orphans == nil {
		rec.Orphans = []Orphan{} // JSON [] beats null for consumers
	}
	writeJSON(w, http.StatusOK, recoveryzBody{Enabled: true, Errs: j.Errs(), Recovery: rec})
}

// handleMetricz renders the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	_ = s.metrics.WritePrometheus(w)
}

// handleTimeseriez dumps the sampler rings as JSON: the last ~5 minutes
// of inflight, queue depth, and counter series at SampleInterval
// resolution. cmd/gestat polls this to draw live sparklines.
func (s *Server) handleTimeseriez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.sampler.WriteJSON(w)
}

// errIsCancel reports whether err is a context cancellation.
func errIsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
