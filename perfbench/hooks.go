package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"goodenough"
	"goodenough/internal/governor"
)

// serveHooks time the serving layers from outside, through their public
// seams: a handler wrapper on the gateway and on each server, the gateway's
// Config.Transport and each server's Config.Run. Request-scoped
// accumulators ride the request context, which the gateway's upstream
// requests and the server's run context both derive from.
type serveHooks struct {
	mu        sync.Mutex
	gwSelf    []time.Duration // gateway handler time minus upstream round trips
	handler   []time.Duration // server /v1/run handler time
	overhead  []time.Duration // server handler time minus the simulation
	runs      []time.Duration // goodenough.RunContext calls
	cancelled int64
	states    [3]int64 // governor State samples by state
}

type ctxKey int

const (
	gatewayKey ctxKey = iota
	serverKey
)

// gatewayRequest collects one proxied request's upstream intervals.
type gatewayRequest struct {
	mu        sync.Mutex
	intervals [][2]time.Time // zero end: still open
}

func (g *gatewayRequest) begin(t time.Time) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.intervals = append(g.intervals, [2]time.Time{t})
	return len(g.intervals) - 1
}

func (g *gatewayRequest) end(i int, t time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.intervals[i][1].IsZero() {
		g.intervals[i][1] = t
	}
}

// upstream is the union of the upstream intervals clipped to [from, to];
// attempts still open at to (hedge losers) count until to.
func (g *gatewayRequest) upstream(from, to time.Time) time.Duration {
	g.mu.Lock()
	iv := make([][2]time.Time, len(g.intervals))
	copy(iv, g.intervals)
	g.mu.Unlock()
	for i := range iv {
		if iv[i][1].IsZero() || iv[i][1].After(to) {
			iv[i][1] = to
		}
		if iv[i][0].Before(from) {
			iv[i][0] = from
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case !x[0].After(cur[1]):
			if x[1].After(cur[1]) {
				cur[1] = x[1]
			}
		default:
			total += cur[1].Sub(cur[0])
			cur = x
		}
	}
	if len(iv) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

func isRun(r *http.Request) bool { return r.Method == http.MethodPost && r.URL.Path == "/v1/run" }

func (h *serveHooks) gatewayHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !isRun(r) {
			next.ServeHTTP(w, r)
			return
		}
		acc := &gatewayRequest{}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), gatewayKey, acc)))
		end := time.Now()
		self := end.Sub(start) - acc.upstream(start, end)
		h.mu.Lock()
		h.gwSelf = append(h.gwSelf, self)
		h.mu.Unlock()
	})
}

// timedTransport records each upstream round trip, from the request until
// the gateway closes the response body, on the proxied request's
// accumulator. It wraps http.DefaultTransport, the gateway's default.
type timedTransport struct{}

func (timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	acc, ok := req.Context().Value(gatewayKey).(*gatewayRequest)
	if !ok {
		return http.DefaultTransport.RoundTrip(req)
	}
	i := acc.begin(time.Now())
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		acc.end(i, time.Now())
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { acc.end(i, time.Now()) }}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// serverRequest accumulates the simulation time inside one server request.
type serverRequest struct {
	mu  sync.Mutex
	run time.Duration
}

func (h *serveHooks) serverHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !isRun(r) {
			next.ServeHTTP(w, r)
			return
		}
		acc := &serverRequest{}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), serverKey, acc)))
		total := time.Since(start)
		acc.mu.Lock()
		inside := acc.run
		acc.mu.Unlock()
		h.mu.Lock()
		h.handler = append(h.handler, total)
		h.overhead = append(h.overhead, total-inside)
		h.mu.Unlock()
	})
}

// run wraps goodenough.RunContext, the server's default Config.Run.
func (h *serveHooks) run(ctx context.Context, cfg goodenough.Config) (goodenough.Result, error) {
	start := time.Now()
	res, err := goodenough.RunContext(ctx, cfg)
	d := time.Since(start)
	if acc, ok := ctx.Value(serverKey).(*serverRequest); ok {
		acc.mu.Lock()
		acc.run += d
		acc.mu.Unlock()
	}
	h.mu.Lock()
	h.runs = append(h.runs, d)
	if res.Cancelled {
		h.cancelled++
	}
	h.mu.Unlock()
	return res, err
}

// sampleStates samples every governor's State each 50 ms quantum until the
// returned stop function is called.
func (h *serveHooks) sampleStates(d *deployment) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			h.mu.Lock()
			for _, rp := range d.replicas {
				if rp.gov != nil {
					h.states[rp.gov.State()]++
				}
			}
			h.mu.Unlock()
		}
	}()
	return func() { close(done); wg.Wait() }
}

// report sets the serving layers' per-layer metrics.
func (h *serveHooks) report(r *report, d *deployment) {
	h.mu.Lock()
	defer h.mu.Unlock()
	gw := micros(h.gwSelf)
	r.set("gateway.self_p50_us", quantile(gw, 0.5))
	r.set("gateway.self_p99_us", quantile(gw, 0.99))
	m := d.gw.Metrics()
	var attempts int64
	for i := range d.replicas {
		attempts += m.CounterValue("replica" + strconv.Itoa(i) + "_attempts_total")
	}
	if reqs := m.CounterValue("gw_requests_total"); reqs > 0 {
		r.set("gateway.attempts_per_req", float64(attempts)/float64(reqs))
	}
	r.set("gateway.hedges_fired", float64(m.CounterValue("hedges_fired_total")))
	r.set("gateway.retries", float64(m.CounterValue("retries_total")))

	hd, ov := micros(h.handler), micros(h.overhead)
	r.set("server.handler_p50_us", quantile(hd, 0.5))
	r.set("server.handler_p99_us", quantile(hd, 0.99))
	r.set("server.overhead_p99_us", quantile(ov, 0.99))
	var admitted, shed float64
	var cuts, sheds int64
	for _, rp := range d.replicas {
		c := scrape(r, rp.url+"/metricz")
		admitted += c["admitted_total"]
		shed += c["shed_total"] + c["brownout_shed_total"]
		if rp.gov != nil {
			cuts += rp.gov.Cuts()
			sheds += rp.gov.Sheds()
		}
	}
	r.set("server.admitted", admitted)
	r.set("server.shed", shed)

	runs := micros(h.runs)
	r.set("goodenough.run_p50_us", quantile(runs, 0.5))
	r.set("goodenough.run_p99_us", quantile(runs, 0.99))
	r.set("goodenough.cancelled", float64(h.cancelled))

	r.set("governor.cuts", float64(cuts))
	r.set("governor.sheds", float64(sheds))
	if n := h.states[0] + h.states[1] + h.states[2]; n > 0 {
		r.set("governor.degraded_frac", float64(h.states[governor.StateDegraded])/float64(n))
		r.set("governor.shedding_frac", float64(h.states[governor.StateShedding])/float64(n))
	}
}

// scrape reads the counters of a Prometheus text exposition.
func scrape(r *report, url string) map[string]float64 {
	out := map[string]float64{}
	resp, err := probeClient.Get(url)
	if err != nil {
		r.check(false, "scrape %s: %v", url, err)
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if name, v, ok := strings.Cut(line, " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[name] = f
			}
		}
	}
	return out
}
