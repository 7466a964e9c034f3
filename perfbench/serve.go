package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"goodenough"
	"goodenough/internal/gateway"
	"goodenough/internal/governor"
	"goodenough/internal/server"
)

// serveSpec describes one serving workload.
type serveSpec struct {
	// governed runs governor.New on each replica and makes the gateway
	// quality-aware.
	governed bool
	// rate is the open-loop Poisson arrival rate in req/s.
	rate float64
	// warmup runs open-loop traffic, unmeasured, before the measurement.
	warmup time.Duration
	// body is the request body of request k.
	body func(k uint64) []byte
}

// serveLight's rate is a light load: near a third of the ~3000 req/s that
// nproc open-loop connections could carry on a 2-vCPU Xeon host, so the
// generator rarely queues.
var serveLight = serveSpec{
	rate:   1000,
	warmup: 500 * time.Millisecond,
	body: func(k uint64) []byte {
		return []byte(fmt.Sprintf(`{"DurationSec":0.05,"ArrivalRate":40,"Cores":2,"Seed":%d}`, k))
	},
}

// serveBrownout's requests each cost about 20 ms of host CPU; the governors'
// budget of 0.5 work-units/s per replica makes the offered load cut and shed.
var serveBrownout = serveSpec{
	governed: true,
	rate:     40,
	warmup:   2 * time.Second,
	body: func(k uint64) []byte {
		return []byte(fmt.Sprintf(`{"DurationSec":30,"Seed":%d}`, k))
	},
}

func runServeLight(o options) (*report, error)    { return runServe(o, serveLight) }
func runServeBrownout(o options) (*report, error) { return runServe(o, serveBrownout) }

// replicaProc is one in-process geserve replica on a loopback listener.
type replicaProc struct {
	srv     *server.Server
	gov     *governor.Governor
	journal *server.Journal
	http    *http.Server
	url     string
}

// deployment is two replicas behind one gateway, all in this process.
type deployment struct {
	replicas []*replicaProc
	gw       *gateway.Gateway
	gwHTTP   *http.Server
	url      string
	serving  sync.WaitGroup
}

// serve starts hs on a fresh loopback listener and returns its base URL.
func (d *deployment) serve(handler http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := server.NewHTTPServer(ln.Addr().String(), handler, 0, 0)
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// boot starts the deployment and waits until every replica reports healthy
// and the gateway ready. hooks, when non-nil, instrument it for tracing.
func boot(spec serveSpec, dir string, hooks *serveHooks) (*deployment, error) {
	d := &deployment{}
	var urls []string
	for i := 0; i < 2; i++ {
		j, err := server.OpenJournal(filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", i)))
		if err != nil {
			d.close()
			return nil, err
		}
		rp := &replicaProc{journal: j}
		d.replicas = append(d.replicas, rp)
		cfg := server.Config{Journal: j}
		if spec.governed {
			rp.gov, err = governor.New(governor.Config{
				Budget:        0.5,
				Quantum:       50 * time.Millisecond,
				QGE:           0.9,
				NominalDemand: 500 * time.Millisecond,
				RateWindow:    2 * time.Second,
			})
			if err != nil {
				d.close()
				return nil, err
			}
			cfg.Governor = rp.gov
		}
		var handler http.Handler
		if hooks != nil {
			cfg.Run = hooks.run
		}
		rp.srv = server.New(cfg)
		handler = rp.srv.Handler()
		if hooks != nil {
			handler = hooks.serverHandler(handler)
		}
		if rp.http, rp.url, err = d.serve(handler); err != nil {
			d.close()
			return nil, err
		}
		urls = append(urls, rp.url)
	}
	gcfg := gateway.Config{Replicas: urls, QualityAware: spec.governed}
	if hooks != nil {
		gcfg.Transport = timedTransport{}
	}
	gw, err := gateway.New(gcfg)
	if err != nil {
		d.close()
		return nil, err
	}
	d.gw = gw
	gw.Start()
	handler := gw.Handler()
	if hooks != nil {
		handler = hooks.gatewayHandler(handler)
	}
	if d.gwHTTP, d.url, err = d.serve(handler); err != nil {
		d.close()
		return nil, err
	}
	probes := append([]string{d.url + "/readyz"}, urls[0]+"/healthz", urls[1]+"/healthz")
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range probes {
		for !probe(u) {
			if time.Now().After(deadline) {
				d.close()
				return nil, fmt.Errorf("serve: %s never became ready", u)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return d, nil
}

var probeClient = &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

func probe(url string) bool {
	resp, err := probeClient.Get(url)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// close shuts the deployment down and waits for its goroutines.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if d.gw != nil {
		d.gw.Close()
	}
	if d.gwHTTP != nil {
		_ = d.gwHTTP.Shutdown(ctx)
	}
	for _, rp := range d.replicas {
		if rp.srv != nil {
			_ = rp.srv.Drain(ctx)
		}
		if rp.http != nil {
			_ = rp.http.Shutdown(ctx)
		}
		_ = rp.journal.Close()
	}
	d.serving.Wait()
}

// result is the outcome of one request, kept small: the measured heap
// includes the generator's records.
type result struct {
	key             uint64
	due, sent, done time.Time
	status          int
	err             error
	retryAfter      string
	hasQuality      bool
	quality         float64 // X-GE-Quality
	cancelled       bool    // Result.Cancelled
	simQuality      float64 // Result.Quality
	energy          float64 // Result.Energy
	decodeErr       error
	body            []byte // kept only for the sampled requests
}

// loadGen sends requests over at most nproc connections. Request i of its
// schedule is request key keyBase+i.
type loadGen struct {
	spec    serveSpec
	client  *http.Client
	url     string
	keyBase uint64
	keep    map[uint64]bool // request keys whose bodies are kept
}

func newLoadGen(spec serveSpec, url string, keyBase uint64, keep map[uint64]bool) *loadGen {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, IdleConnTimeout: time.Minute}
	return &loadGen{spec: spec, client: &http.Client{Transport: tr, Timeout: 20 * time.Second},
		url: url, keyBase: keyBase, keep: keep}
}

func (g *loadGen) close() { g.client.Transport.(*http.Transport).CloseIdleConnections() }

// send posts request k and decodes the reply.
func (g *loadGen) send(k uint64, due time.Time) result {
	r := result{key: k, due: due, sent: time.Now()}
	resp, err := g.client.Post(g.url+"/v1/run", "application/json", bytes.NewReader(g.spec.body(k)))
	if err != nil {
		r.err, r.done = err, time.Now()
		return r
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status, r.err = resp.StatusCode, err
	r.retryAfter = resp.Header.Get("Retry-After")
	if q := resp.Header.Get("X-GE-Quality"); q != "" {
		r.quality, r.decodeErr = strconv.ParseFloat(q, 64)
		r.hasQuality = true
	}
	if r.status == http.StatusOK && r.err == nil {
		var body struct {
			Result *goodenough.Result `json:"result"`
		}
		if err := json.Unmarshal(buf.Bytes(), &body); err != nil || body.Result == nil {
			r.decodeErr = fmt.Errorf("reply is not a Result: %v", err)
		} else {
			r.cancelled, r.simQuality, r.energy = body.Result.Cancelled, body.Result.Quality, body.Result.Energy
		}
		if g.keep[k] {
			r.body = buf.Bytes()
		}
	}
	return r
}

// openLoop sends Poisson arrivals at the spec's rate for span, timing each
// request from its due time. Requests due while every connection is busy
// are sent late; the lateness is reported as generator lag.
func (g *loadGen) openLoop(rng *rand.Rand, span time.Duration) []result {
	var offsets []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / g.spec.rate
		if t >= span.Seconds() {
			break
		}
		offsets = append(offsets, seconds(t))
	}
	res := make([]result, len(offsets))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) {
					return
				}
				due := start.Add(offsets[i])
				time.Sleep(time.Until(due))
				res[i] = g.send(g.keyBase+uint64(i), due)
			}
		}()
	}
	wg.Wait()
	return res
}

// phaseStats summarizes one phase's results.
type phaseStats struct {
	attempted, ok, refused, failed int64
	lags                           []float64 // ms
	qualitySum, resQuality, energy float64
	lastDone                       time.Time
	// latencies (ms) of successful replies, binned into windows by due time.
	latencies [][]float64
}

// window is the length of the windows a phase is binned into: one second,
// or longer where needed to hold ~1000 requests, so that each window's
// p99 has ten samples beyond it.
func window(rate float64) time.Duration {
	return max(time.Second, seconds(1000/rate))
}

// latency is the median over windows of each window's q-quantile, so one
// stalled window moves it less than a pooled quantile would.
func (s *phaseStats) latency(q float64) float64 {
	var per []float64
	for _, w := range s.latencies {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return median(per)
}

// tally classifies results and checks each reply: a 200 must decode to a
// Result, a 429 must carry a parseable Retry-After. Refused requests (429,
// or 503 with Retry-After) count against ok_frac but are not failures of
// the program; errors, timeouts and other statuses are. Windows of length
// win start at start.
func tally(r *report, results []result, start time.Time, win time.Duration) phaseStats {
	var s phaseStats
	for _, x := range results {
		s.attempted++
		if x.done.After(s.lastDone) {
			s.lastDone = x.done
		}
		s.lags = append(s.lags, float64(x.sent.Sub(x.due))/1e6)
		_, raErr := strconv.Atoi(x.retryAfter)
		switch {
		case x.err != nil:
			s.failed++
		case x.status == http.StatusOK:
			r.check(x.decodeErr == nil, "200 reply: %v", x.decodeErr)
			if x.cancelled && !x.hasQuality {
				// Only a governor may cut a run; anything else timed out.
				s.failed++
				continue
			}
			s.ok++
			i := max(0, int(x.due.Sub(start)/win))
			for len(s.latencies) <= i {
				s.latencies = append(s.latencies, nil)
			}
			s.latencies[i] = append(s.latencies[i], float64(x.done.Sub(x.due))/1e6)
			q := 1.0
			if x.hasQuality {
				q = x.quality
			}
			s.qualitySum += q
			s.resQuality += x.simQuality
			s.energy += x.energy
		case x.status == http.StatusTooManyRequests:
			r.check(raErr == nil, "429 without a parseable Retry-After: %q", x.retryAfter)
			s.refused++
		case x.status == http.StatusServiceUnavailable && raErr == nil:
			s.refused++
		default:
			s.failed++
		}
	}
	r.attempted += s.attempted
	r.failed += s.failed
	return s
}

// checkSample compares the kept uncut replies with local runs of the same
// bodies, byte for byte.
func checkSample(r *report, spec serveSpec, results []result) {
	checked := 0
	for _, x := range results {
		if x.body == nil || x.cancelled || x.hasQuality && x.quality < 1 {
			continue
		}
		cfg := goodenough.DefaultConfig()
		dec := json.NewDecoder(bytes.NewReader(spec.body(x.key)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			r.check(false, "request body: %v", err)
			return
		}
		res, err := goodenough.Run(cfg)
		if err != nil {
			r.check(false, "local run: %v", err)
			return
		}
		want, _ := json.Marshal(struct {
			Result goodenough.Result `json:"result"`
		}{res})
		r.check(bytes.Equal(append(want, '\n'), x.body), "reply %d differs from a local goodenough.Run", x.key)
		checked++
	}
	r.check(checked > 0, "no uncut reply was sampled for the byte-for-byte check")
}

// sampleKeys picks request keys whose replies are kept for checkSample.
func sampleKeys(rng *rand.Rand, base uint64, n int) map[uint64]bool {
	keep := map[uint64]bool{}
	for len(keep) < 16 {
		keep[base+uint64(rng.IntN(n))] = true
	}
	return keep
}

// runServe measures a serving workload: set-up (median of several boots),
// an unmeasured warm-up and an open-loop phase.
func runServe(o options, spec serveSpec) (*report, error) {
	r := newReport()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewPCG(o.seed, 0x5e7e))

	// Set-up: the median of 21 boots, each after a collection; the last
	// boot serves the measurement.
	var setups []float64
	var d *deployment
	for i := 0; i < 21; i++ {
		if d != nil {
			d.close()
		}
		bootDir := filepath.Join(dir, fmt.Sprintf("boot-%d", i))
		if err := os.Mkdir(bootDir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		if d, err = boot(spec, bootDir, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	measure := o.seconds
	if o.trace {
		measure /= 2
	}
	un, err := servePhases(r, spec, d, rng, o.seed, measure)
	d.close()
	if err != nil {
		return nil, err
	}
	if !o.trace {
		open := un.open
		r.set("wall_s", open.lastDone.Sub(un.openStart).Seconds())
		r.set("setup_s", median(setups))
		r.set("peak_heap_mb", un.peakHeap)
		r.set("energy_j", open.energy/float64(open.ok))
		r.set("batch_quality", open.resQuality/float64(open.ok))
		r.set("latency_p50_ms", open.latency(0.5))
		r.info("latency_p99_ms", open.latency(0.99), "ms")
		r.info("latency_samples", float64(open.ok), "count")
		r.set("goodput_rps", float64(open.ok)/un.openSpan.Seconds())
		r.set("ok_frac", float64(open.ok)/float64(open.attempted))
		r.info("fail_frac", float64(open.refused+open.failed)/float64(open.attempted), "ratio")
		r.set("reply_quality", open.qualitySum/float64(open.ok))
		return r, nil
	}

	// Traced half: a fresh deployment with handler, transport and run
	// wrappers, a governor-state sampler and a CPU profile.
	hooks := &serveHooks{}
	tracedDir := filepath.Join(dir, "traced")
	if err := os.Mkdir(tracedDir, 0o755); err != nil {
		return nil, err
	}
	td, err := boot(spec, tracedDir, hooks)
	if err != nil {
		return nil, err
	}
	stopStates := hooks.sampleStates(td)
	prof, err := startProfile()
	if err != nil {
		td.close()
		return nil, err
	}
	tr, err := servePhases(r, spec, td, rng, o.seed+1, measure)
	samples, perr := prof.stop()
	stopStates()
	if err == nil {
		err = perr
	}
	if err != nil {
		td.close()
		return nil, err
	}
	hooks.report(r, td)
	td.close()

	setShares(r, samples)
	r.set("bench.gen_lag_p99_ms", quantile(un.open.lags, 0.99))
	r.set("bench.trace_overhead_frac", tr.cpuPerOK/un.cpuPerOK-1)
	r.set("runtime.alloc_mb", un.allocMBPer1k)
	r.set("runtime.allocs_per_event", un.allocsPerReq)
	return r, nil
}

// phases is what servePhases measured.
type phases struct {
	open         phaseStats
	openStart    time.Time
	openSpan     time.Duration
	peakHeap     float64
	cpuPerOK     float64 // process CPU seconds per successful open-loop reply
	allocMBPer1k float64 // MiB allocated per 1000 open-loop requests
	allocsPerReq float64 // heap objects allocated per open-loop request
}

// servePhases warms d up, runs the measured open-loop phase and checks the
// replies.
func servePhases(r *report, spec serveSpec, d *deployment, rng *rand.Rand, seed uint64, measure float64) (phases, error) {
	var p phases
	keyBase := seed << 32
	warm := newLoadGen(spec, d.url, keyBase, nil)
	warmRes := warm.openLoop(rng, spec.warmup)
	warm.close()
	for _, x := range warmRes {
		if x.err != nil {
			return p, fmt.Errorf("serve: warm-up request: %w", x.err)
		}
	}

	p.openSpan = seconds(measure)
	openBase := keyBase + uint64(len(warmRes))
	expected := int(spec.rate*p.openSpan.Seconds()) + 1
	keep := sampleKeys(rng, openBase, expected)
	g := newLoadGen(spec, d.url, openBase, keep)
	defer g.close()
	heap := startHeapWatch()
	runtime.GC()
	heap.take()
	cpu0 := cpuTime()
	b0, n0 := allocStats()
	p.openStart = time.Now()
	openRes := g.openLoop(rng, p.openSpan)
	b1, n1 := allocStats()
	cpu1 := cpuTime()
	p.peakHeap = heap.take()
	heap.close()
	p.open = tally(r, openRes, p.openStart, window(spec.rate))
	checkSample(r, spec, openRes)
	if p.open.ok == 0 {
		return p, errors.New("serve: no successful reply")
	}
	p.cpuPerOK = (cpu1 - cpu0).Seconds() / float64(p.open.ok)
	p.allocMBPer1k = float64(b1-b0) / (1 << 20) / float64(p.open.attempted) * 1000
	p.allocsPerReq = float64(n1-n0) / float64(p.open.attempted)
	return p, nil
}
