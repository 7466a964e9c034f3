package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newPoolGateway builds a gateway over the given backends with fast test
// timings; probes stay off unless the test calls Start.
func newPoolGateway(t *testing.T, cfg Config, backends ...*httptest.Server) (*Gateway, *httptest.Server) {
	t.Helper()
	for _, b := range backends {
		cfg.Replicas = append(cfg.Replicas, b.URL)
	}
	if cfg.BreakerOpenFor == 0 {
		cfg.BreakerOpenFor = 100 * time.Millisecond
	}
	if cfg.HedgeMinDelay == 0 {
		cfg.HedgeMinDelay = 20 * time.Millisecond
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	front := httptest.NewServer(g.Handler())
	t.Cleanup(front.Close)
	return g, front
}

// okBackend answers 200 with a tiny JSON body and counts requests.
func okBackend(t *testing.T, hits *atomic.Int64, delay time.Duration) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		if delay > 0 {
			// Drain the body first: net/http only watches for client
			// disconnects (cancelling r.Context) once the request body has
			// been consumed.
			_, _ = io.Copy(io.Discard, r.Body)
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-GE-Queue-Depth", "0")
		fmt.Fprint(w, `{"result":{"Jobs":1}}`)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// failBackend answers 500 and counts requests.
func failBackend(t *testing.T, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func postRun(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// TestFailoverAroundDeadReplica: one replica serves 500s, the other is
// healthy; every client request must succeed, the dead replica's breaker
// must open, and the breaker metrics must show up in metricz.
func TestFailoverAroundDeadReplica(t *testing.T) {
	var badHits atomic.Int64
	bad := failBackend(t, &badHits)
	good := okBackend(t, nil, 0)
	g, front := newPoolGateway(t, Config{BreakerFailures: 2, RetryBudgetBurst: 100}, bad, good)

	for i := 0; i < 10; i++ {
		resp, body := postRun(t, front.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, resp.StatusCode, body)
		}
		if rep := resp.Header.Get("X-GE-Replica"); rep != "replica1" {
			t.Fatalf("request %d served by %q, want replica1", i, rep)
		}
	}
	if n := g.Metrics().CounterValue("breaker_open_total"); n < 1 {
		t.Fatalf("breaker_open_total = %d, want >= 1", n)
	}
	// Once open, the breaker stops the hammering: the bad replica saw at
	// most its threshold plus a half-open trial or two.
	if n := badHits.Load(); n > 5 {
		t.Fatalf("dead replica hit %d times despite an open breaker", n)
	}
	resp, err := http.Get(front.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metricz, _ := io.ReadAll(resp.Body)
	for _, name := range []string{"breaker_open_total", "hedges_fired_total", "hedges_won_total", "replica0_inflight", "retries_total"} {
		if !strings.Contains(string(metricz), name) {
			t.Fatalf("metricz missing %s:\n%s", name, metricz)
		}
	}
}

// TestBreakerRecoversThroughHalfOpen: a replica fails, its breaker opens,
// the replica heals, and after the open window a half-open trial closes
// the breaker again.
func TestBreakerRecoversThroughHalfOpen(t *testing.T) {
	var healthy atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if healthy.Load() {
			fmt.Fprint(w, `{"result":{}}`)
			return
		}
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(flaky.Close)
	g, front := newPoolGateway(t, Config{
		BreakerFailures:  1,
		BreakerOpenFor:   50 * time.Millisecond,
		RetryBudgetBurst: 100,
		MaxAttempts:      1, // isolate the breaker: no retries, no second replica
		DisableHedging:   true,
	}, flaky)

	if resp, _ := postRun(t, front.URL); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing replica passed through %d, want 500", resp.StatusCode)
	}
	// Breaker open: the gateway sheds instead of trying the replica.
	if resp, body := postRun(t, front.URL); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d body %s, want 503", resp.StatusCode, body)
	} else if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("gateway shed with Retry-After %q, want the 1s hint", ra)
	}

	healthy.Store(true)
	time.Sleep(60 * time.Millisecond) // let the open window lapse
	if resp, body := postRun(t, front.URL); resp.StatusCode != http.StatusOK {
		t.Fatalf("half-open trial: status %d body %s, want 200", resp.StatusCode, body)
	}
	if g.replicas[0].br.State() != breakerClosed {
		t.Fatalf("breaker %v after successful trial, want closed", g.replicas[0].br.State())
	}
	if n := g.Metrics().CounterValue("breaker_close_total"); n != 1 {
		t.Fatalf("breaker_close_total = %d, want 1", n)
	}
}

// TestHalfOpenTrialSurvives429: a replica that recovers from an outage into
// overload answers its half-open trial with 429. That must resolve the trial
// (cooldown, no strike) so a later trial can close the breaker — not wedge
// the replica out of the pool until gateway restart.
func TestHalfOpenTrialSurvives429(t *testing.T) {
	var mode atomic.Int32 // 0: 500s, 1: 429s, 2: healthy
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case 0:
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
		case 1:
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
		default:
			fmt.Fprint(w, `{"result":{}}`)
		}
	}))
	t.Cleanup(flaky.Close)
	g, front := newPoolGateway(t, Config{
		BreakerFailures:  1,
		BreakerOpenFor:   50 * time.Millisecond,
		RetryBudgetBurst: 100,
		MaxAttempts:      1,
		DisableHedging:   true,
	}, flaky)

	postRun(t, front.URL) // 500 trips the breaker open
	mode.Store(1)
	time.Sleep(60 * time.Millisecond) // open window lapses
	if resp, body := postRun(t, front.URL); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("half-open trial: status %d body %s, want 429 passthrough", resp.StatusCode, body)
	}
	mode.Store(2)
	// The 429 trial must have released the probe slot: the next request is
	// admitted as a fresh trial and closes the breaker.
	if resp, body := postRun(t, front.URL); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-429 trial: status %d body %s, want 200", resp.StatusCode, body)
	}
	if st := g.replicas[0].br.State(); st != breakerClosed {
		t.Fatalf("breaker %v after recovery, want closed", st)
	}
}

// TestHedgeWinsOverSlowReplica: the primary stalls, the hedge goes to the
// fast replica and wins, and the slow attempt is cancelled.
func TestHedgeWinsOverSlowReplica(t *testing.T) {
	slowCancelled := make(chan struct{}, 16)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read can observe the
		// gateway abandoning this connection and cancel r.Context —
		// exactly what geserve's JSON decode does before simulating.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-time.After(5 * time.Second):
			fmt.Fprint(w, `{"result":{}}`)
		case <-r.Context().Done():
			slowCancelled <- struct{}{}
		}
	}))
	t.Cleanup(slow.Close)
	fast := okBackend(t, nil, 0)
	g, front := newPoolGateway(t, Config{
		HedgeMinDelay:    10 * time.Millisecond,
		RetryBudgetBurst: 100,
	}, slow, fast)

	hedgeWins := 0
	for i := 0; i < 6; i++ {
		resp, body := postRun(t, front.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("X-GE-Hedged") != "" {
			hedgeWins++
			if rep := resp.Header.Get("X-GE-Replica"); rep != "replica1" {
				t.Fatalf("hedge won on %q, want the fast replica1", rep)
			}
		}
	}
	// The round-robin tiebreak sends roughly half the primaries to the slow
	// replica; each of those must be rescued by a hedge.
	if hedgeWins == 0 {
		t.Fatal("no request was rescued by a hedge")
	}
	if n := g.Metrics().CounterValue("hedges_won_total"); int(n) != hedgeWins {
		t.Fatalf("hedges_won_total = %d, client saw %d hedged responses", n, hedgeWins)
	}
	if n := g.Metrics().CounterValue("hedges_fired_total"); n < int64(hedgeWins) {
		t.Fatalf("hedges_fired_total = %d < won %d", n, hedgeWins)
	}
	// The abandoned slow attempts must have been cancelled, not leaked.
	select {
	case <-slowCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("slow attempt was never cancelled after losing the hedge race")
	}
}

// TestHedgeLoserCancelDoesNotTripBreaker: a healthy-but-slower replica that
// keeps losing hedge races gets its attempts cancelled by the gateway; those
// self-inflicted cancellations must not feed its breaker or error metrics.
func TestHedgeLoserCancelDoesNotTripBreaker(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-time.After(5 * time.Second):
			fmt.Fprint(w, `{"result":{}}`)
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(slow.Close)
	fast := okBackend(t, nil, 0)
	g, front := newPoolGateway(t, Config{
		HedgeMinDelay:    10 * time.Millisecond,
		BreakerFailures:  2,
		RetryBudgetBurst: 100,
	}, slow, fast)

	for i := 0; i < 8; i++ {
		resp, body := postRun(t, front.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, resp.StatusCode, body)
		}
	}
	// Let the last losing attempt observe its cancellation before asserting.
	waitFor(t, func() bool { return g.replicas[0].inflight.Load() == 0 },
		"slow replica attempt never unwound")
	if st := g.replicas[0].br.State(); st != breakerClosed {
		t.Fatalf("hedge-loser cancellations tripped the slow replica's breaker (state %v)", st)
	}
	if n := g.Metrics().CounterValue("replica0_errs_total"); n != 0 {
		t.Fatalf("replica0_errs_total = %d: gateway-cancelled attempts counted as replica errors", n)
	}
}

// TestOversizeResponseFailsOver: a response larger than the relay cap must
// fail the attempt (and fail over to a replica whose answer fits), never be
// silently truncated and relayed with a 200.
func TestOversizeResponseFailsOver(t *testing.T) {
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		chunk := make([]byte, 1<<20)
		for written := int64(0); written <= maxRelayBytes; written += int64(len(chunk)) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	t.Cleanup(big.Close)
	good := okBackend(t, nil, 0)
	g, front := newPoolGateway(t, Config{
		RetryBudgetBurst: 100,
		DisableHedging:   true,
	}, big, good)

	for i := 0; i < 3; i++ {
		resp, body := postRun(t, front.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want failover to 200", i, resp.StatusCode)
		}
		if rep := resp.Header.Get("X-GE-Replica"); rep != "replica1" {
			t.Fatalf("request %d: a %d-byte truncated body was relayed from %s", i, len(body), rep)
		}
	}
	if n := g.Metrics().CounterValue("replica0_errs_total"); n < 1 {
		t.Fatal("oversize responses were never counted as attempt errors")
	}
	// Oversize is a relay-policy failure, not replica sickness.
	if st := g.replicas[0].br.State(); st != breakerClosed {
		t.Fatalf("oversize responses tripped the breaker (state %v)", st)
	}
}

// TestRetryBudgetExhaustionUnderTotalOutage: with a 100%-failing pool and
// breakers pinned closed, the retry budget is what bounds amplification —
// upstream attempts stay near N(1+ratio)+burst instead of N×MaxAttempts.
func TestRetryBudgetExhaustionUnderTotalOutage(t *testing.T) {
	var hits atomic.Int64
	bad1 := failBackend(t, &hits)
	bad2 := failBackend(t, &hits)
	const (
		n     = 20
		ratio = 0.2
		burst = 2
	)
	g, front := newPoolGateway(t, Config{
		BreakerFailures:  1 << 30, // keep breakers closed: isolate the budget
		RetryBudgetRatio: ratio,
		RetryBudgetBurst: burst,
		DisableHedging:   true,
	}, bad1, bad2)

	for i := 0; i < n; i++ {
		resp, body := postRun(t, front.URL)
		// Every response is the passed-through 500 (never a hang, never a
		// gateway-manufactured error).
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d body %s, want 500 passthrough", i, resp.StatusCode, body)
		}
	}
	if n := g.Metrics().CounterValue("retry_budget_exhausted_total"); n == 0 {
		t.Fatal("retry_budget_exhausted_total = 0: the budget never bit")
	}
	maxAttempts := int64(n + burst + int(float64(n)*ratio) + 1)
	if got := hits.Load(); got > maxAttempts {
		t.Fatalf("upstream attempts %d exceed the budget bound %d", got, maxAttempts)
	}
	if retries := g.Metrics().CounterValue("retries_total"); retries >= n {
		t.Fatalf("retries_total = %d for %d requests: retry amplification unbounded", retries, n)
	}
}

// TestAllBreakersOpenSheds: once every replica's breaker is open the
// gateway sheds instantly with 503 + Retry-After instead of queueing or
// hammering dead backends.
func TestAllBreakersOpenSheds(t *testing.T) {
	var hits atomic.Int64
	bad := failBackend(t, &hits)
	g, front := newPoolGateway(t, Config{
		BreakerFailures:  1,
		BreakerOpenFor:   time.Minute,
		MaxAttempts:      1,
		DisableHedging:   true,
		RetryBudgetBurst: 100,
	}, bad)

	postRun(t, front.URL) // trips the breaker
	before := hits.Load()
	for i := 0; i < 5; i++ {
		resp, body := postRun(t, front.URL)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("shed %d: status %d body %s", i, resp.StatusCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "no healthy replica") {
			t.Fatalf("shed body %s (err %v)", body, err)
		}
	}
	if hits.Load() != before {
		t.Fatalf("dead replica reached %d more times behind an open breaker", hits.Load()-before)
	}
	if n := g.Metrics().CounterValue("gw_no_replica_total"); n != 5 {
		t.Fatalf("gw_no_replica_total = %d, want 5", n)
	}
}

// TestCooldownAfterShed: a replica answering 429 + Retry-After is parked
// (cooldown), not breaker-tripped, and traffic flows to its peer.
func TestCooldownAfterShed(t *testing.T) {
	var shedHits atomic.Int64
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shedHits.Add(1)
		w.Header().Set("Retry-After", "5")
		http.Error(w, `{"error":"admission queue full"}`, http.StatusTooManyRequests)
	}))
	t.Cleanup(shedding.Close)
	good := okBackend(t, nil, 0)
	g, front := newPoolGateway(t, Config{RetryBudgetBurst: 100}, shedding, good)

	for i := 0; i < 8; i++ {
		resp, body := postRun(t, front.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, resp.StatusCode, body)
		}
	}
	// First touch sheds, then the cooldown steers everything to the peer.
	if n := shedHits.Load(); n > 2 {
		t.Fatalf("shedding replica hit %d times despite its Retry-After cooldown", n)
	}
	if st := g.replicas[0].br.State(); st != breakerClosed {
		t.Fatalf("429s tripped the breaker (state %v); they are load, not sickness", st)
	}
}

// TestProbeMarksReplicaUnready: with active probes running, a replica whose
// readyz fails stops receiving traffic even though its data path still
// answers, and readyz on the gateway reflects pool health.
func TestProbeMarksReplicaUnready(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	probed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			if !ready.Load() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ready")
			return
		}
		fmt.Fprint(w, `{"result":{}}`)
	}))
	t.Cleanup(probed.Close)
	good := okBackend(t, nil, 0)
	g, front := newPoolGateway(t, Config{
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		RetryBudgetBurst: 100,
	}, probed, good)
	g.Start()

	ready.Store(false)
	waitFor(t, func() bool { return !g.replicas[0].probeOK.Load() }, "probe never marked replica0 unready")
	for i := 0; i < 6; i++ {
		resp, _ := postRun(t, front.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d failed with %d", i, resp.StatusCode)
		}
		if rep := resp.Header.Get("X-GE-Replica"); rep != "replica1" {
			t.Fatalf("request %d routed to unready %s", i, rep)
		}
	}
	ready.Store(true)
	waitFor(t, func() bool { return g.replicas[0].probeOK.Load() }, "probe never marked replica0 ready again")

	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway readyz %d with a healthy pool", resp.StatusCode)
	}
}

// TestReplicazAndAttribution: the replicaz page lists every replica and
// responses carry attribution headers.
func TestReplicazAndAttribution(t *testing.T) {
	good := okBackend(t, nil, 0)
	_, front := newPoolGateway(t, Config{}, good)
	resp, body := postRun(t, front.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-GE-Replica") != "replica0" || resp.Header.Get("X-GE-Attempts") != "1" {
		t.Fatalf("attribution headers missing: %+v", resp.Header)
	}
	_ = body
	rz, err := http.Get(front.URL + "/replicaz")
	if err != nil {
		t.Fatal(err)
	}
	defer rz.Body.Close()
	page, _ := io.ReadAll(rz.Body)
	if !strings.Contains(string(page), "replica0") || !strings.Contains(string(page), "breaker=closed") {
		t.Fatalf("replicaz page incomplete:\n%s", page)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty replica pool")
	}
	if _, err := New(Config{Replicas: []string{"not a url"}}); err == nil {
		t.Fatal("New accepted a relative replica URL")
	}
}

// pickScratchFor returns a fresh, reset pick scratch for direct pick calls
// in tests and benchmarks.
func pickScratchFor(g *Gateway) *pickScratch {
	sc := g.scratch.Get().(*pickScratch)
	sc.reset()
	return sc
}

// waitFor polls cond with a deadline.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
