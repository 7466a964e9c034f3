package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"goodenough"
	"goodenough/internal/sched"
)

// tinyBody is a config overlay that finishes in well under a second.
const tinyBody = `{"DurationSec":0.2,"ArrivalRate":80,"Cores":4}`

// runResult mirrors the /v1/run response shape for decoding.
type runResult struct {
	Result goodenough.Result `json:"result"`
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, client *http.Client, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// blockUntilCancelled is a RunFunc that parks until its context dies, then
// reports the partial-result shape goodenough.RunContext would produce. A
// non-nil started receives one token per invocation.
func blockUntilCancelled(started chan struct{}) RunFunc {
	return func(ctx context.Context, _ goodenough.Config) (goodenough.Result, error) {
		if started != nil {
			started <- struct{}{}
		}
		<-ctx.Done()
		return goodenough.Result{Cancelled: true, CancelReason: ctx.Err().Error()}, nil
	}
}

// counterValue extracts one counter from a /metricz snapshot.
func counterValue(t *testing.T, metricz []byte, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(string(metricz), "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "counter" && f[1] == name {
			v, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				t.Fatalf("counter %s: bad value %q", name, f[2])
			}
			return v
		}
	}
	t.Fatalf("counter %s missing from metricz:\n%s", name, metricz)
	return 0
}

func getBody(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func TestRunEndpointOK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var rr runResult
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Result.Cancelled || rr.Result.Jobs == 0 || rr.Result.SimTime <= 0 {
		t.Fatalf("implausible result: %+v", rr.Result)
	}
}

func TestRunEndpointRejectsBadConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	limit := fmt.Sprintf("limit of %d", sched.MaxCores)
	cases := []struct {
		name, body, want string
	}{
		{"invalid field value", `{"Scheduler":"nope"}`, "unknown scheduler"},
		{"unknown json field", `{"Schedular":"ge"}`, "unknown field"},
		{"malformed json", `{"DurationSec":`, "bad config"},
		{"unbounded fault schedule", `{"DurationSec":1e6,"FaultMTBFSec":0.001,"FaultMTTRSec":0.001}`, "exceed the limit of 100000"},
		{"trailing json value", `{"DurationSec":0.5} {"Scheduler":"nope"}`, "trailing data"},
		{"cores over the limit", `{"Cores":2000000000}`, limit},
		{"core group over the limit", `{"CoreGroups":[{"Count":2000000000,"PowerAlpha":5,"PowerBeta":2}]}`, limit},
		{"core groups over the limit", `{"CoreGroups":[{"Count":1000,"PowerAlpha":5,"PowerBeta":2},` +
			`{"Count":9223372036854775807,"PowerAlpha":5,"PowerBeta":2}]}`, limit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", code, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Fatalf("error %s does not mention %q", body, tc.want)
			}
		})
	}
}

// TestEndpointsRejectTrailingJSON sends each JSON endpoint a valid body
// followed by a second value: the request must be a 400, not a run of the
// first value with the second ignored.
func TestEndpointsRejectTrailingJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct{ path, body string }{
		{"/v1/run", `{"DurationSec":0.5} {"Scheduler":"nope"}`},
		{"/v1/run", `{"DurationSec":0.5} x`},
		{"/v1/sweep", `{"config":{"DurationSec":0.1},"rates":[100]} {"rates":[1]}`},
		{"/v1/trace", `{"config":{},"trace":{"jobs":[]}} {"config":{}}`},
	}
	for _, tc := range cases {
		code, _, raw := postJSON(t, ts.Client(), ts.URL+tc.path, tc.body)
		if code != http.StatusBadRequest || !strings.Contains(string(raw), "trailing data") {
			t.Errorf("%s %s: status %d %s, want a 400 naming the trailing data", tc.path, tc.body, code, raw)
		}
	}
}

// TestShedQueueFull saturates one worker slot and a one-deep queue, then
// verifies the next request is shed with 429 + Retry-After while the admitted
// ones finish (as partials) once the server drains.
func TestShedQueueFull(t *testing.T) {
	started := make(chan struct{}, 8)
	s, ts := newTestServer(t, Config{
		MaxConcurrent:  1,
		QueueDepth:     1,
		RequestTimeout: time.Minute,
		DrainTimeout:   50 * time.Millisecond,
		RetryAfter:     2 * time.Second,
		Run:            blockUntilCancelled(started),
	})

	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, 2)
	fire := func() {
		go func() {
			code, _, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
			replies <- reply{code, body}
		}()
	}

	fire() // occupies the only slot
	<-started
	fire() // sits in the queue
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued == 1
	}, "second request never queued")

	// Queue full: this one must be shed immediately with the backoff hint.
	code, hdr, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	var eb struct {
		RetryAfterMS int64 `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.RetryAfterMS != 2000 {
		t.Fatalf("shed body %s (err %v), want retry_after_ms 2000", body, err)
	}

	// Drain: the running request is force-cancelled after DrainTimeout and
	// answers 200/partial; the queued one is woken and shed as draining.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	sawPartial := false
	for i := 0; i < 2; i++ {
		r := <-replies
		switch r.code {
		case http.StatusOK:
			var rr runResult
			if err := json.Unmarshal(r.body, &rr); err != nil || !rr.Result.Cancelled {
				t.Fatalf("drained run not partial: %s", r.body)
			}
			sawPartial = true
		case http.StatusServiceUnavailable:
			// the queued waiter, shed by the drain
		default:
			t.Fatalf("unexpected status %d: %s", r.code, r.body)
		}
	}
	if !sawPartial {
		t.Fatal("force-cancelled in-flight run never returned its partial result")
	}
}

// TestDrainGraceful verifies the full drain contract: in-flight runs finish
// (force-cancelled at the deadline), Drain blocks until they do, readiness
// flips to 503, and later submissions are rejected as draining.
func TestDrainGraceful(t *testing.T) {
	started := make(chan struct{}, 2)
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 2,
		DrainTimeout:  50 * time.Millisecond,
		Run:           blockUntilCancelled(started),
	})

	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, _ := postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
			codes <- code
		}()
	}
	<-started
	<-started

	if code, body := getBody(t, ts.Client(), ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d %s", code, body)
	}

	drainStart := time.Now()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(drainStart); d > 5*time.Second {
		t.Fatalf("drain took %v; force-cancel did not bound it", d)
	}
	if s.InFlight() != 0 {
		t.Fatalf("%d runs still in flight after Drain returned", s.InFlight())
	}
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("in-flight run answered %d after drain, want 200/partial", code)
		}
	}

	if code, body := getBody(t, ts.Client(), ts.URL+"/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "draining") {
		t.Fatalf("readyz during drain: %d %s", code, body)
	}
	code, _, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("post-drain submission: %d %s", code, body)
	}
	// Idempotent: a second Drain returns immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPanicRecovered verifies the middleware converts a panicking run into a
// structured 500, counts it, and leaves the server serving.
func TestPanicRecovered(t *testing.T) {
	old := debugWriter
	debugWriter = io.Discard // keep the expected stack dump out of test output
	defer func() { debugWriter = old }()

	_, ts := newTestServer(t, Config{
		Run: func(ctx context.Context, cfg goodenough.Config) (goodenough.Result, error) {
			panic("sim state corrupted")
		},
	})
	code, _, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", code, body)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "sim state corrupted") {
		t.Fatalf("500 body not structured: %s (err %v)", body, err)
	}

	// The process survived: liveness still answers and the panic is counted.
	if code, _ := getBody(t, ts.Client(), ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", code)
	}
	_, metricz := getBody(t, ts.Client(), ts.URL+"/metricz?format=plain")
	if n := counterValue(t, metricz, "panics_total"); n != 1 {
		t.Fatalf("panics_total = %d, want 1", n)
	}
	// A slot must not have leaked: the next (panicking) request is admitted,
	// not shed.
	code, _, _ = postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
	if code != http.StatusInternalServerError {
		t.Fatalf("second request after panic: %d, want 500 (admitted)", code)
	}
}

// TestRequestTimeoutReturnsPartial runs a real (unbounded) simulation under a
// tiny request timeout and expects a 200 whose Result is flagged Cancelled —
// the good-enough contract end to end.
func TestRequestTimeoutReturnsPartial(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 60 * time.Millisecond})
	code, _, body := postJSON(t, ts.Client(), ts.URL+"/v1/run",
		`{"DurationSec":1e6,"ArrivalRate":200,"Cores":4}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var rr runResult
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Result.Cancelled || rr.Result.CancelReason != context.DeadlineExceeded.Error() {
		t.Fatalf("timed-out run not partial: %+v", rr.Result)
	}
	_, metricz := getBody(t, ts.Client(), ts.URL+"/metricz?format=plain")
	if n := counterValue(t, metricz, "run_cancelled_total"); n != 1 {
		t.Fatalf("run_cancelled_total = %d, want 1", n)
	}
}

// TestClientGoneWhileQueued cancels a request stuck in the admission queue
// and verifies the waiter is released and counted.
func TestClientGoneWhileQueued(t *testing.T) {
	started := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		QueueDepth:    2,
		DrainTimeout:  50 * time.Millisecond,
		Run:           blockUntilCancelled(started),
	})
	go func() {
		postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", strings.NewReader(tinyBody))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued == 1
	}, "second request never queued")
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled client got a response")
	}
	waitFor(t, func() bool {
		_, metricz := getBody(t, ts.Client(), ts.URL+"/metricz?format=plain")
		for _, line := range strings.Split(string(metricz), "\n") {
			f := strings.Fields(line)
			if len(f) == 3 && f[1] == "client_gone_total" {
				return f[2] == "1"
			}
		}
		return false
	}, "client_gone_total never incremented")
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepPoints: 4})
	body := `{"config":{"DurationSec":0.2,"Cores":4},"rates":[80,120],"seeds":[1,2]}`
	code, _, raw := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	var sr sweepResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cancelled || len(sr.Points) != 4 {
		t.Fatalf("sweep returned %d points (cancelled=%v), want 4", len(sr.Points), sr.Cancelled)
	}
	for _, p := range sr.Points {
		if p.Result.Jobs == 0 {
			t.Fatalf("empty point %+v", p)
		}
	}

	// One over the fan-out cap is a 400, not a half-run.
	big := `{"config":{},"rates":[1,2,3],"seeds":[1,2]}`
	if code, _, raw := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", big); code != http.StatusBadRequest {
		t.Fatalf("oversized sweep: %d %s", code, raw)
	}
}

func TestTraceEndpoint(t *testing.T) {
	cfg := goodenough.DefaultConfig()
	cfg.DurationSec = 0.2
	cfg.Cores = 4
	var trace strings.Builder
	if err := goodenough.ExportTrace(cfg, &trace); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"config":{"DurationSec":0.2,"Cores":4},"trace":%s}`, trace.String())
	code, _, raw := postJSON(t, ts.Client(), ts.URL+"/v1/trace", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	var rr runResult
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Result.Jobs == 0 {
		t.Fatalf("trace replay processed no jobs: %+v", rr.Result)
	}

	if code, _, raw := postJSON(t, ts.Client(), ts.URL+"/v1/trace", `{"config":{}}`); code != http.StatusBadRequest ||
		!strings.Contains(string(raw), "missing trace") {
		t.Fatalf("traceless request: %d %s", code, raw)
	}
}

// TestConcurrentHammer is the race-focused test: many clients pound one
// server with real (tiny) simulations while others read the health and
// metrics endpoints. Run under -race in CI; correctness assertions are that
// every response is 200 or 429 and that the books balance afterwards.
func TestConcurrentHammer(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxConcurrent:  4,
		QueueDepth:     4,
		RequestTimeout: 30 * time.Second,
	})
	const (
		clients    = 12
		perClient  = 3
		metricGets = 40
	)
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				code, _, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
				if code != http.StatusOK && code != http.StatusTooManyRequests {
					t.Errorf("hammer got %d: %s", code, body)
				}
				mu.Lock()
				statuses[code]++
				mu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < metricGets; i++ {
			getBody(t, ts.Client(), ts.URL+"/metricz?format=plain")
			getBody(t, ts.Client(), ts.URL+"/readyz")
		}
	}()
	wg.Wait()

	if statuses[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded: %v", statuses)
	}
	if s.InFlight() != 0 {
		t.Fatalf("%d runs still in flight after hammer", s.InFlight())
	}
	_, metricz := getBody(t, ts.Client(), ts.URL+"/metricz?format=plain")
	okN := counterValue(t, metricz, "run_ok_total")
	shedN := counterValue(t, metricz, "shed_total")
	if int(okN) != statuses[http.StatusOK] || int(shedN) != statuses[http.StatusTooManyRequests] {
		t.Fatalf("metrics disagree with observed statuses: ok %d/%d shed %d/%d",
			okN, statuses[http.StatusOK], shedN, statuses[http.StatusTooManyRequests])
	}
}

// waitFor polls cond with a deadline; cheap substitute for sleeps in tests
// that need the server to reach an internal state.
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
