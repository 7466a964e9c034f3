package server

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"goodenough"
	"goodenough/internal/governor"
)

// blockOnRelease is a RunFunc that parks until release is closed,
// regardless of its context — it models a worker that cannot observe
// cancellation promptly, so a governor cut does not immediately empty the
// in-flight set. started (if non-nil) receives one token per invocation.
func blockOnRelease(release, started chan struct{}) RunFunc {
	return func(ctx context.Context, _ goodenough.Config) (goodenough.Result, error) {
		if started != nil {
			started <- struct{}{}
		}
		<-release
		res := goodenough.Result{}
		if ctx.Err() != nil {
			res.Cancelled = true
			res.CancelReason = ctx.Err().Error()
		}
		return res, nil
	}
}

// newGovernor builds a test governor or fails the test.
func newGovernor(t *testing.T, cfg governor.Config) *governor.Governor {
	t.Helper()
	g, err := governor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGovernedHappyPath: with ample budget the ladder stays at ok, replies
// carry quality 1 and the brownout headers, and /readyz reports the state
// while keeping its "ready" first-line contract.
func TestGovernedHappyPath(t *testing.T) {
	g := newGovernor(t, governor.Config{
		Budget:  1000,
		Quantum: time.Millisecond,
	})
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, Governor: g})
	defer s.Drain(context.Background())

	code, hdr, _ := postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
	if code != http.StatusOK {
		t.Fatalf("run status = %d, want 200", code)
	}
	if got := hdr.Get("X-GE-Quality"); got == "" {
		t.Fatal("missing X-GE-Quality on governed reply")
	} else if q, err := strconv.ParseFloat(got, 64); err != nil || q != 1 {
		t.Fatalf("X-GE-Quality = %q, want 1.0000 for an uncut run", got)
	}
	if got := hdr.Get("X-GE-Brownout"); got != "ok" {
		t.Fatalf("X-GE-Brownout = %q, want ok", got)
	}
	if got := hdr.Get("X-GE-Headroom"); got == "" {
		t.Fatal("missing X-GE-Headroom on governed reply")
	} else if h, err := strconv.ParseFloat(got, 64); err != nil || h < 0 || h > 1 {
		t.Fatalf("X-GE-Headroom = %q, want a fraction in [0,1]", got)
	}

	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-GE-Brownout"); got != "ok" {
		t.Fatalf("readyz X-GE-Brownout = %q, want ok", got)
	}
	body := readAll(t, resp)
	if !strings.HasPrefix(body, "ready") {
		t.Fatalf("readyz body does not start with ready: %q", firstLine(body))
	}
	if !strings.Contains(firstLine(body), "state=ok") {
		t.Fatalf("readyz first line missing state: %q", firstLine(body))
	}
}

// TestBrownoutShedsWithDrainHint drives a governed server into shedding —
// a starvation budget against a genuinely occupied worker — and checks the
// full brownout surface: 429 + Retry-After on new work, X-GE-Brownout:
// shedding, a 503 "shedding" readyz, and a cut partial result (quality < 1)
// once the occupied worker returns.
func TestBrownoutShedsWithDrainHint(t *testing.T) {
	// The occupied request stays in flight until release, and alone it
	// holds the load at 20x the budget, so the ladder cannot recover
	// before then.
	g := newGovernor(t, governor.Config{
		Budget:  0.05, // one running request is 20x over budget
		Quantum: time.Millisecond,
	})
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 2,
		QueueDepth:    2,
		Governor:      g,
		Run:           blockOnRelease(release, started),
	})
	defer s.Drain(context.Background())

	type reply struct {
		code int
		hdr  http.Header
	}
	occupied := make(chan reply, 1)
	go func() {
		code, hdr, _ := postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
		occupied <- reply{code, hdr}
	}()
	<-started

	deadline := time.Now().Add(5 * time.Second)
	for g.State() != governor.StateShedding {
		if time.Now().After(deadline) {
			t.Fatalf("governor never reached shedding; state=%v", g.State())
		}
		time.Sleep(time.Millisecond)
	}

	// New work is refused with the drain-derived hint.
	code, hdr, body := postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
	if code != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429 (body %s)", code, body)
	}
	if got := hdr.Get("X-GE-Brownout"); got != "shedding" {
		t.Fatalf("shed X-GE-Brownout = %q, want shedding", got)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("shed Retry-After = %q, want an integer >= 1", hdr.Get("Retry-After"))
	}
	if !strings.Contains(string(body), "brownout") {
		t.Fatalf("shed body does not mention brownout: %s", body)
	}
	if n := s.metrics.CounterValue("brownout_shed_total"); n < 1 {
		t.Fatalf("brownout_shed_total = %d, want >= 1", n)
	}

	// readyz flips to 503 shedding so balancers stop routing here.
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rbody := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz status = %d, want 503 while shedding", resp.StatusCode)
	}
	if !strings.HasPrefix(rbody, "shedding") {
		t.Fatalf("readyz body = %q, want shedding", firstLine(rbody))
	}

	// The occupied worker is cut (its context cancelled by the governor);
	// when it finally returns, the reply is a 200 partial with quality < 1.
	// The governor's one-quantum grace can delay the cut past the tick that
	// entered shedding, so wait for it before releasing the worker.
	for g.Cuts() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("governor never cut the occupied run; state=%v", g.State())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	rep := <-occupied
	if rep.code != http.StatusOK {
		t.Fatalf("cut run status = %d, want 200 partial", rep.code)
	}
	q, err := strconv.ParseFloat(rep.hdr.Get("X-GE-Quality"), 64)
	if err != nil || q < 0 || q >= 1 {
		t.Fatalf("cut run X-GE-Quality = %q, want a fraction < 1", rep.hdr.Get("X-GE-Quality"))
	}
	if n := s.metrics.CounterValue("governor_cut_total"); n < 1 {
		t.Fatalf("governor_cut_total = %d, want >= 1", n)
	}
}

// TestReadyzSaturatedWithoutGovernor: an ungoverned server whose admission
// queue is full reports 503 saturated — the passive signal satellite for
// balancers that only probe readiness.
func TestReadyzSaturatedWithoutGovernor(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		QueueDepth:    1,
		Run:           blockOnRelease(release, started),
	})
	defer func() {
		close(release)
		s.Drain(context.Background())
	}()

	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ { // one running, one queued
		go func() {
			postJSON(t, ts.Client(), ts.URL+"/v1/run", tinyBody)
			done <- struct{}{}
		}()
	}
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled; depth=%d", s.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz status = %d, want 503 when saturated", resp.StatusCode)
	}
	if !strings.HasPrefix(body, "saturated") {
		t.Fatalf("readyz body = %q, want saturated", firstLine(body))
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
