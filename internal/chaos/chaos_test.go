package chaos

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{At: -1, Kind: Blackhole},
		{At: 0, Kind: Blackhole, Duration: -2},
		{At: 0, Kind: Latency, Delay: 0},                // latency needs a positive delay
		{At: 0, Kind: Latency, Delay: 0.1, Jitter: 0.5}, // jitter > delay
		{At: 0, Kind: HTTPError, Code: 404},             // must be 5xx
		{At: 0, Kind: Kind(42)},                         // unknown kind
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v) validated, want error", i, s)
		}
		if _, err := New([]Spec{s}); err == nil {
			t.Errorf("New accepted bad spec %d (%+v)", i, s)
		}
	}
	good := []Spec{
		{At: 0, Kind: Blackhole}, // permanent
		{At: 1.5, Kind: Reset, Duration: 2},
		{At: 0, Kind: Latency, Delay: 0.2, Jitter: 0.05},
		{At: 3, Kind: HTTPError, Code: 503, Duration: 1},
		{At: 3, Kind: HTTPError, Duration: 1}, // code defaults later
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d (%+v): %v", i, s, err)
		}
	}
}

// TestSpecErrorPrefixedOnce: Validate and New each name the package once,
// so gechaos does not print "chaos: spec 1: chaos: ...".
func TestSpecErrorPrefixedOnce(t *testing.T) {
	bad := Spec{At: 1, Kind: Latency}
	if err := bad.Validate(); err == nil || err.Error() != "chaos: latency delay 0 must be finite and positive" {
		t.Errorf("Validate = %v", err)
	}
	_, err := New([]Spec{{At: 0, Kind: Blackhole}, bad})
	if err == nil || err.Error() != "chaos: spec 1: latency delay 0 must be finite and positive" {
		t.Errorf("New = %v", err)
	}
}

func TestScheduleOrderingAndActiveAt(t *testing.T) {
	s, err := New([]Spec{
		{At: 5, Kind: Reset, Duration: 1},
		{At: 1, Kind: Blackhole, Duration: 2},
		{At: 2, Kind: Latency, Delay: 0.1, Duration: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := s.specs
	if specs[0].At != 1 || specs[1].At != 2 || specs[2].At != 5 {
		t.Fatalf("specs not onset-ordered: %+v", specs)
	}
	cases := []struct {
		t    float64
		want []Kind
	}{
		{0.5, nil},
		{1.0, []Kind{Blackhole}},
		{2.5, []Kind{Blackhole, Latency}},
		{3.5, []Kind{Latency}},
		{5.2, []Kind{Latency, Reset}},
		{30, nil}, // everything has lapsed
	}
	for _, c := range cases {
		var got []Kind
		for _, sp := range s.ActiveAt(c.t) {
			got = append(got, sp.Kind)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ActiveAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	// A permanent window never lapses.
	perm, _ := New([]Spec{{At: 1, Kind: Blackhole}})
	if len(perm.ActiveAt(1e9)) != 1 {
		t.Fatal("permanent window lapsed")
	}
	var nilSched *Schedule
	if nilSched.ActiveAt(1) != nil || nilSched.Len() != 0 {
		t.Fatal("nil schedule is not quiet")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(7, 60, 10, 3, Blackhole, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(7, 60, 10, 3, Blackhole, 0, 0)
	if !reflect.DeepEqual(a.specs, b.specs) {
		t.Fatal("same seed produced different schedules")
	}
	if a.Len() == 0 {
		t.Fatal("60s horizon with 10s MTBF produced no outages")
	}
	c, _ := Generate(8, 60, 10, 3, Blackhole, 0, 0)
	if reflect.DeepEqual(a.specs, c.specs) {
		t.Fatal("different seeds produced identical schedules")
	}
	for _, sp := range a.specs {
		if sp.At >= 60 {
			t.Fatalf("onset %v beyond the horizon", sp.At)
		}
		if sp.Duration <= 0 {
			t.Fatalf("generated window is permanent: %+v", sp)
		}
	}
	if _, err := Generate(1, 0, 10, 3, Blackhole, 0, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := Generate(1, 60, 0, 3, Blackhole, 0, 0); err == nil {
		t.Fatal("zero MTBF accepted")
	}
	if _, err := Generate(1, 1e9, 1, 1, Blackhole, 0, 0); err == nil || !strings.Contains(err.Error(), "limit of 100000") {
		t.Fatalf("5e8 expected outages: error %v, want the outage limit", err)
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Latency, Blackhole, Reset, HTTPError} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for alias, want := range map[string]Kind{"slow": Latency, "stall": Blackhole, "rst": Reset, "5xx": HTTPError} {
		if got, err := ParseKind(alias); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v, want %v", alias, got, err, want)
		}
	}
	if _, err := ParseKind("meteor"); err == nil {
		t.Fatal("unknown kind parsed")
	}
}

// startProxy stands up a backend + chaos proxy pair and returns a client
// whose requests traverse the proxy, plus the proxy for Close.
func startProxy(t *testing.T, sched *Schedule, handler http.HandlerFunc) (*Proxy, string) {
	t.Helper()
	backend := httptest.NewServer(handler)
	t.Cleanup(backend.Close)
	target := strings.TrimPrefix(backend.URL, "http://")
	p, err := NewProxy("127.0.0.1:0", target, sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	p.Start()
	return p, "http://" + p.Addr()
}

func echoOK(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	fmt.Fprint(w, "pong")
}

// freshClient avoids keep-alive reuse so each request traverses the proxy's
// accept path independently.
func freshClient(timeout time.Duration) *http.Client {
	tr := &http.Transport{DisableKeepAlives: true}
	return &http.Client{Transport: tr, Timeout: timeout}
}

func TestProxyTransparentWhenQuiet(t *testing.T) {
	sched, _ := New(nil)
	_, base := startProxy(t, sched, echoOK)
	client := freshClient(5 * time.Second)
	for i := 0; i < 3; i++ {
		resp, err := client.Get(base + "/ping")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != "pong" {
			t.Fatalf("request %d: %d %q", i, resp.StatusCode, body)
		}
	}
}

// flakyListener fails its first Accept with a transient error, mimicking
// ECONNABORTED/EMFILE, then delegates to the real listener.
type flakyListener struct {
	net.Listener
	failures int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures > 0 {
		l.failures--
		return nil, errors.New("accept tcp: too many open files")
	}
	return l.Listener.Accept()
}

// TestProxyAcceptRetriesTransientErrors: a transient Accept failure must not
// end the accept loop — that would silently black-hole every later
// connection while the proxy process keeps running.
func TestProxyAcceptRetriesTransientErrors(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(echoOK))
	t.Cleanup(backend.Close)
	sched, _ := New(nil)
	p, err := NewProxy("127.0.0.1:0", strings.TrimPrefix(backend.URL, "http://"), sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	p.ln = &flakyListener{Listener: p.ln, failures: 1} // before Start: no racing Accept yet
	p.Start()
	client := freshClient(5 * time.Second)
	resp, err := client.Get("http://" + p.Addr() + "/ping")
	if err != nil {
		t.Fatalf("request after transient accept error: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "pong" {
		t.Fatalf("got %d %q through the proxy, want 200 pong", resp.StatusCode, body)
	}
}

func TestProxyInjectsLatency(t *testing.T) {
	sched, err := New([]Spec{{At: 0, Kind: Latency, Delay: 0.15}})
	if err != nil {
		t.Fatal(err)
	}
	_, base := startProxy(t, sched, echoOK)
	client := freshClient(10 * time.Second)
	start := time.Now()
	resp, err := client.Get(base + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// Request and response chunks each pay the delay at least once.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("latency window added only %v, want >= 150ms", elapsed)
	}
}

func TestProxyResetsConnections(t *testing.T) {
	sched, err := New([]Spec{{At: 0, Kind: Reset}})
	if err != nil {
		t.Fatal(err)
	}
	_, base := startProxy(t, sched, echoOK)
	client := freshClient(2 * time.Second)
	if _, err := client.Get(base + "/ping"); err == nil {
		t.Fatal("reset window let a request through")
	}
}

func TestProxyServes5xxBurst(t *testing.T) {
	sched, err := New([]Spec{{At: 0, Kind: HTTPError, Code: 503}})
	if err != nil {
		t.Fatal(err)
	}
	_, base := startProxy(t, sched, echoOK)
	client := freshClient(5 * time.Second)
	resp, err := client.Get(base + "/ping")
	if err != nil {
		t.Fatalf("5xx burst should still answer HTTP: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("chaos 503 missing Retry-After")
	}
}

// TestProxyBlackholeRecovers: a request issued inside a finite blackhole
// window parks and then completes once the window lifts — the schedule
// clock, not luck, decides when the stall ends.
func TestProxyBlackholeRecovers(t *testing.T) {
	sched, err := New([]Spec{{At: 0, Kind: Blackhole, Duration: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	_, base := startProxy(t, sched, echoOK)
	client := freshClient(10 * time.Second)
	start := time.Now()
	resp, err := client.Get(base + "/ping")
	if err != nil {
		t.Fatalf("blackholed request never recovered: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "pong" {
		t.Fatalf("recovered with %d %q", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed < 350*time.Millisecond {
		t.Fatalf("request finished in %v, inside the 400ms blackhole window", elapsed)
	}
}

func TestScheduleString(t *testing.T) {
	var nilSched *Schedule
	if nilSched.String() != "quiet" {
		t.Fatalf("nil schedule renders %q", nilSched.String())
	}
	s, _ := New([]Spec{{At: 2, Kind: Blackhole, Duration: 5}, {At: 9, Kind: Reset}})
	want := "blackhole@2+5s,reset@9"
	if s.String() != want {
		t.Fatalf("String() = %q, want %q", s.String(), want)
	}
}
