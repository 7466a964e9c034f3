package gateway

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// restartableReplica is an in-process geserve stand-in on a real listener
// whose address survives a stop/start cycle — the unit-test analogue of a
// process restart on the same port.
type restartableReplica struct {
	t    *testing.T
	addr string
	mu   sync.Mutex
	srv  *http.Server
	ln   net.Listener
	hits atomic.Int64
}

func newRestartableReplica(t *testing.T) *restartableReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &restartableReplica{t: t, addr: ln.Addr().String()}
	r.serveOn(ln)
	t.Cleanup(r.stop)
	return r
}

func (r *restartableReplica) serveOn(ln net.Listener) {
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"result":{"Jobs":1}}`)
	})}
	r.mu.Lock()
	r.srv, r.ln = srv, ln
	r.mu.Unlock()
	go srv.Serve(ln)
}

// stop tears the replica down abruptly: listener and server close, new
// connections are refused — the client-visible shape of a killed process.
func (r *restartableReplica) stop() {
	r.mu.Lock()
	srv := r.srv
	r.srv = nil
	r.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// restart rebinds the same address.
func (r *restartableReplica) restart() {
	ln, err := net.Listen("tcp", r.addr)
	if err != nil {
		r.t.Errorf("rebinding %s: %v", r.addr, err)
		return
	}
	r.serveOn(ln)
}

// TestKillAndRestartMidRun drives steady client load through the gateway
// while one of two replicas is torn down and later restarted on the same
// address. The pool must absorb the outage with zero client-visible
// failures, and the restarted replica must re-enter rotation through the
// slow-start ramp (observed on /replicaz and in the metrics).
func TestKillAndRestartMidRun(t *testing.T) {
	victim := newRestartableReplica(t)
	stable := newRestartableReplica(t)
	g, front := newPoolGateway(t, Config{
		Replicas:         []string{"http://" + victim.addr, "http://" + stable.addr},
		BreakerOpenFor:   150 * time.Millisecond,
		RetryBudgetBurst: 200,
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		RejoinRampSteps:  3,
		RejoinRampStep:   200 * time.Millisecond,
	})
	g.Start()

	var failures atomic.Int64
	var requests atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(front.URL+"/v1/run", "application/json", strings.NewReader(`{}`))
				requests.Add(1)
				if err != nil {
					failures.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	time.Sleep(150 * time.Millisecond) // steady state on both replicas
	victim.stop()
	time.Sleep(400 * time.Millisecond) // outage: breaker opens, probes fail
	victim.restart()

	// The restarted replica must rejoin and climb the ramp while load keeps
	// flowing.
	waitFor(t, func() bool {
		return g.Metrics().CounterValue("slowstart_enter_total") >= 1
	}, "restarted replica never re-entered rotation")

	// Mid-ramp, replicaz shows the reduced weight.
	resp, err := http.Get(front.URL + "/replicaz")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "slow-start") {
		// The ramp may already have completed if the scheduler starved this
		// goroutine; the metrics then prove it ran.
		if g.Metrics().CounterValue("slowstart_done_total") < 1 {
			t.Fatalf("no slow-start visible on replicaz and no completed ramp:\n%s", page)
		}
	}

	// Let the ramp finish under load, then verify the victim serves again.
	waitFor(t, func() bool {
		return g.Metrics().CounterValue("slowstart_done_total") >= 1
	}, "slow-start ramp never completed")
	before := victim.hits.Load()
	waitFor(t, func() bool { return victim.hits.Load() > before }, "restarted replica serves no traffic")

	close(stop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d client-visible failures out of %d requests across the restart", f, requests.Load())
	}
	if n := rejoinObservations(t, g); n < 1 {
		t.Fatalf("rejoin_seconds histogram empty (count=%d)", n)
	}
	t.Logf("restart absorbed: %d requests, 0 failures, slowstart enters=%d done=%d",
		requests.Load(),
		g.Metrics().CounterValue("slowstart_enter_total"),
		g.Metrics().CounterValue("slowstart_done_total"))
}
