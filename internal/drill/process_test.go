package drill

import (
	"path/filepath"
	"testing"
	"time"
)

// TestDrillEndToEnd boots a real 3-replica governed fleet behind gegate,
// runs a seeded kill + pause schedule against the live processes, and
// requires every invariant to hold. CI's drill job runs the same drill
// through cmd/gedrill.
func TestDrillEndToEnd(t *testing.T) {
	skipShort(t)
	geserve, gegate := binary(t, "geserve"), binary(t, "gegate")

	report, err := Run(Config{
		Seed:        7,
		Replicas:    3,
		Rate:        30,
		Duration:    8 * time.Second, // kill + pause; no rolling below 12s
		Governed:    true,
		GeservePath: geserve,
		GegatePath:  gegate,
		WorkDir:     t.TempDir(),
		RejoinBound: 5 * time.Second,
		GoodputFrac: 0.9,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Pass {
		t.Fatalf("drill invariants failed: %v\nreport: %+v", report.Failures, report)
	}
	if report.Requests < 100 {
		t.Fatalf("only %d requests offered; the driver is not keeping rate", report.Requests)
	}
	if report.Acked == 0 {
		t.Fatal("no acknowledged requests")
	}
	// The kill must actually have been observed end to end.
	if report.SlowStartEnters < 1 {
		t.Fatalf("slow-start never entered (enters=%d)", report.SlowStartEnters)
	}
	if len(report.Rejoins) < 1 {
		t.Fatal("no rejoin measured for the killed replica")
	}
	t.Logf("drill: %d req, %d acked, %d shed, %d errors, rejoin max %v, orphans %d (budget %d)",
		report.Requests, report.Acked, report.Shed, report.Errors,
		report.RejoinMax, len(report.Orphans), report.OrphanBudget)
}

// sleeper starts a process that outlives the test unless it is stopped.
func sleeper(t *testing.T) *proc {
	t.Helper()
	p, err := newProc("sleep", "/bin/sleep", []string{"30"}, filepath.Join(t.TempDir(), "sleep.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.close)
	return p
}

// returns fails the test if stop does not return within a bound, instead
// of hanging the test binary.
func returns(t *testing.T, what string, stop func() error) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		_ = stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatalf("%s still blocked after 3s", what)
	}
}

// TestStopAfterKill: stopping a killed process returns at once. Teardown
// does exactly this after a kill whose relaunch failed.
func TestStopAfterKill(t *testing.T) {
	p := sleeper(t)
	if err := p.kill(); err != nil {
		t.Fatal(err)
	}
	returns(t, "stop after kill", func() error { return p.stop(200 * time.Millisecond) })
}

// TestStopTwice: a second stop of the same incarnation returns at once.
func TestStopTwice(t *testing.T) {
	p := sleeper(t)
	returns(t, "first stop", func() error { return p.stop(200 * time.Millisecond) })
	returns(t, "second stop", func() error { return p.stop(200 * time.Millisecond) })
}
