package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func openTestJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// TestJournalLifecycle: a clean accept/done pair leaves no orphans; an
// accept with no done surfaces as one in the next incarnation's recovery.
func TestJournalLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	j1 := openTestJournal(t, path)
	if j1.inc != 1 {
		t.Fatalf("first incarnation = %d, want 1", j1.inc)
	}
	if rec := j1.Recovery(); rec.PriorRecords != 0 || len(rec.Orphans) != 0 {
		t.Fatalf("fresh journal recovery = %+v, want empty", rec)
	}
	j1.Accept("req-clean", "/v1/run")
	j1.Done("req-clean", 200)
	j1.Accept("req-lost", "/v1/run") // crash before done
	j1.Close()

	j2 := openTestJournal(t, path)
	rec := j2.Recovery()
	if j2.inc != 2 {
		t.Fatalf("second incarnation = %d, want 2", j2.inc)
	}
	if rec.Corrupt != 0 {
		t.Fatalf("corrupt = %d on a cleanly written journal", rec.Corrupt)
	}
	if len(rec.Orphans) != 1 || rec.Orphans[0].ID != "req-lost" || rec.Orphans[0].Inc != 1 {
		t.Fatalf("orphans = %+v, want exactly req-lost from incarnation 1", rec.Orphans)
	}

	// A request finished by incarnation 2 does not re-orphan; the old
	// orphan stays open forever (it can never be finished) but is reported
	// only once per record set, which a third boot still sees.
	j2.Accept("req-fine", "/v1/sweep")
	j2.Done("req-fine", 200)
	j2.Close()
	j3 := openTestJournal(t, path)
	if got := len(j3.Recovery().Orphans); got != 1 {
		t.Fatalf("third boot sees %d orphans, want 1 (the permanent one)", got)
	}
}

// TestJournalTornLine: a crash mid-append tears the final line; the next
// boot counts it corrupt and keeps every whole record.
func TestJournalTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openTestJournal(t, path)
	j.Accept("whole", "/v1/run")
	j.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"done","inc":1,"id":"who`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := openTestJournal(t, path)
	rec := j2.Recovery()
	if rec.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1 torn line", rec.Corrupt)
	}
	if len(rec.Orphans) != 1 || rec.Orphans[0].ID != "whole" {
		t.Fatalf("orphans = %+v, want the whole accept to survive the tear", rec.Orphans)
	}
}

// TestJournalConcurrentAppend hammers Accept/Done from many goroutines and
// checks every line survives whole (the single-Write O_APPEND guarantee).
func TestJournalConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openTestJournal(t, path)
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := j.NextID()
				j.Accept(id, "/v1/run")
				j.Done(id, 200)
			}
		}()
	}
	wg.Wait()
	j.Close()
	if errs := j.Errs(); errs != 0 {
		t.Fatalf("journal write errors: %d", errs)
	}

	recs, corrupt, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("%d corrupt lines from concurrent appends", corrupt)
	}
	want := 1 + writers*per*2 // boot + accept/done pairs
	if len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	j2 := openTestJournal(t, path)
	if got := len(j2.Recovery().Orphans); got != 0 {
		t.Fatalf("%d orphans after fully paired appends", got)
	}
}

// TestJournaledServer: requests through a journaled server record
// accept/done pairs keyed by the caller's trace ID, and /recoveryz reports
// the prior incarnation's orphans.
func TestJournaledServer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	// Incarnation 1 "crashes" with a request mid-flight: simulate by
	// accepting via a blocked run, then abandoning the journal file without
	// a done (close the server without letting the run finish — simplest is
	// to journal the orphan directly, which is exactly what a SIGKILL
	// leaves behind).
	j1 := openTestJournal(t, path)
	j1.Accept("00000000deadbeef", "/v1/run")
	j1.Close()

	j2 := openTestJournal(t, path)
	_, ts := newTestServer(t, Config{Journal: j2})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(tinyBody))
	req.Header.Set("X-GE-Trace-Id", "00000000cafef00d")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", resp.StatusCode)
	}

	code, body := getBody(t, http.DefaultClient, ts.URL+"/recoveryz")
	if code != http.StatusOK {
		t.Fatalf("recoveryz status = %d", code)
	}
	var rec recoveryzBody
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatalf("recoveryz body %s: %v", body, err)
	}
	if !rec.Enabled || rec.Incarnation != 2 {
		t.Fatalf("recoveryz = %+v, want enabled incarnation 2", rec)
	}
	if len(rec.Orphans) != 1 || rec.Orphans[0].ID != "00000000deadbeef" {
		t.Fatalf("recoveryz orphans = %+v", rec.Orphans)
	}

	recs, _, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var gotAccept, gotDone bool
	for _, r := range recs {
		if r.Inc != 2 || r.ID != "00000000cafef00d" {
			continue
		}
		switch r.T {
		case "accept":
			gotAccept = true
			if r.Path != "/v1/run" {
				t.Fatalf("accept path = %q", r.Path)
			}
		case "done":
			gotDone = true
			if r.Status != http.StatusOK {
				t.Fatalf("done status = %d", r.Status)
			}
		}
	}
	if !gotAccept || !gotDone {
		t.Fatalf("trace-keyed records missing: accept=%v done=%v in %+v", gotAccept, gotDone, recs)
	}
}

// TestRecoveryzDisabled: without a journal the endpoint stays up and says
// so, so probes and the drill harness can always GET it.
func TestRecoveryzDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := getBody(t, http.DefaultClient, ts.URL+"/recoveryz")
	if code != http.StatusOK {
		t.Fatalf("recoveryz status = %d", code)
	}
	var rec recoveryzBody
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Enabled {
		t.Fatal("recoveryz claims enabled without a journal")
	}
}

// TestJournalShedNotAccepted: a shed request must NOT hit the journal —
// the ledger tracks acknowledged work only, which is what makes orphan
// counts meaningful.
func TestJournalShedNotAccepted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openTestJournal(t, path)
	started := make(chan struct{}, 4)
	s, ts := newTestServer(t, Config{
		Journal:       j,
		MaxConcurrent: 1,
		QueueDepth:    1,
		Run:           blockUntilCancelled(started),
	})

	// Fill the worker and the queue, then overflow.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tinyBody))
			errs <- err
		}()
	}
	<-started // the worker slot is occupied
	waitForQueued(t, s, 1)
	code, _, _ := postJSON(t, http.DefaultClient, ts.URL+"/v1/run", tinyBody)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)
	for i := 0; i < 2; i++ {
		<-errs
	}

	recs, _, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	accepts := 0
	for _, r := range recs {
		if r.T == "accept" {
			accepts++
		}
	}
	// Only the request that actually ran was journaled: the overflow was
	// shed with 429, and the queued waiter was shed by the drain before
	// admission — neither may appear as accepted work.
	if accepts != 1 {
		t.Fatalf("journal has %d accepts, want 1 (shed requests must not appear)", accepts)
	}
}

// waitForQueued polls until the admission queue holds n waiters.
func waitForQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, s.QueueDepth())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
