package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// The request journal is geserve's crash-safety ledger: an append-only
// JSONL file recording every boot, every admitted request, and every
// completion. The ordering discipline carries the correctness argument:
//
//   - "accept" is written after admission but BEFORE any work runs, so a
//     SIGKILL mid-run leaves an accept with no matching done — an orphan
//     the next incarnation reports on startup and via /recoveryz.
//   - "done" is written BEFORE the response bytes go out, so a crash
//     between the two yields a false "done" for a request the client never
//     saw acknowledged. That is the safe direction: the client (or the
//     gateway's retry) treats the silence as failure and resends; the
//     invariant the drill harness checks — no request both acknowledged to
//     the client and absent from the journal — still holds.
//
// Records are written with a single Write syscall on an O_APPEND
// descriptor, so concurrent request goroutines interleave whole lines, and
// a torn final line from a crash mid-write is detected (not fatal) on the
// next open.

// JournalRecord is one line of the journal file.
type JournalRecord struct {
	// T is the record type: "boot", "accept", or "done".
	T string `json:"t"`
	// Inc is the incarnation (boot count) that wrote the record.
	Inc int64 `json:"inc"`
	// TS is the wall-clock time of the record in unix nanoseconds.
	TS int64 `json:"ts"`
	// ID identifies the request on accept/done records: the 16-hex-digit
	// trace ID when the caller sent one (X-GE-Trace-Id), else a local
	// "inc-seq" identity. Empty on boot records.
	ID string `json:"id,omitempty"`
	// Path is the endpoint on accept records.
	Path string `json:"path,omitempty"`
	// Status is the HTTP status on done records.
	Status int `json:"status,omitempty"`
	// PID is the process ID on boot records.
	PID int `json:"pid,omitempty"`
}

// Orphan is an accepted request from a previous incarnation that never
// recorded a done: work the process acknowledged taking and then lost to a
// crash.
type Orphan struct {
	Inc  int64  `json:"inc"`
	ID   string `json:"id"`
	Path string `json:"path"`
	TS   int64  `json:"ts"`
}

// Recovery is the startup reconciliation report: what this incarnation
// found in the journal left by its predecessors. Served by /recoveryz.
type Recovery struct {
	Incarnation  int64 `json:"incarnation"`
	PriorRecords int   `json:"prior_records"`
	// Corrupt counts unparseable lines — almost always exactly one, the
	// line a crash tore mid-write.
	Corrupt int      `json:"corrupt"`
	Orphans []Orphan `json:"orphans"`
}

// Journal is the open, writable journal held by a running server.
type Journal struct {
	f    *os.File
	path string
	inc  int64
	seq  atomic.Uint64
	errs atomic.Int64
	rec  Recovery
}

// OpenJournal opens (creating if needed) the journal at path, reconciles
// every record left by previous incarnations into a Recovery report, and
// appends this incarnation's boot record.
func OpenJournal(path string) (*Journal, error) {
	prior, corrupt, err := ReadJournal(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	var lastInc int64
	open := make(map[string]Orphan, 8)
	for _, r := range prior {
		if r.Inc > lastInc {
			lastInc = r.Inc
		}
		switch r.T {
		case "accept":
			open[r.ID] = Orphan{Inc: r.Inc, ID: r.ID, Path: r.Path, TS: r.TS}
		case "done":
			delete(open, r.ID)
		}
	}
	orphans := make([]Orphan, 0, len(open))
	for _, o := range open {
		orphans = append(orphans, o)
	}
	// Deterministic order for logs and tests: journal position.
	for i := 1; i < len(orphans); i++ {
		for j := i; j > 0 && orphans[j].TS < orphans[j-1].TS; j-- {
			orphans[j], orphans[j-1] = orphans[j-1], orphans[j]
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		f:    f,
		path: path,
		inc:  lastInc + 1,
		rec: Recovery{
			Incarnation:  lastInc + 1,
			PriorRecords: len(prior),
			Corrupt:      corrupt,
			Orphans:      orphans,
		},
	}
	j.append(JournalRecord{T: "boot", Inc: j.inc, TS: time.Now().UnixNano(), PID: os.Getpid()})
	return j, nil
}

// Recovery returns the startup reconciliation report (immutable after
// OpenJournal).
func (j *Journal) Recovery() Recovery { return j.rec }

// Errs returns the number of journal writes that failed. A failing journal
// never fails requests — durability of the ledger degrades, serving does
// not — but the count is exported so operators notice.
func (j *Journal) Errs() int64 { return j.errs.Load() }

// NextID mints a local request identity for callers that sent no trace ID.
func (j *Journal) NextID() string {
	return fmt.Sprintf("%d-%d", j.inc, j.seq.Add(1))
}

// Accept records that the request was admitted and is about to run. Must
// be called before any work happens on the request's behalf.
func (j *Journal) Accept(id, path string) {
	j.append(JournalRecord{T: "accept", Inc: j.inc, TS: time.Now().UnixNano(), ID: id, Path: path})
}

// Done records the request's outcome. Must be called before the response
// is written to the client.
func (j *Journal) Done(id string, status int) {
	j.append(JournalRecord{T: "done", Inc: j.inc, TS: time.Now().UnixNano(), ID: id, Status: status})
}

func (j *Journal) append(r JournalRecord) {
	line, err := json.Marshal(r)
	if err != nil {
		j.errs.Add(1)
		return
	}
	line = append(line, '\n')
	// One Write on an O_APPEND fd: concurrent appenders cannot tear each
	// other's lines, and a crash tears at most the final line.
	if _, err := j.f.Write(line); err != nil {
		j.errs.Add(1)
	}
}

// Close closes the journal file. No final record is written — a clean
// shutdown is visible as "no orphans", not as a marker that a crash could
// forge by its absence.
func (j *Journal) Close() error { return j.f.Close() }

// ReadJournal parses every well-formed record in the journal at path and
// counts the malformed lines. Used by OpenJournal's reconciliation and by
// the drill harness's acknowledged-vs-journal audit.
func ReadJournal(path string) (records []JournalRecord, corrupt int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r JournalRecord
		if json.Unmarshal(line, &r) != nil || r.T == "" {
			corrupt++
			continue
		}
		records = append(records, r)
	}
	if err := sc.Err(); err != nil {
		return records, corrupt, err
	}
	return records, corrupt, nil
}
