package drill

import (
	"reflect"
	"testing"
	"time"

	"goodenough/internal/server"
)

// TestGenerateDeterministic: the same (seed, replicas, horizon) tuple
// yields byte-identical schedules; different seeds diverge.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(7, 3, 12*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7, 3, 12*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c, err := Generate(8, 3, 12*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestGenerateShape: every generated drill kills, pauses, and (with room)
// rolls — and leaves the final third of the horizon quiet so recovery is
// measurable.
func TestGenerateShape(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		events, err := Generate(seed, 3, 12*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[Kind]int{}
		for i, e := range events {
			kinds[e.Kind]++
			if i > 0 && e.At < events[i-1].At {
				t.Fatalf("seed %d: events out of order", seed)
			}
			if end := e.At + e.Dur; end > 8*time.Second {
				t.Fatalf("seed %d: fault %v runs to %v, into the recovery window", seed, e, end)
			}
		}
		if kinds[Kill] != 1 || kinds[Pause] != 1 || kinds[Rolling] != 1 {
			t.Fatalf("seed %d: kinds %v, want one of each", seed, kinds)
		}
	}

	// A short horizon drops the rolling restart but keeps kill + pause.
	events, err := Generate(3, 2, 6*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Kind == Rolling {
			t.Fatal("6s horizon generated a rolling restart")
		}
	}
}

// TestGenerateTargets: with more than one replica, the kill and the pause
// never hit the same one (a single fault domain would mask gaps in
// failover).
func TestGenerateTargets(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		events, err := Generate(seed, 3, 12*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var kill, pause = -1, -1
		for _, e := range events {
			switch e.Kind {
			case Kill:
				kill = e.Target
			case Pause:
				pause = e.Target
			}
		}
		if kill == pause {
			t.Fatalf("seed %d: kill and pause both target replica %d", seed, kill)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Event{
		{At: -time.Second, Kind: Kill, Target: 0, Dur: time.Second},
		{At: time.Second, Kind: Kill, Target: 3, Dur: time.Second},
		{At: time.Second, Kind: Kill, Target: 0},
		{At: time.Second, Kind: Pause, Target: -1, Dur: time.Second},
		{At: time.Second, Kind: Kind(42)},
	}
	for i, e := range cases {
		if _, err := Validate([]Event{e}, 3); err == nil {
			t.Fatalf("case %d (%+v): no error", i, e)
		}
	}
	out, err := Validate([]Event{
		{At: 2 * time.Second, Kind: Pause, Target: 1, Dur: time.Second},
		{At: time.Second, Kind: Kill, Target: 0, Dur: time.Second},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Kind != Kill {
		t.Fatal("Validate did not sort by onset")
	}
}

// evalInputs builds a healthy synthetic drill: 40 requests over 10s, all
// acked, every ack journaled, one clean kill recovery.
func evalInputs() ([]RequestRecord, [][]server.JournalRecord, map[string]int64, []Rejoin, Thresholds) {
	var records []RequestRecord
	var journal []server.JournalRecord
	for i := 0; i < 40; i++ {
		id := string(rune('a'+i%26)) + string(rune('0'+i/26))
		records = append(records, RequestRecord{
			Offset:  time.Duration(i) * 250 * time.Millisecond,
			TraceID: id,
			Status:  200,
			Quality: 0.95, HasQuality: true,
		})
		journal = append(journal,
			server.JournalRecord{T: "accept", Inc: 1, ID: id, Path: "/v1/run"},
			server.JournalRecord{T: "done", Inc: 1, ID: id, Status: 200},
		)
	}
	counters := map[string]int64{
		"retries_total":         3,
		"hedges_fired_total":    1,
		"replica0_errs_total":   2,
		"slowstart_enter_total": 1,
	}
	rejoins := []Rejoin{{Replica: 0, Down: 800 * time.Millisecond}}
	th := Thresholds{
		RejoinBound:   5 * time.Second,
		GoodputFrac:   0.95,
		QualityFloor:  0.85,
		BaselineEnd:   2 * time.Second,
		RecoveryStart: 7500 * time.Millisecond,
		End:           10 * time.Second,
		Kills:         1,
	}
	return records, [][]server.JournalRecord{journal}, counters, rejoins, th
}

func TestEvaluatePass(t *testing.T) {
	records, journals, counters, rejoins, th := evalInputs()
	rep := Evaluate(records, journals, counters, rejoins, th)
	if !rep.Pass {
		t.Fatalf("healthy drill failed: %v", rep.Failures)
	}
	if rep.Acked != 40 || len(rep.AckedLost) != 0 || len(rep.Orphans) != 0 {
		t.Fatalf("tally wrong: %+v", rep)
	}
	if rep.BaselineGoodput != 4.0 {
		t.Fatalf("baseline goodput = %v, want 4 rps (8 acks in 2s)", rep.BaselineGoodput)
	}
	if rep.QualityMean < 0.949 || rep.QualityMean > 0.951 {
		t.Fatalf("quality mean = %v", rep.QualityMean)
	}
}

func TestEvaluateCatchesAckedLost(t *testing.T) {
	records, journals, counters, rejoins, th := evalInputs()
	// One acked request vanishes from the journal: the cardinal sin.
	journals[0] = journals[0][:len(journals[0])-1] // drop the last done
	rep := Evaluate(records, journals, counters, rejoins, th)
	if rep.Pass {
		t.Fatal("acked-then-lost not caught")
	}
	if len(rep.AckedLost) != 1 {
		t.Fatalf("AckedLost = %v", rep.AckedLost)
	}
	// The same dropped record is also an orphan — but within budget, so
	// only the acked-lost invariant fires.
	if len(rep.Orphans) != 1 {
		t.Fatalf("Orphans = %v", rep.Orphans)
	}
}

func TestEvaluateCatchesOrphanOverrun(t *testing.T) {
	records, journals, counters, rejoins, th := evalInputs()
	counters["retries_total"] = 0
	counters["hedges_fired_total"] = 0
	counters["replica0_errs_total"] = 0
	// 3 accepts the fleet never finished and the gateway never accounted.
	for _, id := range []string{"x1", "x2", "x3"} {
		journals[0] = append(journals[0], server.JournalRecord{T: "accept", Inc: 1, ID: id, Path: "/v1/run"})
	}
	rep := Evaluate(records, journals, counters, rejoins, th)
	if rep.Pass {
		t.Fatal("orphan overrun not caught")
	}
	if len(rep.Orphans) != 3 || rep.OrphanBudget != 0 {
		t.Fatalf("orphans=%d budget=%d", len(rep.Orphans), rep.OrphanBudget)
	}
}

func TestEvaluateCatchesSlowRejoin(t *testing.T) {
	records, journals, counters, _, th := evalInputs()
	rejoins := []Rejoin{{Replica: 0, Down: 9 * time.Second}}
	rep := Evaluate(records, journals, counters, rejoins, th)
	if rep.Pass {
		t.Fatal("rejoin past the bound not caught")
	}
	if rep.RejoinMax != 9*time.Second {
		t.Fatalf("RejoinMax = %v", rep.RejoinMax)
	}
}

func TestEvaluateCatchesMissingRejoin(t *testing.T) {
	records, journals, counters, _, th := evalInputs()
	rep := Evaluate(records, journals, counters, nil, th)
	if rep.Pass {
		t.Fatal("kill without an observed recovery not caught")
	}
}

func TestEvaluateCatchesGoodputCollapse(t *testing.T) {
	records, journals, counters, rejoins, th := evalInputs()
	// Every request after the recovery start fails: the fleet never came
	// back even though the processes did.
	for i := range records {
		if records[i].Offset >= th.RecoveryStart {
			records[i].Status = 503
		}
	}
	rep := Evaluate(records, journals, counters, rejoins, th)
	if rep.Pass {
		t.Fatal("goodput collapse not caught")
	}
	if rep.RecoveredGoodput != 0 {
		t.Fatalf("RecoveredGoodput = %v", rep.RecoveredGoodput)
	}
}

func TestEvaluateCatchesMissingSlowStart(t *testing.T) {
	records, journals, counters, rejoins, th := evalInputs()
	counters["slowstart_enter_total"] = 0
	rep := Evaluate(records, journals, counters, rejoins, th)
	if rep.Pass {
		t.Fatal("kill without a slow-start entry not caught")
	}
}

func TestEvaluateCatchesQualityFloor(t *testing.T) {
	records, journals, counters, rejoins, th := evalInputs()
	for i := range records {
		records[i].Quality = 0.5
	}
	rep := Evaluate(records, journals, counters, rejoins, th)
	if rep.Pass {
		t.Fatal("quality below the floor not caught")
	}
	// Ungoverned fleets (floor 0) skip the check.
	th.QualityFloor = 0
	if rep := Evaluate(records, journals, counters, rejoins, th); !rep.Pass {
		t.Fatalf("floor 0 still failed: %v", rep.Failures)
	}
}

// TestEvaluateOrphanAcrossIncarnations: an accept from incarnation 1
// resolved by nobody stays an orphan even when incarnation 2 wrote other
// records; a done in a later incarnation would clear it (same journal
// file, same ledger).
func TestEvaluateOrphanAcrossIncarnations(t *testing.T) {
	journal := []server.JournalRecord{
		{T: "boot", Inc: 1},
		{T: "accept", Inc: 1, ID: "lost", Path: "/v1/run"},
		{T: "boot", Inc: 2},
		{T: "accept", Inc: 2, ID: "fine", Path: "/v1/run"},
		{T: "done", Inc: 2, ID: "fine", Status: 200},
	}
	counters := map[string]int64{"replica0_errs_total": 1}
	rep := Evaluate(nil, [][]server.JournalRecord{journal}, counters, nil, Thresholds{})
	if len(rep.Orphans) != 1 || rep.Orphans[0].ID != "lost" {
		t.Fatalf("orphans = %+v", rep.Orphans)
	}
	if !rep.Pass {
		t.Fatalf("budgeted orphan failed the audit: %v", rep.Failures)
	}
}

func TestParseMetricz(t *testing.T) {
	text := "# HELP gw_ok_total gw_ok_total\n# TYPE gw_ok_total counter\ngw_ok_total 1234\n" +
		"# TYPE replica0_probe_ok gauge\nreplica0_probe_ok 1\nretries_total 7\nnot a metric line\n" +
		"# TYPE gw_request_seconds histogram\ngw_request_seconds_bucket{le=\"+Inf\"} 50\ngw_request_seconds_count 50\n"
	m := parseMetricz(text)
	if m["gw_ok_total"] != 1234 || m["replica0_probe_ok"] != 1 || m["retries_total"] != 7 {
		t.Fatalf("parsed %v", m)
	}
	if len(m) != 4 {
		t.Fatalf("parsed %d samples, want 4 (comments, junk and buckets skipped): %v", len(m), m)
	}
}

func TestBaselineEnd(t *testing.T) {
	if got := baselineEnd(nil, 8*time.Second); got != 2*time.Second {
		t.Fatalf("empty schedule baseline = %v", got)
	}
	events := []Event{{At: 3 * time.Second, Kind: Kill, Target: 0, Dur: time.Second}}
	if got := baselineEnd(events, 8*time.Second); got != 3*time.Second {
		t.Fatalf("baseline = %v, want first onset", got)
	}
}
