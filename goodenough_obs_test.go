package goodenough

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"goodenough/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the observability golden files")

// goldenCfg is a small seeded run exercising every event family: a GE run
// at the knee on four cores with a mid-run core failure and a budget cap,
// so the golden files cover arrivals, assignment, cutting, mode and
// distribution switches, exec segments, requeues, and fault markers.
func goldenCfg() Config {
	cfg := DefaultConfig()
	cfg.Scheduler = "ge"
	cfg.Cores = 4
	cfg.PowerBudget = 80
	cfg.ArrivalRate = 60
	cfg.DurationSec = 3
	cfg.Seed = 7
	cfg.Faults = []FaultSpec{
		{AtSec: 1, Kind: "core-fail", Core: 2, DurationSec: 1},
		{AtSec: 1.5, Kind: "budget-cap", Watts: 40, DurationSec: 0.5},
	}
	return cfg
}

// runGolden runs goldenCfg with every exporter attached and returns the
// exports and the Result as JSON, the form /v1/run and /v1/sweep put on
// the wire.
func runGolden(t *testing.T) (events, trace, report, decisions, result []byte) {
	t.Helper()
	var ev, tr, rep, dec bytes.Buffer
	res, err := RunWithOptions(goldenCfg(), RunOptions{
		Events: &ev, Trace: &tr, Report: &rep, Decisions: &dec,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return ev.Bytes(), tr.Bytes(), rep.Bytes(), dec.Bytes(), append(raw, '\n')
}

// TestGoldenExports pins the exporters' byte-exact output for a seeded run.
// The simulator is deterministic, and the exporters avoid maps and
// locale/width-dependent formatting on the wire path, so any diff here
// means either a real behavior change or a broken determinism guarantee.
// Regenerate deliberately with: go test -run TestGoldenExports -update .
func TestGoldenExports(t *testing.T) {
	events, trace, report, decisions, result := runGolden(t)
	golden := map[string][]byte{
		filepath.Join("testdata", "golden_run.events.jsonl"):    events,
		filepath.Join("testdata", "golden_run.trace.json"):      trace,
		filepath.Join("testdata", "golden_run.report.txt"):      report,
		filepath.Join("testdata", "golden_run.decisions.jsonl"): decisions,
		filepath.Join("testdata", "golden_run.result.json"):     result,
	}
	if *updateGolden {
		for path, got := range golden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Log("golden files rewritten")
		return
	}
	for path, got := range golden {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to generate)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: output diverged from golden (%d vs %d bytes); "+
				"inspect with a diff, then -update if intended",
				path, len(got), len(want))
		}
	}
}

// TestGoldenRunDeterminism re-runs the golden configuration and demands
// byte-identical exports and Result JSON, independent of what the
// checked-in goldens say.
func TestGoldenRunDeterminism(t *testing.T) {
	e1, t1, r1, d1, res1 := runGolden(t)
	e2, t2, r2, d2, res2 := runGolden(t)
	if !bytes.Equal(e1, e2) {
		t.Error("JSONL export differs between identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("Chrome trace differs between identical runs")
	}
	if !bytes.Equal(r1, r2) {
		t.Error("run report differs between identical runs")
	}
	if !bytes.Equal(d1, d2) {
		t.Error("decision JSONL differs between identical runs")
	}
	if !bytes.Equal(res1, res2) {
		t.Error("Result JSON differs between identical runs")
	}
}

// observerFunc adapts a plain function to an obs.Observer.
type observerFunc func(obs.Event)

func (f observerFunc) Observe(e obs.Event) { f(e) }

// TestRunWithOptionsObserver exercises the custom-observer hook and checks
// that attaching one does not perturb the simulation result.
func TestRunWithOptionsObserver(t *testing.T) {
	cfg := goldenCfg()
	var execs, faults int
	res, err := RunWithOptions(cfg, RunOptions{Observer: observerFunc(func(e obs.Event) {
		switch e.Type {
		case obs.EventExec:
			execs++
		case obs.EventCoreFail, obs.EventBudgetCap:
			faults++
		}
	})})
	if err != nil {
		t.Fatal(err)
	}
	if execs == 0 {
		t.Error("no exec segments observed")
	}
	if faults != 2 {
		t.Errorf("observed %d fault events, want 2", faults)
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality != plain.Quality || res.Energy != plain.Energy {
		t.Error("attaching an observer perturbed the simulation")
	}
}

// BenchmarkRunNilObserver and BenchmarkRunCollector bound the cost of the
// observability layer on a whole run: the first is the default zero-sink
// path, the second attaches the metrics collector.
func benchCfg() Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.PowerBudget = 80
	cfg.ArrivalRate = 60
	cfg.DurationSec = 2
	return cfg
}

func BenchmarkRunNilObserver(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunCollector(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		col := obs.NewCollector()
		if _, err := RunWithOptions(cfg, RunOptions{Observer: col}); err != nil {
			b.Fatal(err)
		}
	}
}
