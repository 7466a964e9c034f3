package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root lists
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, runners %d", names, len(workloads))
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		g := map[string]string{}
		for _, m := range got {
			g[m.Name] = m.Unit
		}
		if len(g) != len(want) || len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for _, d := range want {
			if u, ok := g[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s is %q in BENCHMARK.json, %q in the program", kind, d.name, u, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestUpstreamUnion(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	g := &gatewayRequest{}
	g.end(g.begin(at(10)), at(40)) // primary attempt
	g.begin(at(30))                // hedge, still open when the handler ends
	g.end(g.begin(at(60)), at(70)) // a retry
	if got, want := g.upstream(at(0), at(80)), 70*time.Millisecond; got != want {
		t.Errorf("upstream = %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.99); got < 4.9 || got > 5 {
		t.Errorf("p99 = %v", got)
	}
	if !sort.Float64sAreSorted(xs) || quantile(nil, 0.5) != 0 {
		t.Error("quantile must sort in place and return 0 for no samples")
	}
}
