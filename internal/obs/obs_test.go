package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestEmitNilZeroAlloc pins the acceptance criterion: with no observer
// attached, emission is allocation-free — the Event is a stack value and
// Emit is a nil check.
func TestEmitNilZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		Emit(nil, Event{Time: 1.5, Type: EventExec, Core: 3, Job: 42, Value: 2.5, Aux: 0.01, Extra: 0.3})
		Emit(nil, Event{Time: 1.6, Type: EventModeSwitch, Core: -1, Job: -1, Flag: true})
	})
	if allocs != 0 {
		t.Fatalf("nil-observer emission allocates: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkEmitNil(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Emit(nil, Event{Time: float64(i), Type: EventExec, Core: 1, Job: i, Value: 2, Aux: 0.01})
	}
}

func BenchmarkEmitCollector(b *testing.B) {
	c := NewCollector()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Emit(c, Event{Time: float64(i), Type: EventExec, Core: 1, Job: i, Value: 2, Aux: 0.01, Extra: 0.02})
	}
}

// observerFunc adapts a plain function to an Observer.
type observerFunc func(Event)

func (f observerFunc) Observe(e Event) { f(e) }

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil) != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing must collapse to nil")
	}
	var n1, n2 int
	o1 := observerFunc(func(Event) { n1++ })
	o2 := observerFunc(func(Event) { n2++ })
	m := Multi(o1, nil, o2)
	m.Observe(Event{})
	m.Observe(Event{})
	if n1 != 2 || n2 != 2 {
		t.Fatalf("fan-out broken: %d, %d", n1, n2)
	}
	// A single observer comes back unwrapped.
	if _, ok := Multi(o1).(observerFunc); !ok {
		t.Fatal("Multi(o) should return o itself")
	}
}

func TestEventTypeStrings(t *testing.T) {
	seen := map[string]bool{}
	for ty := EventType(0); ty < numEventTypes; ty++ {
		s := ty.String()
		if strings.HasPrefix(s, "event(") {
			t.Fatalf("EventType %d has no name", ty)
		}
		if seen[s] {
			t.Fatalf("duplicate event name %q", s)
		}
		seen[s] = true
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	r.Gauge("g").Set(1.5)
	r.Gauge("g").Max(2.0)
	r.Gauge("g").Max(1.0) // no-op, below current
	if got := r.Gauge("g").Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2", got)
	}
	h, err := r.Histogram("h", []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5", h.Count())
	}
	if got := h.Mean(); math.Abs(got-(0.5+1.5+1.7+3+100)/5) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("p50 = %v, want bucket bound 2", q)
	}
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Fatalf("p100 should land in +Inf bucket, got %v", q)
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Fatal("non-increasing bounds accepted")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"counter a", "gauge   g", "histo   h"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	evs := []Event{
		{Time: 0.0, Type: EventJobArrive, Job: 1, Core: -1, Value: 500, Aux: 0.15},
		{Time: 0.1, Type: EventJobAssign, Job: 1, Core: 2, Value: 500, Aux: 0.15},
		{Time: 0.1, Type: EventJobCut, Job: 1, Core: 2, Value: 400, Aux: 500},
		{Time: 0.1, Type: EventExec, Job: 1, Core: 2, Value: 2.0, Aux: 0.2, Extra: 4},
		{Time: 0.3, Type: EventJobComplete, Job: 1, Core: 2, Value: 400, Aux: 0.3},
		{Time: 0.3, Type: EventModeSwitch, Core: -1, Job: -1, Flag: false},
		{Time: 0.4, Type: EventRunEnd, Core: -1, Job: -1, Value: 0.4},
	}
	for _, e := range evs {
		c.Observe(e)
	}
	reg := c.Registry
	for name, want := range map[string]int64{
		"jobs_arrived": 1, "jobs_assigned": 1, "cuts": 1,
		"jobs_completed": 1, "mode_switches": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := c.queueLatency.Mean(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("queue latency mean = %v, want 0.1", got)
	}
	var buf bytes.Buffer
	if err := c.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "core") || !strings.Contains(out, "busy_s") {
		t.Fatalf("report lacks per-core table:\n%s", out)
	}
	// core 2 was busy 0.2 s of a 0.4 s run → util 0.5
	if !strings.Contains(out, "0.5000") {
		t.Fatalf("per-core utilization wrong:\n%s", out)
	}
}

func TestJSONLValidAndDeterministic(t *testing.T) {
	emit := func() string {
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		j.Observe(Event{Time: 0.125, Type: EventJobArrive, Job: 7, Core: -1, Value: 321.5, Aux: 0.15})
		j.Observe(Event{Time: 0.25, Type: EventModeSwitch, Job: -1, Core: -1, Flag: true})
		j.Observe(Event{Time: 0.5, Type: EventExec, Job: 7, Core: 3, Value: 2.25, Aux: 0.01, Extra: 0.253125})
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := emit(), emit()
	if a != b {
		t.Fatalf("JSONL not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, line := range strings.Split(strings.TrimSpace(a), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		if _, ok := m["t"]; !ok {
			t.Fatalf("line lacks timestamp: %q", line)
		}
	}
	if !strings.Contains(a, `"type":"mode-switch"`) || !strings.Contains(a, `"flag":true`) {
		t.Fatalf("mode switch encoded wrong:\n%s", a)
	}
}

func TestTracerValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, 2)
	tr.Observe(Event{Time: 0.1, Type: EventCoreSpeed, Core: 1, Job: -1, Value: 2.5})
	tr.Observe(Event{Time: 0.1, Type: EventExec, Core: 1, Job: 9, Value: 2.5, Aux: 0.05, Extra: 1.5})
	tr.Observe(Event{Time: 0.2, Type: EventCoreFail, Core: 0, Job: -1})
	tr.Observe(Event{Time: 0.2, Type: EventJobRequeue, Core: 0, Job: 9})
	tr.Observe(Event{Time: 0.3, Type: EventBudgetCap, Core: -1, Job: -1, Value: 160})
	tr.Observe(Event{Time: 0.4, Type: EventModeSwitch, Core: -1, Job: -1, Flag: true})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 1 process_name + 2×(thread_name+sort) metadata + 6 events
	if len(doc.TraceEvents) != 5+6 {
		t.Fatalf("got %d trace events, want 11", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["M"] != 5 || phases["X"] != 1 || phases["C"] != 3 || phases["i"] != 2 {
		t.Fatalf("phase mix wrong: %v", phases)
	}
}
