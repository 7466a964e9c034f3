package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// testClock returns a deterministic nanosecond clock advancing by step per
// call.
func testClock(start, step int64) func() int64 {
	t := start - step
	return func() int64 {
		t += step
		return t
	}
}

func TestSpanContextHeaderRoundTrip(t *testing.T) {
	c := SpanContext{Trace: 0xdeadbeef01020304, Span: 0x1122334455667788}
	h := http.Header{}
	c.Inject(h)
	if got := h.Get(HeaderTraceID); got != "deadbeef01020304" {
		t.Errorf("trace header = %q", got)
	}
	if got := ParseSpanContext(h); got != c {
		t.Errorf("round trip: got %+v, want %+v", got, c)
	}

	// Invalid context injects nothing.
	h2 := http.Header{}
	SpanContext{}.Inject(h2)
	if len(h2) != 0 {
		t.Errorf("zero context injected headers: %v", h2)
	}
	// Absent and malformed headers parse to the zero context.
	if got := ParseSpanContext(http.Header{}); got.Valid() {
		t.Errorf("empty headers parsed to %+v", got)
	}
	h3 := http.Header{}
	h3.Set(HeaderTraceID, "not-hex")
	if got := ParseSpanContext(h3); got.Valid() {
		t.Errorf("malformed trace id parsed to %+v", got)
	}
	// A bad span ID still joins the trace (children root under the trace).
	h4 := http.Header{}
	h4.Set(HeaderTraceID, "00000000000000aa")
	h4.Set(HeaderSpanID, "xyz")
	if got := ParseSpanContext(h4); got.Trace != 0xaa || got.Span != 0 {
		t.Errorf("partial headers parsed to %+v", got)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var bus *SpanBus
	s := bus.Start("x", SpanServer, SpanContext{})
	if s != nil {
		t.Fatal("nil bus returned a span")
	}
	// All of these must be no-ops, not panics.
	s.SetValue(1)
	s.SetAux(2)
	s.SetFlag(true)
	s.SetNote("n")
	if s.Context().Valid() {
		t.Error("nil span context is valid")
	}
	bus.Finish(s)
	bus.SetClock(func() int64 { return 0 })
}

func TestSpanParenting(t *testing.T) {
	bus := NewSpanBusSeeded(1, nil)
	root := bus.Start("root", SpanClient, SpanContext{})
	if root.Trace == 0 || root.Parent != 0 {
		t.Fatalf("root span: %+v", *root)
	}
	child := bus.Start("child", SpanServer, root.Context())
	if child.Trace != root.Trace {
		t.Errorf("child trace %x != root trace %x", child.Trace, root.Trace)
	}
	if child.Parent != root.ID {
		t.Errorf("child parent %x != root id %x", child.Parent, root.ID)
	}
	if child.ID == root.ID {
		t.Error("child reused root's span ID")
	}
	bus.Finish(child)
	bus.Finish(root)
}

func TestSpanLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	log := NewSpanLog(&buf)
	bus := NewSpanBusSeeded(42, log)
	bus.SetClock(testClock(1000, 500))

	root := bus.Start("client./v1/run", SpanClient, SpanContext{})
	child := bus.Start("attempt.replica0", SpanAttempt, root.Context())
	child.SetValue(0.25)
	child.SetAux(3)
	child.SetFlag(true)
	child.SetNote("won")
	rootCtx, childID := root.Context(), child.ID
	bus.Finish(child)
	bus.Finish(root)
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every line must be standalone valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
	}

	spans, err := ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("read %d spans, want 2", len(spans))
	}
	// Finish order: child first.
	got := spans[0]
	if got.Name != "attempt.replica0" || got.Kind != SpanAttempt {
		t.Errorf("child identity: %+v", got)
	}
	if got.Trace != rootCtx.Trace || got.Parent != rootCtx.Span || got.ID != childID {
		t.Errorf("child ids: %+v (root ctx %+v)", got, rootCtx)
	}
	if got.Value != 0.25 || got.Aux != 3 || !got.Flag || got.Note != "won" {
		t.Errorf("child annotations lost: %+v", got)
	}
	if got.Start != 1500 || got.End != 2000 {
		t.Errorf("child times: start=%d end=%d", got.Start, got.End)
	}
	if spans[1].Parent != 0 || spans[1].Trace != rootCtx.Trace {
		t.Errorf("root ids: %+v", spans[1])
	}
}

func TestSpanLogDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		log := NewSpanLog(&buf)
		bus := NewSpanBusSeeded(7, log)
		bus.SetClock(testClock(0, 250))
		root := bus.Start("r", SpanGateway, SpanContext{})
		for i := 0; i < 3; i++ {
			c := bus.Start("a", SpanAttempt, root.Context())
			c.SetFlag(i > 0)
			bus.Finish(c)
		}
		bus.Finish(root)
		if err := log.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Error("span log not byte-deterministic for a seeded bus")
	}
}

func TestReadSpansRejectsGarbage(t *testing.T) {
	if _, err := ReadSpans(strings.NewReader("{not json}\n")); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := ReadSpans(strings.NewReader(`{"trace":"zz","span":"01"}` + "\n")); err == nil {
		t.Error("bad trace id accepted")
	}
	spans, err := ReadSpans(strings.NewReader("\n\n"))
	if err != nil || len(spans) != 0 {
		t.Errorf("blank input: %v, %d spans", err, len(spans))
	}
}

// TestReadSpansSkipsTornTail: a process killed mid-write leaves a last line
// without its newline; the whole spans before it still merge.
func TestReadSpansSkipsTornTail(t *testing.T) {
	var buf bytes.Buffer
	log := NewSpanLog(&buf)
	bus := NewSpanBusSeeded(3, log)
	bus.SetClock(testClock(10_000, 1_000))
	for _, name := range []string{"a", "b", "c"} {
		bus.Finish(bus.Start(name, SpanServer, SpanContext{}))
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-20]
	spans, err := ReadSpans(bytes.NewReader(torn))
	if err != nil || len(spans) != 2 || spans[0].Name != "a" || spans[1].Name != "b" {
		t.Fatalf("torn log: %v, %+v; want spans a and b and no error", err, spans)
	}
	// The same bad line with its newline is garbage, not a torn tail.
	if _, err := ReadSpans(bytes.NewReader(append(torn, '\n'))); err == nil {
		t.Error("newline-terminated bad line accepted")
	}
}

func TestWriteSpanTraceConnectedTree(t *testing.T) {
	var logBuf bytes.Buffer
	log := NewSpanLog(&logBuf)
	bus := NewSpanBusSeeded(3, log)
	bus.SetClock(testClock(10_000, 1_000))

	client := bus.Start("client./v1/run", SpanClient, SpanContext{})
	gw := bus.Start("/v1/run", SpanGateway, client.Context())
	a0 := bus.Start("attempt.replica0", SpanAttempt, gw.Context())
	a1 := bus.Start("attempt.replica1", SpanAttempt, gw.Context())
	a1.SetFlag(true)
	a1.SetNote("won")
	srv := bus.Start("/v1/run", SpanServer, a1.Context())
	sched := bus.Start("sched.run", SpanSched, srv.Context())
	for _, s := range []*Span{sched, srv, a1, a0, gw, client} {
		bus.Finish(s)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(&logBuf)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := WriteSpanTrace(&out, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("span trace is not valid JSON: %v\n%s", err, out.Bytes())
	}
	var slices, flowStarts, flowEnds int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			slices++
		case "s":
			flowStarts++
		case "f":
			flowEnds++
		}
	}
	if slices != 6 {
		t.Errorf("%d slices, want 6", slices)
	}
	// Five child spans → five flow arrows binding the tree together.
	if flowStarts != 5 || flowEnds != 5 {
		t.Errorf("flow events: %d starts, %d ends, want 5 each", flowStarts, flowEnds)
	}

	// Determinism: same spans, same bytes.
	var out2 bytes.Buffer
	if err := WriteSpanTrace(&out2, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Error("WriteSpanTrace not deterministic")
	}
}

// countSink counts spans delivered to it.
type countSink struct{ n int }

func (c *countSink) ObserveSpan(*Span) { c.n++ }

func TestSpanBusPoolDelivers(t *testing.T) {
	sink := &countSink{}
	bus := NewSpanBusSeeded(1, sink)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		s := bus.Start("s", SpanRun, SpanContext{})
		if seen[s.ID] {
			t.Fatalf("span ID %x repeated", s.ID)
		}
		seen[s.ID] = true
		bus.Finish(s)
	}
	if sink.n != 100 {
		t.Errorf("sink saw %d spans, want 100", sink.n)
	}
}

// BenchmarkSpanDisabled is the contract the scheduler hot path relies on:
// with tracing off (nil bus) a start/annotate/finish cycle is free.
func BenchmarkSpanDisabled(b *testing.B) {
	var bus *SpanBus
	parent := SpanContext{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := bus.Start("sched.invoke", SpanSched, parent)
		s.SetValue(1)
		bus.Finish(s)
	}
}

// BenchmarkSpanPooled bounds the live-tracing cost: spans recycle through
// the pool, so steady state allocates nothing.
func BenchmarkSpanPooled(b *testing.B) {
	bus := NewSpanBusSeeded(1, nil)
	parent := SpanContext{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := bus.Start("sched.invoke", SpanSched, parent)
		s.SetValue(1)
		bus.Finish(s)
	}
}
