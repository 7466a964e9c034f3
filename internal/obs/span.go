package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request tracing. A Span is one timed operation in a request's causal
// tree: the client send, the gateway's handling of it, each upstream
// attempt (hedges and retries are sibling spans under the same gateway
// span), the server's admission+run, and the scheduler's execution.
// Trace and span IDs propagate across process boundaries as the
// X-GE-Trace-Id / X-GE-Span-Id headers, so the logs of geload, gegate,
// and every geserve replica stitch back into one tree.
//
// The whole API is nil-safe: with a nil *SpanBus every call — Start,
// annotation setters, Finish — is a no-op costing zero allocations, so
// the serving and scheduler hot paths carry the instrumentation
// unconditionally and pay only a nil check when tracing is off.

// Trace-propagation headers. Values are 16 lower-case hex digits.
const (
	HeaderTraceID = "X-GE-Trace-Id"
	HeaderSpanID  = "X-GE-Span-Id"
)

// SpanKind labels which tier of the stack a span belongs to.
type SpanKind uint8

const (
	SpanClient  SpanKind = iota // load generator / caller
	SpanGateway                 // gegate request handling
	SpanAttempt                 // one upstream attempt (first, retry, or hedge)
	SpanServer                  // geserve request handling
	SpanRun                     // one simulation run inside the server
	SpanSched                   // scheduler-internal work
)

// String returns the stable wire name of the kind.
func (k SpanKind) String() string {
	switch k {
	case SpanClient:
		return "client"
	case SpanGateway:
		return "gateway"
	case SpanAttempt:
		return "attempt"
	case SpanServer:
		return "server"
	case SpanRun:
		return "run"
	case SpanSched:
		return "sched"
	default:
		return "unknown"
	}
}

// spanKindFromString inverts String; unknown names map to SpanClient.
func spanKindFromString(s string) SpanKind {
	switch s {
	case "gateway":
		return SpanGateway
	case "attempt":
		return SpanAttempt
	case "server":
		return SpanServer
	case "run":
		return SpanRun
	case "sched":
		return SpanSched
	default:
		return SpanClient
	}
}

// SpanContext identifies a position in a trace: the trace itself and the
// span that new children should claim as parent. The zero value is "no
// trace"; Start treats it as a request to begin a new trace.
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context carries a trace.
func (c SpanContext) Valid() bool { return c.Trace != 0 }

// Inject writes the context into HTTP headers. No-op when invalid.
func (c SpanContext) Inject(h http.Header) {
	if !c.Valid() {
		return
	}
	h.Set(HeaderTraceID, formatID(c.Trace))
	h.Set(HeaderSpanID, formatID(c.Span))
}

// ParseSpanContext reads a context from HTTP headers. Returns the zero
// context when the headers are absent or malformed.
func ParseSpanContext(h http.Header) SpanContext {
	tr, err := strconv.ParseUint(h.Get(HeaderTraceID), 16, 64)
	if err != nil || tr == 0 {
		return SpanContext{}
	}
	sp, err := strconv.ParseUint(h.Get(HeaderSpanID), 16, 64)
	if err != nil {
		sp = 0
	}
	return SpanContext{Trace: tr, Span: sp}
}

// formatID renders an ID as 16 lower-case hex digits.
func formatID(id uint64) string {
	var b [16]byte
	appendID(b[:0], id)
	return string(b[:])
}

// appendID appends an ID as exactly 16 lower-case hex digits.
func appendID(b []byte, id uint64) []byte {
	const hexdigits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hexdigits[(id>>uint(shift))&0xf])
	}
	return b
}

// Span is one timed, annotated operation. Spans are pooled: a *Span
// returned by SpanBus.Start is owned by the caller until Finish, after
// which it must not be touched. All fields are flat values so a pooled
// span is reused without allocation; Note must be a static or otherwise
// long-lived string (it is retained only until the sink runs).
type Span struct {
	Name   string
	Kind   SpanKind
	Trace  uint64
	ID     uint64
	Parent uint64 // 0 for a root span
	Start  int64  // wall-clock unix nanoseconds
	End    int64
	Value  float64 // kind-specific annotation (e.g. attempt number)
	Aux    float64 // kind-specific annotation (e.g. events processed)
	Flag   bool    // kind-specific marker (e.g. hedge attempt)
	Note   string  // static-string outcome ("won", "lost", "shed", ...)
}

// Context returns the SpanContext under which children of s start.
// Nil-safe: a nil span yields the zero context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.Trace, Span: s.ID}
}

// SetValue sets the Value annotation. Nil-safe.
func (s *Span) SetValue(v float64) {
	if s != nil {
		s.Value = v
	}
}

// SetAux sets the Aux annotation. Nil-safe.
func (s *Span) SetAux(v float64) {
	if s != nil {
		s.Aux = v
	}
}

// SetFlag sets the Flag marker. Nil-safe.
func (s *Span) SetFlag(f bool) {
	if s != nil {
		s.Flag = f
	}
}

// SetNote sets the Note annotation (static strings only). Nil-safe.
func (s *Span) SetNote(n string) {
	if s != nil {
		s.Note = n
	}
}

// SpanSink receives finished spans. The *Span is only valid for the
// duration of the call — it returns to the pool immediately after — so
// sinks must copy anything they keep.
type SpanSink interface {
	ObserveSpan(s *Span)
}

// SpanBus issues trace/span IDs and recycles Span values through a pool.
// A nil *SpanBus is valid and inert: Start returns nil and Finish of nil
// is a no-op, both allocation-free. Safe for concurrent use.
type SpanBus struct {
	ctr  atomic.Uint64
	seed uint64
	sink SpanSink // may be nil: spans are timed and discarded
	now  func() int64
	pool sync.Pool
}

// NewSpanBus returns a bus seeded from the wall clock and process ID so
// concurrent processes mint disjoint ID streams.
func NewSpanBus(sink SpanSink) *SpanBus {
	return NewSpanBusSeeded(uint64(time.Now().UnixNano())^uint64(os.Getpid())<<32, sink)
}

// NewSpanBusSeeded returns a bus with a fixed ID seed — byte-identical
// ID sequences for deterministic tests.
func NewSpanBusSeeded(seed uint64, sink SpanSink) *SpanBus {
	b := &SpanBus{seed: seed, sink: sink, now: func() int64 { return time.Now().UnixNano() }}
	b.pool.New = func() any { return new(Span) }
	return b
}

// newID mints a non-zero ID: a splitmix64 hash of the seeded counter, so
// IDs look random, never repeat within a bus, and differ across buses.
func (b *SpanBus) newID() uint64 {
	z := b.seed + b.ctr.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Start begins a span. With an invalid parent context a fresh trace is
// minted; otherwise the span joins parent's trace as a child. Returns
// nil (and does nothing) on a nil bus.
func (b *SpanBus) Start(name string, kind SpanKind, parent SpanContext) *Span {
	if b == nil {
		return nil
	}
	s := b.pool.Get().(*Span)
	s.Name = name
	s.Kind = kind
	if parent.Valid() {
		s.Trace = parent.Trace
		s.Parent = parent.Span
	} else {
		s.Trace = b.newID()
		s.Parent = 0
	}
	s.ID = b.newID()
	s.Start = b.now()
	s.End = 0
	s.Value = 0
	s.Aux = 0
	s.Flag = false
	s.Note = ""
	return s
}

// Finish stamps the end time, hands the span to the sink, and returns it
// to the pool. Nil-safe on both the bus and the span.
func (b *SpanBus) Finish(s *Span) {
	if b == nil || s == nil {
		return
	}
	if s.End == 0 {
		s.End = b.now()
	}
	if b.sink != nil {
		b.sink.ObserveSpan(s)
	}
	b.pool.Put(s)
}

// SpanLog streams finished spans as one JSON object per line, in the
// same hand-rolled deterministic style as the event JSONL exporter.
// Safe for concurrent use (spans finish on many goroutines).
type SpanLog struct {
	mu sync.Mutex
	lineWriter
}

// NewSpanLog wraps w in a buffered span sink. Call Flush when done.
func NewSpanLog(w io.Writer) *SpanLog {
	return &SpanLog{lineWriter: newLineWriter(w)}
}

// ObserveSpan implements SpanSink.
func (l *SpanLog) ObserveSpan(s *Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	b := l.buf[:0]
	b = append(b, `{"trace":"`...)
	b = appendID(b, s.Trace)
	b = append(b, `","span":"`...)
	b = appendID(b, s.ID)
	b = append(b, '"')
	if s.Parent != 0 {
		b = append(b, `,"parent":"`...)
		b = appendID(b, s.Parent)
		b = append(b, '"')
	}
	b = append(b, `,"name":`...)
	b = strconv.AppendQuote(b, s.Name)
	b = append(b, `,"kind":"`...)
	b = append(b, s.Kind.String()...)
	b = append(b, `","start":`...)
	b = strconv.AppendInt(b, s.Start, 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, s.End, 10)
	if s.Value != 0 {
		b = append(b, `,"v":`...)
		b = strconv.AppendFloat(b, s.Value, 'g', -1, 64)
	}
	if s.Aux != 0 {
		b = append(b, `,"aux":`...)
		b = strconv.AppendFloat(b, s.Aux, 'g', -1, 64)
	}
	if s.Flag {
		b = append(b, `,"flag":true`...)
	}
	if s.Note != "" {
		b = append(b, `,"note":`...)
		b = strconv.AppendQuote(b, s.Note)
	}
	l.end(b)
}

// Flush drains the buffer and returns the first write error, if any.
func (l *SpanLog) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lineWriter.Flush()
}

// wireSpan is the decoded form of one SpanLog line.
type wireSpan struct {
	Trace  string  `json:"trace"`
	Span   string  `json:"span"`
	Parent string  `json:"parent"`
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Start  int64   `json:"start"`
	End    int64   `json:"end"`
	V      float64 `json:"v"`
	Aux    float64 `json:"aux"`
	Flag   bool    `json:"flag"`
	Note   string  `json:"note"`
}

// ReadSpans parses a SpanLog stream back into spans (for merging the
// per-process logs of a fleet into one trace). Blank lines are skipped, and
// so is a last line that has no newline and is not JSON: the torn tail a
// killed process leaves.
func ReadSpans(r io.Reader) ([]Span, error) {
	var spans []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	torn := false // the token just scanned ended the stream without a newline
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		torn = atEOF && bytes.IndexByte(data, '\n') < 0
		return bufio.ScanLines(data, atEOF)
	})
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var w wireSpan
		if err := json.Unmarshal(raw, &w); err != nil {
			if torn {
				break
			}
			return nil, fmt.Errorf("obs: span log line %d: %w", line, err)
		}
		tr, err := strconv.ParseUint(w.Trace, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: span log line %d: bad trace id %q", line, w.Trace)
		}
		id, err := strconv.ParseUint(w.Span, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: span log line %d: bad span id %q", line, w.Span)
		}
		var parent uint64
		if w.Parent != "" {
			parent, err = strconv.ParseUint(w.Parent, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("obs: span log line %d: bad parent id %q", line, w.Parent)
			}
		}
		spans = append(spans, Span{
			Name: w.Name, Kind: spanKindFromString(w.Kind),
			Trace: tr, ID: id, Parent: parent,
			Start: w.Start, End: w.End,
			Value: w.V, Aux: w.Aux, Flag: w.Flag, Note: w.Note,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading span log: %w", err)
	}
	return spans, nil
}
