package obs

import (
	"bufio"
	"io"
	"strconv"
)

// JSONL streams each event as one JSON object per line. The encoding is
// hand-rolled (fixed key order, %g float formatting, fields omitted only by
// fixed per-field rules), so a seeded run produces a byte-identical log on
// every execution — the golden-file test relies on this.
type JSONL struct {
	lineWriter
}

// NewJSONL wraps w in a buffered JSONL event sink. Call Flush when the run
// completes.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{newLineWriter(w)}
}

// lineWriter is the buffered state of the JSONL logs (events, decisions,
// spans). A log encodes each record into buf, from its opening brace up to
// its last field, and hands it to end.
type lineWriter struct {
	w   *bufio.Writer
	buf []byte
	err error
}

func newLineWriter(w io.Writer) lineWriter {
	return lineWriter{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
}

// end closes the record in b, writes it as one line and keeps the first
// write error, after which the log drops every record.
func (l *lineWriter) end(b []byte) {
	b = append(b, '}', '\n')
	l.buf = b
	if _, err := l.w.Write(b); err != nil {
		l.err = err
	}
}

// Flush drains the buffer and returns the first write error, if any.
func (l *lineWriter) Flush() error {
	if l.err != nil {
		return l.err
	}
	return l.w.Flush()
}

// Observe implements Observer.
func (j *JSONL) Observe(e Event) {
	if j.err != nil {
		return
	}
	b := j.buf[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, e.Time, 'g', -1, 64)
	b = append(b, `,"type":"`...)
	b = append(b, e.Type.String()...)
	b = append(b, '"')
	if e.Core >= 0 {
		b = append(b, `,"core":`...)
		b = strconv.AppendInt(b, int64(e.Core), 10)
	}
	if e.Job >= 0 {
		b = append(b, `,"job":`...)
		b = strconv.AppendInt(b, int64(e.Job), 10)
	}
	if e.Value != 0 {
		b = append(b, `,"v":`...)
		b = strconv.AppendFloat(b, e.Value, 'g', -1, 64)
	}
	if e.Aux != 0 {
		b = append(b, `,"aux":`...)
		b = strconv.AppendFloat(b, e.Aux, 'g', -1, 64)
	}
	if e.Extra != 0 {
		b = append(b, `,"extra":`...)
		b = strconv.AppendFloat(b, e.Extra, 'g', -1, 64)
	}
	if e.Flag {
		b = append(b, `,"flag":true`...)
	}
	j.end(b)
}
