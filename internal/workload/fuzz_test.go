package workload

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTrace hardens the trace parser: arbitrary bytes must either
// parse into a trace that replays cleanly or return an error — never
// panic, and never produce invalid jobs.
func FuzzReadTrace(f *testing.F) {
	f.Add(`{"jobs":[{"release":0,"deadline":0.15,"demand":300}]}`)
	f.Add(`{"jobs":[]}`)
	f.Add(`{"comment":"x","jobs":[{"release":1,"deadline":2,"demand":5},{"release":1.5,"deadline":3,"demand":7}]}`)
	f.Add(`{"jobs":[{"release":2,"deadline":1,"demand":5}]}`) // corrupt
	f.Add(`not json at all`)
	f.Add(`{"jobs":[{"release":-1,"deadline":-2,"demand":-3}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadTrace(strings.NewReader(data))
		if err != nil {
			return
		}
		rep, err := NewReplayer(tr)
		if err != nil {
			return
		}
		for j := rep.NextInto(nil); j != nil; j = rep.NextInto(nil) {
			if err := j.Validate(); err != nil {
				t.Fatalf("replayed invalid job %d: %v", j.ID, err)
			}
		}
		// A trace that replays must survive a write/read round trip.
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("re-serialization failed: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back.Jobs) != len(tr.Jobs) {
			t.Fatalf("round trip changed job count: %d vs %d", len(back.Jobs), len(tr.Jobs))
		}
	})
}
