package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSamplerSampleAndWriteJSON(t *testing.T) {
	s := NewSampler(time.Second, 4)
	now := int64(0)
	s.now = func() int64 { now += 1000; return now }
	v := 0.0
	s.Track("load", func() float64 { v++; return v })
	s.Track("flat", func() float64 { return 7 })

	for i := 0; i < 6; i++ { // overflows the 4-slot ring
		s.Sample()
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		IntervalMS int64 `json:"interval_ms"`
		Series     map[string]struct {
			T []int64   `json:"t"`
			V []float64 `json:"v"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
	if doc.IntervalMS != 1000 {
		t.Errorf("interval_ms = %d", doc.IntervalMS)
	}
	load, ok := doc.Series["load"]
	if !ok {
		t.Fatalf("series missing: %v", doc.Series)
	}
	// Ring keeps the last 4 of 6 samples, oldest first.
	if len(load.V) != 4 || load.V[0] != 3 || load.V[3] != 6 {
		t.Errorf("load samples = %v, want [3 4 5 6]", load.V)
	}
	if load.T[0] >= load.T[3] {
		t.Errorf("timestamps not increasing: %v", load.T)
	}
	if flat := doc.Series["flat"]; len(flat.V) != 4 || flat.V[0] != 7 {
		t.Errorf("flat samples = %v", flat.V)
	}
}

func TestSamplerRetrackKeepsHistory(t *testing.T) {
	s := NewSampler(time.Second, 8)
	s.Track("x", func() float64 { return 1 })
	s.Sample()
	s.Track("x", func() float64 { return 2 }) // replace callback
	s.Sample()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Series map[string]struct {
			V []float64 `json:"v"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Series["x"].V; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("retrack lost history: %v", got)
	}
}

func TestSamplerNilAndLifecycle(t *testing.T) {
	var nilS *Sampler
	nilS.Track("x", func() float64 { return 0 })
	nilS.Sample()
	nilS.Start()
	nilS.Stop()
	var buf bytes.Buffer
	if err := nilS.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil sampler wrote invalid JSON: %s", buf.Bytes())
	}

	s := NewSampler(time.Millisecond, 4)
	s.Track("x", func() float64 { return 1 })
	s.Start()
	s.Start() // idempotent
	time.Sleep(5 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent
	// Start again after stop works too.
	s.Start()
	s.Stop()
}

// BenchmarkSamplerSample bounds the per-tick cost with a realistic series
// count — this runs once per second off the hot path, but must stay cheap
// enough to never matter.
func BenchmarkSamplerSample(b *testing.B) {
	s := NewSampler(time.Second, 300)
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		s.Track(name, func() float64 { return 1 })
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}
