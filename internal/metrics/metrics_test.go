package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestTimelineThinning(t *testing.T) {
	tl := NewTimeline(1.0)
	for i := 0; i < 100; i++ {
		tl.Record(Sample{Time: float64(i) * 0.1, Quality: 0.9})
	}
	// 10 s of samples at 0.1 s spacing thinned to >= 1 s apart → ~10.
	if tl.Len() > 11 || tl.Len() < 9 {
		t.Fatalf("thinned to %d samples, want ~10", tl.Len())
	}
	prev := -10.0
	for _, s := range tl.samples {
		if s.Time-prev < 1.0-1e-9 {
			t.Fatalf("samples closer than the interval: %v after %v", s.Time, prev)
		}
		prev = s.Time
	}
}

func TestTimelineNoThinning(t *testing.T) {
	tl := NewTimeline(0)
	for i := 0; i < 50; i++ {
		tl.Record(Sample{Time: float64(i) * 0.001})
	}
	if tl.Len() != 50 {
		t.Fatalf("unthinned timeline dropped samples: %d", tl.Len())
	}
}

func TestTimelineNegativeIntervalClamped(t *testing.T) {
	tl := NewTimeline(-5)
	tl.Record(Sample{Time: 0})
	tl.Record(Sample{Time: 0})
	if tl.Len() != 2 {
		t.Fatal("negative interval should behave like 0")
	}
}

func TestWriteCSV(t *testing.T) {
	tl := NewTimeline(0)
	tl.Record(Sample{Time: 0.5, Quality: 0.95, Power: 120.5, Load: 800, Waiting: 2, AES: true,
		Energy: 42.125, Speeds: []float64{2.5, 0}})
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_s,quality,power_w,load_units,waiting,aes,energy_j,speed_c0_ghz,speed_c1_ghz\n") {
		t.Fatalf("header wrong:\n%s", out)
	}
	if !strings.Contains(out, "0.500000,0.950000,120.500,800.0,2,1,42.125,2.5000,0.0000") {
		t.Fatalf("row wrong:\n%s", out)
	}
}

func TestWriteCSVNoSpeeds(t *testing.T) {
	tl := NewTimeline(0)
	tl.Record(Sample{Time: 1, Quality: 0.9})
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "time_s,quality,power_w,load_units,waiting,aes,energy_j\n") {
		t.Fatalf("speed-free header wrong:\n%s", buf.String())
	}
}

// TestTimelineFlushKeepsFinalSample is the regression test for the thinning
// bug: with a coarse interval, the last sample of a run used to vanish, so
// trajectories appeared to end early. Flush must retain it.
func TestTimelineFlushKeepsFinalSample(t *testing.T) {
	tl := NewTimeline(10)
	tl.Record(Sample{Time: 0, Quality: 0.5})
	tl.Record(Sample{Time: 1, Quality: 0.6}) // thinned
	tl.Record(Sample{Time: 2, Quality: 0.7}) // thinned; pending endpoint
	tl.Flush()
	if tl.Len() != 2 {
		t.Fatalf("got %d samples, want 2 (first + flushed final)", tl.Len())
	}
	last := tl.samples[tl.Len()-1]
	if last.Time != 2 || last.Quality != 0.7 {
		t.Fatalf("final sample lost: got %+v", last)
	}
	// A second Flush must not duplicate it.
	tl.Flush()
	if tl.Len() != 2 {
		t.Fatalf("double Flush duplicated the endpoint: %d samples", tl.Len())
	}
}

func TestTimelineFlushNoPending(t *testing.T) {
	tl := NewTimeline(1)
	tl.Record(Sample{Time: 0})
	tl.Flush() // nothing pending: the only sample was recorded
	if tl.Len() != 1 {
		t.Fatalf("flush with nothing pending appended: %d samples", tl.Len())
	}
}
