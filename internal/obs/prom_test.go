package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 42; i++ {
		r.Counter("requests_total").Inc()
	}
	r.Gauge("inflight").Set(3.5)
	h, err := r.Histogram("latency_seconds", []float64{0.1, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.05)
	h.Observe(0.3)
	h.Observe(0.3)
	h.Observe(2) // overflow bucket

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		"# HELP requests_total requests_total",
		"requests_total 42",
		"# TYPE inflight gauge",
		"inflight 3.5",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="0.5"} 3`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="+Inf"} 4`,
		"latency_seconds_sum 2.65",
		"latency_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line is "name value" or "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestPromNameSanitized(t *testing.T) {
	r := NewRegistry()
	r.Counter("replica-0.errs").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "replica_0_errs 1") {
		t.Errorf("name not sanitized:\n%s", buf.String())
	}
	// The HELP line keeps the original spelling for traceability.
	if !strings.Contains(buf.String(), "# HELP replica_0_errs replica-0.errs") {
		t.Errorf("HELP lost the original name:\n%s", buf.String())
	}
}

func TestPromFloat(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
	}
	for v, want := range cases {
		if got := promFloat(v); got != want {
			t.Errorf("promFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestHistogramBoundsValidation pins the field-level errors NewHistogram
// reports for defective bucket bounds.
func TestHistogramBoundsValidation(t *testing.T) {
	cases := []struct {
		name    string
		bounds  []float64
		wantErr string // substring; "" = must succeed
	}{
		{"valid", []float64{0.1, 0.5, 1}, ""},
		{"empty", nil, ""},
		{"single", []float64{5}, ""},
		{"negative ascending", []float64{-3, -1, 0, 2}, ""},
		{"nan first", []float64{math.NaN(), 1}, "bounds[0] is NaN"},
		{"nan middle", []float64{1, math.NaN(), 3}, "bounds[1] is NaN"},
		{"plus inf", []float64{1, math.Inf(1)}, "bounds[1] is +Inf"},
		{"minus inf", []float64{math.Inf(-1), 1}, "bounds[0] is -Inf"},
		{"duplicate", []float64{1, 2, 2, 3}, "bounds[2] duplicates bounds[1] (2)"},
		{"descending", []float64{1, 3, 2}, "bounds[2] (2) below bounds[1] (3)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := NewHistogram(tc.bounds)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if h == nil {
					t.Fatal("no histogram returned")
				}
				return
			}
			if err == nil {
				t.Fatalf("bounds %v accepted, want error containing %q", tc.bounds, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}

	// The registry and the sync wrapper surface the same errors.
	r := NewRegistry()
	if _, err := r.Histogram("bad", []float64{2, 1}); err == nil {
		t.Error("Registry.Histogram accepted unsorted bounds")
	}
	sr := NewSyncRegistry()
	if err := sr.NewHistogram("bad", []float64{math.NaN()}); err == nil {
		t.Error("SyncRegistry.NewHistogram accepted NaN bound")
	}
}
