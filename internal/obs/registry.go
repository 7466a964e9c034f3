package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a metric that can move in both directions.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Max keeps the maximum of the current value and v.
func (g *Gauge) Max(v float64) {
	if v > g.v {
		g.v = v
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram counts observations into fixed buckets with upper bounds; an
// implicit +Inf bucket catches the overflow. Sum and count make the mean
// exact even though the buckets are coarse.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds
	counts []int64   // len(bounds)+1; last is +Inf
	sum    float64
	n      int64
}

// NewHistogram builds a histogram over the given strictly increasing
// bucket upper bounds. Bounds must be finite, NaN-free, and strictly
// increasing — a NaN or +Inf bound would silently misbin every
// observation after it (NaN compares false against everything, and the
// +Inf bucket is already implicit), so each defect is rejected with a
// field-level error naming the offending index.
func NewHistogram(bounds []float64) (*Histogram, error) {
	for i, b := range bounds {
		switch {
		case math.IsNaN(b):
			return nil, fmt.Errorf("obs: histogram bounds[%d] is NaN", i)
		case math.IsInf(b, 0):
			return nil, fmt.Errorf("obs: histogram bounds[%d] is %v (the +Inf bucket is implicit)", i, b)
		case i > 0 && b == bounds[i-1]:
			return nil, fmt.Errorf("obs: histogram bounds[%d] duplicates bounds[%d] (%g)", i, i-1, b)
		case i > 0 && b < bounds[i-1]:
			return nil, fmt.Errorf("obs: histogram bounds[%d] (%g) below bounds[%d] (%g): bounds must be strictly increasing", i, b, i-1, bounds[i-1])
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}, nil
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the exact mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns the upper bound of the bucket containing quantile q in
// [0,1] — an upper estimate quantized to the bucket grid. The overflow
// bucket reports +Inf.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// Buckets returns the (upperBound, cumulativeCount) pairs, ending with the
// +Inf bucket.
func (h *Histogram) Buckets() ([]float64, []int64) {
	bounds := append(append([]float64(nil), h.bounds...), math.Inf(1))
	cum := make([]int64, len(h.counts))
	var run int64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return bounds, cum
}

// Registry is a named collection of counters, gauges, and histograms. It is
// not safe for concurrent use; one registry belongs to one simulation run
// (the simulator is single-threaded per run).
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) (*Histogram, error) {
	h, ok := r.hists[name]
	if !ok {
		var err error
		h, err = NewHistogram(bounds)
		if err != nil {
			return nil, err
		}
		r.hists[name] = h
	}
	return h, nil
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText renders every metric, sorted by name within each section, as a
// deterministic plain-text report.
func (r *Registry) WriteText(w io.Writer) error {
	for _, name := range sortedKeys(r.counters) {
		if _, err := fmt.Fprintf(w, "counter %-28s %d\n", name, r.counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.gauges) {
		if _, err := fmt.Fprintf(w, "gauge   %-28s %g\n", name, r.gauges[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		if _, err := fmt.Fprintf(w, "histo   %-28s n=%d mean=%.6g p50<=%.4g p95<=%.4g p99<=%.4g\n",
			name, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}
