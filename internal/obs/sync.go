package obs

import (
	"io"
	"sync"
)

// SyncRegistry wraps a Registry for concurrent use. The plain Registry is
// single-threaded by design — one registry per simulation run — but the
// serving layers (internal/server, internal/gateway) multiplex many
// goroutines onto one registry, so every touch goes through a mutex.
//
// Counters and gauges are created on first use, exactly like the underlying
// Registry. Histograms must be created up front with NewHistogram; Observe
// on an unknown histogram is a silent no-op so hot paths never have to
// carry bucket bounds around.
type SyncRegistry struct {
	mu  sync.Mutex
	reg *Registry
}

// NewSyncRegistry returns an empty concurrent registry.
func NewSyncRegistry() *SyncRegistry {
	return &SyncRegistry{reg: NewRegistry()}
}

// Inc adds one to the named counter.
func (r *SyncRegistry) Inc(name string) {
	r.mu.Lock()
	r.reg.Counter(name).Inc()
	r.mu.Unlock()
}

// CounterValue reads the named counter (zero if it was never touched).
func (r *SyncRegistry) CounterValue(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reg.Counter(name).Value()
}

// GaugeSet replaces the named gauge's value.
func (r *SyncRegistry) GaugeSet(name string, v float64) {
	r.mu.Lock()
	r.reg.Gauge(name).Set(v)
	r.mu.Unlock()
}

// GaugeValue reads the named gauge.
func (r *SyncRegistry) GaugeValue(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reg.Gauge(name).Value()
}

// Preset creates the named counters and gauges at zero so text renders show
// zeros instead of absences.
func (r *SyncRegistry) Preset(counters, gauges []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range counters {
		r.reg.Counter(name)
	}
	for _, name := range gauges {
		r.reg.Gauge(name)
	}
}

// NewHistogram creates the named histogram over the given strictly
// increasing bucket bounds. Later Observe calls refer to it by name only.
func (r *SyncRegistry) NewHistogram(name string, bounds []float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.reg.Histogram(name, bounds)
	return err
}

// Observe records one value into the named histogram; unknown names are
// dropped silently (histograms are declared up front via NewHistogram).
func (r *SyncRegistry) Observe(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.reg.hists[name]; ok {
		h.Observe(v)
	}
}

// WriteText renders the registry snapshot to w under the lock.
func (r *SyncRegistry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reg.WriteText(w)
}

// WritePrometheus renders the registry snapshot in the Prometheus text
// exposition format under the lock.
func (r *SyncRegistry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reg.WritePrometheus(w)
}
