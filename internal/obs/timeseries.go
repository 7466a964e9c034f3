package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Live telemetry. A Sampler polls registered callbacks on a fixed tick
// and keeps the last N samples of each series in a fixed-capacity ring,
// rendered as JSON behind the /timeseriez endpoints. The request hot
// path is never touched: callbacks read values that the serving layer
// already maintains (gauges, counters, queue lengths), and the only lock
// is taken once per tick and once per scrape.

// ring is a fixed-capacity circular buffer of (time, value) samples.
type ring struct {
	at   []int64 // unix milliseconds
	vals []float64
	head int // next write position
	n    int // samples stored, <= cap
}

func newRing(capacity int) *ring {
	return &ring{at: make([]int64, capacity), vals: make([]float64, capacity)}
}

func (r *ring) push(at int64, v float64) {
	r.at[r.head] = at
	r.vals[r.head] = v
	r.head = (r.head + 1) % len(r.vals)
	if r.n < len(r.vals) {
		r.n++
	}
}

// each calls fn over the stored samples, oldest first.
func (r *ring) each(fn func(at int64, v float64)) {
	start := r.head - r.n
	if start < 0 {
		start += len(r.vals)
	}
	for i := 0; i < r.n; i++ {
		j := (start + i) % len(r.vals)
		fn(r.at[j], r.vals[j])
	}
}

// Sampler polls named float64 callbacks at a fixed interval into
// per-series rings. Safe for concurrent use.
type Sampler struct {
	mu       sync.Mutex
	names    []string // insertion order; WriteJSON sorts a copy
	series   map[string]*seriesEntry
	capacity int
	interval time.Duration
	now      func() int64 // unix milliseconds
	stop     chan struct{}
	done     chan struct{}
}

type seriesEntry struct {
	fn func() float64
	r  *ring
}

// NewSampler returns a sampler that, once started, polls every interval
// and retains the last capacity samples per series.
func NewSampler(interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	if capacity <= 0 {
		capacity = 300
	}
	return &Sampler{
		series:   map[string]*seriesEntry{},
		capacity: capacity,
		interval: interval,
		now:      func() int64 { return time.Now().UnixMilli() },
	}
}

// Track registers a series. The callback runs on the sampler goroutine
// once per tick; it must be cheap and concurrency-safe. Re-tracking an
// existing name replaces its callback and keeps its history. Nil-safe.
func (s *Sampler) Track(name string, fn func() float64) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.series[name]; ok {
		e.fn = fn
		return
	}
	s.series[name] = &seriesEntry{fn: fn, r: newRing(s.capacity)}
	s.names = append(s.names, name)
}

// Sample takes one sample of every series immediately (also the tick
// body). Nil-safe.
func (s *Sampler) Sample() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	at := s.now()
	for _, name := range s.names {
		e := s.series[name]
		e.r.push(at, e.fn())
	}
}

// Start launches the tick goroutine. Calling Start twice, or on a nil
// sampler, is a no-op.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()

	go func() {
		defer close(done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Sample()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the tick goroutine and waits for it to exit. Nil-safe and
// idempotent.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// WriteJSON renders every series — names sorted, samples oldest first —
// as {"interval_ms":…,"series":{name:{"t":[…],"v":[…]}}}.
func (s *Sampler) WriteJSON(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, `{"interval_ms":0,"series":{}}`+"\n")
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"interval_ms":`)
	bw.WriteString(strconv.FormatInt(s.interval.Milliseconds(), 10))
	bw.WriteString(`,"series":{`)
	names := append([]string(nil), s.names...)
	sort.Strings(names)
	for i, name := range names {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(strconv.Quote(name))
		bw.WriteString(`:{"t":[`)
		first := true
		s.series[name].r.each(func(at int64, _ float64) {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.WriteString(strconv.FormatInt(at, 10))
		})
		bw.WriteString(`],"v":[`)
		first = true
		var buf [32]byte
		s.series[name].r.each(func(_ int64, v float64) {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.Write(strconv.AppendFloat(buf[:0], v, 'g', -1, 64))
		})
		bw.WriteString(`]}`)
	}
	bw.WriteString("}}\n")
	return bw.Flush()
}
