// Package workload generates the paper's synthetic web-search request
// streams and provides trace import/export.
//
// Requests arrive as a Poisson process with a configurable rate λ
// (requests/second). Each request's service demand follows a bounded Pareto
// distribution (paper defaults α=3, xmin=130, xmax=1000 processing units).
// The response window (deadline − release) is either fixed at 150 ms
// (paper §IV-B) or uniform in [150 ms, 500 ms] (the Fig. 4 variant).
package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"goodenough/internal/job"
	"goodenough/internal/rng"
)

// Spec describes a synthetic workload.
type Spec struct {
	// ArrivalRate is the Poisson rate λ in requests per second.
	ArrivalRate float64
	// ParetoAlpha, Xmin, Xmax parameterize the bounded Pareto demand
	// distribution in processing units.
	ParetoAlpha float64
	Xmin        float64
	Xmax        float64
	// Window is the fixed response window in seconds (deadline − release).
	// Ignored when RandomWindow is true.
	Window float64
	// RandomWindow draws each window uniformly from [WindowMin, WindowMax]
	// (the Fig. 4 "random deadline interval" model).
	RandomWindow bool
	WindowMin    float64
	WindowMax    float64
	// Duration is the span of arrivals in seconds.
	Duration float64
	// Seed makes the stream reproducible.
	Seed uint64
	// Burst, when non-nil, replaces the homogeneous Poisson process with a
	// two-phase Markov-modulated Poisson process (MMPP): arrivals alternate
	// between a high-rate and a low-rate phase with exponentially
	// distributed phase durations — bursty traffic, a robustness probe for
	// the online quality monitor. ArrivalRate is ignored when set.
	Burst *Burst
	// Classes, when non-empty, makes the workload a weighted mixture: each
	// arrival draws a class by weight and takes its demand distribution
	// and response window from that class (the top-level Pareto/window
	// fields are then ignored). This models mixed services — e.g. an
	// interactive tier with tight windows plus an analytics tier with
	// heavy demands — the "other big-data applications" of the paper's
	// future work.
	Classes []Class
}

// Burst parameterizes the two-phase MMPP arrival process.
type Burst struct {
	// HighRate and LowRate are the phase arrival rates in req/s.
	HighRate float64
	LowRate  float64
	// MeanHigh and MeanLow are the expected phase durations in seconds.
	MeanHigh float64
	MeanLow  float64
}

// Validate reports whether the burst model is usable.
func (b Burst) Validate() error {
	if b.HighRate <= 0 || b.LowRate <= 0 {
		return fmt.Errorf("workload: burst rates must be positive, got %v/%v", b.HighRate, b.LowRate)
	}
	if b.MeanHigh <= 0 || b.MeanLow <= 0 {
		return fmt.Errorf("workload: burst phase durations must be positive, got %v/%v",
			b.MeanHigh, b.MeanLow)
	}
	return nil
}

// Class is one component of a workload mixture.
type Class struct {
	// Name labels the class in traces and reports.
	Name string
	// Weight is the relative arrival share (any positive scale).
	Weight float64
	// ParetoAlpha, Xmin, Xmax parameterize the class's demand
	// distribution.
	ParetoAlpha float64
	Xmin        float64
	Xmax        float64
	// Window is the class's fixed response window in seconds, unless
	// RandomWindow selects uniform [WindowMin, WindowMax].
	Window       float64
	RandomWindow bool
	WindowMin    float64
	WindowMax    float64
}

// Validate reports whether the class is usable.
func (c Class) Validate() error {
	if c.Weight <= 0 {
		return fmt.Errorf("workload: class %q weight must be positive, got %v", c.Name, c.Weight)
	}
	if c.ParetoAlpha <= 0 || c.Xmin <= 0 || c.Xmax < c.Xmin {
		return fmt.Errorf("workload: class %q invalid Pareto parameters alpha=%v xmin=%v xmax=%v",
			c.Name, c.ParetoAlpha, c.Xmin, c.Xmax)
	}
	if c.RandomWindow {
		if c.WindowMin <= 0 || c.WindowMax < c.WindowMin {
			return fmt.Errorf("workload: class %q invalid random window [%v, %v]",
				c.Name, c.WindowMin, c.WindowMax)
		}
	} else if c.Window <= 0 {
		return fmt.Errorf("workload: class %q window must be positive, got %v", c.Name, c.Window)
	}
	return nil
}

// DefaultSpec returns the paper's workload parameters at the given arrival
// rate: bounded Pareto(3, 130, 1000) demands, 150 ms windows, 600 s of
// arrivals (10 simulated minutes).
func DefaultSpec(arrivalRate float64, seed uint64) Spec {
	return Spec{
		ArrivalRate: arrivalRate,
		ParetoAlpha: 3,
		Xmin:        130,
		Xmax:        1000,
		Window:      0.150,
		WindowMin:   0.150,
		WindowMax:   0.500,
		Duration:    600,
		Seed:        seed,
	}
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Burst != nil {
		if err := s.Burst.Validate(); err != nil {
			return err
		}
	} else if s.ArrivalRate <= 0 {
		return fmt.Errorf("workload: arrival rate must be positive, got %v", s.ArrivalRate)
	}
	if len(s.Classes) > 0 {
		for _, c := range s.Classes {
			if err := c.Validate(); err != nil {
				return err
			}
		}
	} else {
		if s.ParetoAlpha <= 0 || s.Xmin <= 0 || s.Xmax < s.Xmin {
			return fmt.Errorf("workload: invalid Pareto parameters alpha=%v xmin=%v xmax=%v",
				s.ParetoAlpha, s.Xmin, s.Xmax)
		}
		if s.RandomWindow {
			if s.WindowMin <= 0 || s.WindowMax < s.WindowMin {
				return fmt.Errorf("workload: invalid random window [%v, %v]", s.WindowMin, s.WindowMax)
			}
		} else if s.Window <= 0 {
			return fmt.Errorf("workload: window must be positive, got %v", s.Window)
		}
	}
	if s.Duration <= 0 {
		return fmt.Errorf("workload: duration must be positive, got %v", s.Duration)
	}
	return nil
}

// MeanDemand returns the analytic mean service demand in processing units
// (the weighted mixture mean when Classes are set).
func (s Spec) MeanDemand() float64 {
	if len(s.Classes) == 0 {
		return rng.BoundedParetoMean(s.ParetoAlpha, s.Xmin, s.Xmax)
	}
	totalW, mean := 0.0, 0.0
	for _, c := range s.Classes {
		mean += c.Weight * rng.BoundedParetoMean(c.ParetoAlpha, c.Xmin, c.Xmax)
		totalW += c.Weight
	}
	if totalW == 0 {
		return 0
	}
	return mean / totalW
}

// Generator lazily produces the job stream. Streams for inter-arrival
// gaps, demands, and windows are split from the seed so that, e.g.,
// changing the window model does not perturb the demand sequence — a
// property the paired experiments (Fig. 3 vs Fig. 4) rely on.
type Generator struct {
	spec Spec
	// shapes holds one entry per class, or the spec's own fields when it
	// has no classes, in which case shapeStore backs it; totalWeight sums
	// the class weights.
	shapes      []shape
	shapeStore  [1]shape
	totalWeight float64
	arrivals    *rng.Source
	demands     *rng.Source
	windows     *rng.Source
	classes     *rng.Source
	phases      *rng.Source
	nextID      int
	clock       float64
	done        bool

	// MMPP state.
	inHigh   bool
	phaseEnd float64
}

// shape is one demand/window model with its demand distribution's
// constants computed once.
type shape struct {
	Class
	demand rng.Pareto
}

func newShape(c Class) shape {
	return shape{Class: c, demand: rng.NewPareto(c.ParetoAlpha, c.Xmin, c.Xmax)}
}

// NewGenerator builds a generator for the spec. It panics if the spec is
// invalid; call Validate first for graceful handling.
func NewGenerator(spec Spec) *Generator {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	root := rng.New(spec.Seed)
	g := &Generator{
		spec:     spec,
		arrivals: root.Split(),
		demands:  root.Split(),
		windows:  root.Split(),
		classes:  root.Split(),
		phases:   root.Split(),
	}
	if len(spec.Classes) == 0 {
		g.shapes = append(g.shapeStore[:0], newShape(Class{
			ParetoAlpha: spec.ParetoAlpha, Xmin: spec.Xmin, Xmax: spec.Xmax,
			Window: spec.Window, RandomWindow: spec.RandomWindow,
			WindowMin: spec.WindowMin, WindowMax: spec.WindowMax,
		}))
	}
	for _, c := range spec.Classes {
		g.shapes = append(g.shapes, newShape(c))
		g.totalWeight += c.Weight
	}
	if spec.Burst != nil {
		g.inHigh = true
		g.phaseEnd = g.phases.Exp(1 / spec.Burst.MeanHigh)
	}
	return g
}

// Next returns the next job, or nil when the arrival window is exhausted.
func (g *Generator) Next() *job.Job {
	return g.NextInto(nil)
}

// NextInto is Next with job recycling: when reuse is non-nil its storage is
// reinitialized in place instead of allocating, so a caller that owns the
// full job lifecycle (the fleet simulation recycles finalized jobs) keeps
// the steady-state arrival path allocation-free. The draw sequence is
// identical to Next — recycling never perturbs determinism.
func (g *Generator) NextInto(reuse *job.Job) *job.Job {
	if g.done {
		return nil
	}
	g.advanceClock()
	if g.clock > g.spec.Duration {
		g.done = true
		return nil
	}
	shape := g.pickShape()
	demand := shape.demand.Sample(g.demands)
	window := shape.Window
	if shape.RandomWindow {
		window = g.windows.Uniform(shape.WindowMin, shape.WindowMax)
	}
	j := reuse
	if j == nil {
		j = job.New(g.nextID, g.clock, g.clock+window, demand)
	} else {
		*j = job.Job{
			ID:       g.nextID,
			Release:  g.clock,
			Deadline: g.clock + window,
			Demand:   demand,
			Target:   demand,
			Core:     -1,
			State:    job.StateWaiting,
		}
	}
	g.nextID++
	return j
}

// advanceClock draws the next arrival instant: a plain exponential gap for
// homogeneous Poisson, or a piecewise-exponential walk across MMPP phases.
// Restarting the draw at a phase boundary is exact for a Poisson process
// with piecewise-constant rate (memorylessness).
func (g *Generator) advanceClock() {
	b := g.spec.Burst
	if b == nil {
		g.clock += g.arrivals.Exp(g.spec.ArrivalRate)
		return
	}
	for {
		rate := b.LowRate
		meanNext := b.MeanHigh // duration of the NEXT phase if we switch
		if g.inHigh {
			rate = b.HighRate
			meanNext = b.MeanLow
		}
		gap := g.arrivals.Exp(rate)
		if g.clock+gap <= g.phaseEnd {
			g.clock += gap
			return
		}
		// Cross into the next phase and redraw.
		g.clock = g.phaseEnd
		g.inHigh = !g.inHigh
		g.phaseEnd = g.clock + g.phases.Exp(1/meanNext)
		if g.clock > g.spec.Duration {
			return // exhausted mid-switch; Next() will close the stream
		}
	}
}

// pickShape selects the demand/window parameters for the next arrival: the
// spec's own fields for single-class workloads, or a weighted class draw.
func (g *Generator) pickShape() *shape {
	if len(g.spec.Classes) == 0 {
		return &g.shapes[0]
	}
	pick := g.classes.Float64() * g.totalWeight
	for i := range g.shapes {
		pick -= g.shapes[i].Weight
		if pick < 0 {
			return &g.shapes[i]
		}
	}
	return &g.shapes[len(g.shapes)-1]
}

// All materializes the entire stream. Convenient for traces and tests; the
// simulator itself pulls jobs lazily via Next.
func (g *Generator) All() []*job.Job {
	var jobs []*job.Job
	for {
		j := g.Next()
		if j == nil {
			return jobs
		}
		jobs = append(jobs, j)
	}
}

// Source yields jobs in non-decreasing release order; nil means exhausted.
// Generator produces synthetic streams; Replayer replays recorded traces.
type Source interface {
	Next() *job.Job
}

// Trace is a serializable recorded workload, so experiments can be re-run
// on the exact same request stream (and users can import their own traces).
type Trace struct {
	// Comment is free-form provenance.
	Comment string `json:"comment,omitempty"`
	// Spec, when present, records the generator parameters.
	Spec *Spec `json:"spec,omitempty"`
	// Jobs lists the requests in arrival order.
	Jobs []TraceJob `json:"jobs"`
}

// TraceJob is one request in a trace.
type TraceJob struct {
	Release  float64 `json:"release"`
	Deadline float64 `json:"deadline"`
	Demand   float64 `json:"demand"`
}

// Record converts a job stream into a trace.
func Record(jobs []*job.Job, spec *Spec, comment string) *Trace {
	t := &Trace{Comment: comment, Spec: spec, Jobs: make([]TraceJob, len(jobs))}
	for i, j := range jobs {
		t.Jobs[i] = TraceJob{Release: j.Release, Deadline: j.Deadline, Demand: j.Demand}
	}
	return t
}

// Jobs materializes the trace back into job objects with fresh IDs.
func (t *Trace) Materialize() ([]*job.Job, error) {
	jobs := make([]*job.Job, len(t.Jobs))
	for i, tj := range t.Jobs {
		j := job.New(i, tj.Release, tj.Deadline, tj.Demand)
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("workload: trace entry %d: %w", i, err)
		}
		if i > 0 && tj.Release < t.Jobs[i-1].Release {
			return nil, fmt.Errorf("workload: trace entry %d out of arrival order", i)
		}
		jobs[i] = j
	}
	return jobs, nil
}

// Write serializes the trace as JSON.
func (t *Trace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadTrace parses a JSON trace: exactly one JSON object, with no unknown
// keys and nothing but whitespace after it.
func ReadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields() // a misspelled key must not silently drop a field
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("workload: decoding trace: %w", err)
	}
	// A second value would otherwise be ignored without a word.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("workload: decoding trace: trailing data after the trace")
	}
	return &t, nil
}

// Replayer replays a trace as a Source, minting fresh job objects so the
// same trace can drive many runs.
type Replayer struct {
	trace *Trace
	pos   int
}

// NewReplayer validates the trace order eagerly and returns a Source over
// it.
func NewReplayer(t *Trace) (*Replayer, error) {
	if _, err := t.Materialize(); err != nil {
		return nil, err
	}
	return &Replayer{trace: t}, nil
}

// Next implements Source.
func (r *Replayer) Next() *job.Job {
	if r.pos >= len(r.trace.Jobs) {
		return nil
	}
	tj := r.trace.Jobs[r.pos]
	j := job.New(r.pos, tj.Release, tj.Deadline, tj.Demand)
	r.pos++
	return j
}

// Reset rewinds the replayer to the start of the trace.
func (r *Replayer) Reset() { r.pos = 0 }
