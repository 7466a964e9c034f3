// Package quality implements the service-quality model of the paper.
//
// A "good enough" service returns partial results: processing c of a job's
// total demand p yields perceived quality f(c), where f is a concave,
// increasing function capturing diminishing returns. The paper's reference
// family (Eq. 1) is
//
//	f(x) = (1 - e^{-c·x}) / (1 - e^{-c·xmax})
//
// normalized so that f(xmax) = 1. The batch quality of a job set is
// Q = Σ f(c_j) / Σ f(p_j).
//
// Besides the exponential family the package provides logarithmic,
// power-law, and linear families used by the sensitivity study.
package quality

import (
	"fmt"
	"math"
)

// Function maps a processed volume (in processing units) to a perceived
// quality value. Implementations must be non-decreasing and concave on
// [0, xmax], with Value(0) == 0, where xmax is the volume at which quality
// saturates (the largest possible job demand).
type Function interface {
	// Value returns the quality of processing x units. Inputs below zero
	// clamp to zero; inputs above xmax clamp to Value(xmax).
	Value(x float64) float64
	// Inverse returns the smallest volume x with Value(x) >= q. q above
	// the maximum attainable quality returns xmax; q <= 0 returns 0.
	Inverse(q float64) float64
}

// Exponential is the paper's Eq. 1 quality function.
//
// Performance contract: Value/Inverse sit on the scheduler's per-trigger
// hot path (one evaluation per job per cutting pass), so the normalizer
// 1 − e^{−C·XMax} is computed once at construction and cached in norm —
// every Value call costs a single exp. The other per-trigger invariant,
// the batch denominator Σf(p_j), is memoized one level up by cut.Cutter,
// which evaluates f once per job and reuses the values across the level
// walk, the uncut tail, and the achieved-quality sum.
type Exponential struct {
	// C is the concavity multiplier (paper default 0.003). Larger C makes
	// early units of work more valuable.
	C float64
	// XMax is the saturation volume (paper default 1000).
	XMax float64
	// norm caches 1 - e^{-C·XMax}.
	norm float64
}

// NewExponential builds the paper's concave quality function with
// concavity c and saturation volume xmax. It panics on non-positive
// parameters.
func NewExponential(c, xmax float64) *Exponential {
	if c <= 0 || xmax <= 0 {
		panic(fmt.Sprintf("quality: invalid exponential parameters c=%v xmax=%v", c, xmax))
	}
	return &Exponential{C: c, XMax: xmax, norm: 1 - math.Exp(-c*xmax)}
}

// Value implements Function.
func (e *Exponential) Value(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= e.XMax {
		return 1
	}
	return (1 - math.Exp(-e.C*x)) / e.norm
}

// Inverse implements Function with the closed-form inverse of Eq. 1.
func (e *Exponential) Inverse(q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return e.XMax
	}
	x := -math.Log(1-q*e.norm) / e.C
	if x > e.XMax {
		return e.XMax
	}
	if x < 0 {
		return 0
	}
	return x
}

// Marginal returns f'(x), the marginal quality of the next unit of work at
// volume x. Used by Quality-OPT's equal-marginal allocation.
func (e *Exponential) Marginal(x float64) float64 {
	if x < 0 {
		x = 0
	}
	if x > e.XMax {
		return 0
	}
	return e.C * math.Exp(-e.C*x) / e.norm
}

// Logarithmic is f(x) = ln(1+k·x)/ln(1+k·xmax), an alternative concave
// family for sensitivity studies.
type Logarithmic struct {
	K    float64
	XMax float64
	norm float64
}

// NewLogarithmic builds a logarithmic quality function.
func NewLogarithmic(k, xmax float64) *Logarithmic {
	if k <= 0 || xmax <= 0 {
		panic(fmt.Sprintf("quality: invalid logarithmic parameters k=%v xmax=%v", k, xmax))
	}
	return &Logarithmic{K: k, XMax: xmax, norm: math.Log1p(k * xmax)}
}

// Value implements Function.
func (l *Logarithmic) Value(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= l.XMax {
		return 1
	}
	return math.Log1p(l.K*x) / l.norm
}

// Inverse implements Function.
func (l *Logarithmic) Inverse(q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return l.XMax
	}
	return math.Expm1(q*l.norm) / l.K
}

// PowerLaw is f(x) = (x/xmax)^gamma with 0 < gamma <= 1 (concave).
type PowerLaw struct {
	Gamma float64
	XMax  float64
}

// NewPowerLaw builds a power-law quality function; gamma must lie in (0, 1]
// for concavity.
func NewPowerLaw(gamma, xmax float64) *PowerLaw {
	if gamma <= 0 || gamma > 1 || xmax <= 0 {
		panic(fmt.Sprintf("quality: invalid power-law parameters gamma=%v xmax=%v", gamma, xmax))
	}
	return &PowerLaw{Gamma: gamma, XMax: xmax}
}

// Value implements Function.
func (p *PowerLaw) Value(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= p.XMax {
		return 1
	}
	return math.Pow(x/p.XMax, p.Gamma)
}

// Inverse implements Function.
func (p *PowerLaw) Inverse(q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return p.XMax
	}
	return p.XMax * math.Pow(q, 1/p.Gamma)
}

// Linear is f(x) = x/xmax — the degenerate "no diminishing returns" case.
// With a linear function LF cutting has no quality-efficient head to keep,
// so GE degenerates toward proportional cutting; it is included to show the
// concavity requirement matters.
type Linear struct {
	XMax float64
}

// NewLinear builds a linear quality function.
func NewLinear(xmax float64) *Linear {
	if xmax <= 0 {
		panic("quality: invalid linear xmax")
	}
	return &Linear{XMax: xmax}
}

// Value implements Function.
func (l *Linear) Value(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= l.XMax {
		return 1
	}
	return x / l.XMax
}

// Inverse implements Function.
func (l *Linear) Inverse(q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return l.XMax
	}
	return q * l.XMax
}

// Accumulator tracks batch quality incrementally as jobs finalize, which is
// how the GE scheduler's online quality monitor observes the achieved
// service quality.
type Accumulator struct {
	f        Function
	achieved float64 // Σ f(c_j)
	possible float64 // Σ f(p_j)
}

// NewAccumulator returns an empty accumulator over quality function f.
func NewAccumulator(f Function) *Accumulator {
	return &Accumulator{f: f}
}

// Add records a finalized job with demand p of which c units were
// processed, and returns the terms it added: f(c) and f(p). A job without
// demand adds nothing and returns zero terms.
func (a *Accumulator) Add(c, p float64) (achieved, possible float64) {
	if p <= 0 {
		return 0, 0
	}
	return a.AddKnown(c, p, a.f.Value(p))
}

// AddKnown is Add for a job whose f(p) the caller already holds as fp, so
// f is evaluated at most once, for c: not at all when the job was served in
// full. fp must equal the accumulator's function at p.
func (a *Accumulator) AddKnown(c, p, fp float64) (achieved, possible float64) {
	if p <= 0 {
		return 0, 0
	}
	achieved = fp
	if c < p {
		achieved = a.f.Value(max(c, 0))
	}
	a.AddTerms(achieved, fp)
	return achieved, fp
}

// AddTerms records one finalized job by the terms Add returned for it from
// another accumulator over the same function, so a total merged from
// per-machine monitors evaluates f once per job.
func (a *Accumulator) AddTerms(achieved, possible float64) {
	a.achieved += achieved
	a.possible += possible
}

// Quality returns the cumulative quality. An empty accumulator reports 1.
func (a *Accumulator) Quality() float64 {
	if a.possible == 0 {
		return 1
	}
	return a.achieved / a.possible
}

// Achieved returns Σ f(c_j) so far.
func (a *Accumulator) Achieved() float64 { return a.achieved }

// Possible returns Σ f(p_j) so far.
func (a *Accumulator) Possible() float64 { return a.possible }
