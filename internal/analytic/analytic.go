// Package analytic provides closed-form and quadrature-based predictions
// that cross-validate the simulator:
//
//   - Capacity: the maximum sustainable request rate of an m-core server
//     under a power budget H. Because the power curve P = a·s^β is convex,
//     total throughput is maximized by running all cores at the same speed
//     s = (H/(a·m))^{1/β}, so capacity = m·rate(s)/E[D].
//
//   - CutKeepFraction: the population-level effect of LF cutting — the
//     common level L at which cutting every job above L to L yields batch
//     quality exactly Q_GE in expectation, and the fraction of total work
//     that survives. GE's effective capacity is Capacity divided by that
//     fraction, which predicts where the quality knee moves relative to
//     Best Effort (DESIGN.md §3's 167 → ~190 req/s discussion).
//
// The bounded Pareto expectations are evaluated by Simpson quadrature over
// the density p(x) = α·L^α·x^{−α−1} / (1 − (L/H)^α) on [xmin, xmax].
package analytic

import (
	"fmt"
	"math"

	"goodenough/internal/job"
	"goodenough/internal/power"
	"goodenough/internal/quality"
	"goodenough/internal/workload"
	"goodenough/internal/yds"
)

// Capacity returns the maximum sustainable arrival rate (requests/second)
// for the given machine and workload: equal core speeds maximize total
// throughput under a convex power curve.
func Capacity(m power.Model, cores int, budget float64, spec workload.Spec) (float64, error) {
	if cores <= 0 || budget <= 0 {
		return 0, fmt.Errorf("analytic: need positive cores and budget")
	}
	if err := m.Validate(); err != nil {
		return 0, err
	}
	mean := spec.MeanDemand()
	if mean <= 0 {
		return 0, fmt.Errorf("analytic: non-positive mean demand")
	}
	perCore := m.Speed(budget / float64(cores))
	return float64(cores) * power.Rate(perCore) / mean, nil
}

// Utilization returns offered work divided by capacity at the given rate.
func Utilization(m power.Model, cores int, budget float64, spec workload.Spec, rate float64) (float64, error) {
	cap, err := Capacity(m, cores, budget, spec)
	if err != nil {
		return 0, err
	}
	return rate / cap, nil
}

// paretoExpect integrates g(x) against the bounded Pareto density with the
// spec's parameters using Simpson's rule.
func paretoExpect(alpha, xmin, xmax float64, g func(float64) float64) float64 {
	if xmax <= xmin {
		return g(xmin)
	}
	norm := 1 - math.Pow(xmin/xmax, alpha)
	pdf := func(x float64) float64 {
		return alpha * math.Pow(xmin, alpha) * math.Pow(x, -alpha-1) / norm
	}
	const n = 4000 // even
	h := (xmax - xmin) / n
	sum := g(xmin)*pdf(xmin) + g(xmax)*pdf(xmax)
	for i := 1; i < n; i++ {
		x := xmin + float64(i)*h
		w := 4.0
		if i%2 == 0 {
			w = 2.0
		}
		sum += w * g(x) * pdf(x)
	}
	return sum * h / 3
}

// CutKeepFraction finds the population LF-cut level for target quality qge:
// the level L such that E[f(min(D, L))] = qge · E[f(D)], and returns L
// together with the surviving work fraction E[min(D, L)] / E[D].
// qge >= 1 keeps everything; qge <= 0 keeps nothing.
func CutKeepFraction(f quality.Function, spec workload.Spec, qge float64) (level, kept float64, err error) {
	if err := spec.Validate(); err != nil {
		return 0, 0, err
	}
	if len(spec.Classes) > 0 {
		return 0, 0, fmt.Errorf("analytic: mixtures not supported; analyze classes separately")
	}
	if qge >= 1 {
		return spec.Xmax, 1, nil
	}
	if qge <= 0 {
		return 0, 0, nil
	}
	alpha, xmin, xmax := spec.ParetoAlpha, spec.Xmin, spec.Xmax
	fullQ := paretoExpect(alpha, xmin, xmax, f.Value)
	target := qge * fullQ
	qualityAt := func(l float64) float64 {
		return paretoExpect(alpha, xmin, xmax, func(x float64) float64 {
			return f.Value(math.Min(x, l))
		})
	}
	lo, hi := 0.0, xmax
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if qualityAt(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	level = hi
	keptWork := paretoExpect(alpha, xmin, xmax, func(x float64) float64 {
		return math.Min(x, level)
	})
	meanWork := paretoExpect(alpha, xmin, xmax, func(x float64) float64 { return x })
	return level, keptWork / meanWork, nil
}

// EffectiveCapacity predicts where GE's quality knee sits: the raw
// capacity divided by the surviving work fraction after cutting to qge.
func EffectiveCapacity(m power.Model, cores int, budget float64, spec workload.Spec, f quality.Function, qge float64) (float64, error) {
	cap, err := Capacity(m, cores, budget, spec)
	if err != nil {
		return 0, err
	}
	_, kept, err := CutKeepFraction(f, spec, qge)
	if err != nil {
		return 0, err
	}
	if kept <= 0 {
		return math.Inf(1), nil
	}
	return cap / kept, nil
}

// FluidLowerBound computes a clairvoyant lower bound on the dynamic energy
// needed to fully process a job set on m cores: run the textbook YDS
// optimum on the aggregate workload, then split each critical group's
// speed evenly across the m cores. Convexity gives the m^{β−1} division;
// ignoring the no-migration and one-core-per-job constraints (and assuming
// full clairvoyance) makes this a true lower bound for any online
// scheduler that completes all the work. Intended for small traces — the
// critical-interval algorithm is O(n³)-ish.
func FluidLowerBound(jobs []*job.Job, m int, model power.Model) (float64, error) {
	if m <= 0 {
		return 0, fmt.Errorf("analytic: need at least one core")
	}
	if err := model.Validate(); err != nil {
		return 0, err
	}
	groups := yds.GroupsGeneral(jobs)
	e := yds.GroupsEnergy(model, jobs, groups)
	return e / math.Pow(float64(m), model.Beta-1), nil
}
