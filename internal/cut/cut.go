// Package cut implements the paper's Longest-First (LF) job-cutting policy
// — the heart of the AES (Aggressive Energy Saving) mode.
//
// Given a batch of jobs and a target quality Q_GE, the policy repeatedly
// trims the longest job(s) down to the next-longest level, recomputing the
// batch quality Q = Σf(target_j)/Σf(demand_j) after every level, until Q
// would drop to (or below) Q_GE. The final level is then solved exactly:
// the uncut jobs keep their full quality F_U, and each of the |C| cut jobs
// is given the volume c with
//
//	f(c) = (Q_GE · (F_U + F_C) − F_U) / |C|
//
// found by inverting the concave quality function (binary search in the
// general case; the exponential family has a closed form). Because f is
// concave, cutting the *tails of the longest jobs first* sacrifices the
// least quality per unit of work removed.
package cut

import (
	"slices"

	"goodenough/internal/job"
	"goodenough/internal/quality"
)

// Result summarizes a cutting pass.
type Result struct {
	// Cut is the number of jobs whose target was reduced.
	Cut int
	// WorkRemoved is the total volume trimmed, in processing units.
	WorkRemoved float64
	// Quality is the batch quality implied by the new targets,
	// Σf(target)/Σf(demand).
	Quality float64
}

// Cutter owns the scratch buffers for LF cutting so a scheduler invoking it
// every trigger allocates nothing in steady state. Each job's f(demand) is
// read once per pass into fvals — from the job's FDemand, stored when it
// entered its machine, or evaluated for a job with none stored — and the
// batch denominator Σf(p_j), the level-walk terms, and the uncut tail all
// reuse the memoized values bit-for-bit.
// A Cutter is not goroutine-safe; give each scheduler its own (the zero
// value is ready to use).
type Cutter struct {
	demands []float64
	fvals   []float64
	order   []int
}

// LongestFirst applies LF cutting in place: each job's Target is lowered so
// the batch quality lands on qge (within the resolution of the quality
// function's inverse). Jobs' Processed volumes act as floors — work already
// done cannot be un-done, so a job whose processed volume exceeds its
// computed cut level simply keeps its processed volume as the target
// (paper §III-B: a running job is treated as a new job with its original
// demand; if the calculated demand is smaller than what remains, it is cut
// accordingly, otherwise it continues).
//
// qge >= 1 restores every target to the full demand and cuts nothing.
// An empty batch returns a perfect-quality result.
func (c *Cutter) LongestFirst(jobs []*job.Job, f quality.Function, qge float64) Result {
	cutCount, exact, fullQ := c.level(jobs, f, qge)
	if fullQ == 0 {
		return Result{Quality: 1}
	}
	// Every cut job whose floor does not bind lands exactly on the cut
	// level, so f(exact) is evaluated once for the pass.
	fExact := f.Value(exact)
	res := Result{}
	achieved := 0.0
	for rank, idx := range c.order {
		j := jobs[idx]
		old := j.Target
		setTarget(j, rank < cutCount, exact)
		if j.Target < j.Demand-1e-12 {
			res.Cut++
		}
		if j.Target < old {
			res.WorkRemoved += old - j.Target
		}
		switch j.Target {
		case j.Demand:
			achieved += c.fvals[idx] // memoized, identical to f.Value(Target)
		case exact:
			achieved += fExact
		default:
			achieved += f.Value(j.Target)
		}
	}
	res.Quality = achieved / fullQ
	return res
}

// Cut sets exactly the targets LongestFirst sets, without summing the
// Result: the scheduler discards it, and the sum costs an f evaluation per
// pass.
func (c *Cutter) Cut(jobs []*job.Job, f quality.Function, qge float64) {
	cutCount, exact, fullQ := c.level(jobs, f, qge)
	if fullQ == 0 {
		return
	}
	for rank, idx := range c.order {
		setTarget(jobs[idx], rank < cutCount, exact)
	}
}

// setTarget applies one job's LF target: the cut level when the job is in
// the cut group, its full demand otherwise, floored at its processed volume.
func setTarget(j *job.Job, cut bool, exact float64) {
	want := j.Demand
	if cut {
		want = exact
	}
	j.RestoreTarget()
	j.SetTarget(want) // clamps to [Processed, Demand]
}

// level runs LF's level walk. It leaves c.order sorted longest first and
// c.fvals holding each job's f(demand), and returns the size of the cut
// group (the first cutCount jobs of c.order), the exact cut level, and the
// batch's full quality mass Σf(p_j). A zero mass means there is nothing to
// apply: the batch is empty, qge >= 1 (every target is restored here), or
// no job has quality mass (the targets stay as they are).
func (c *Cutter) level(jobs []*job.Job, f quality.Function, qge float64) (cutCount int, exact, fullQ float64) {
	if len(jobs) == 0 {
		return 0, 0, 0
	}
	if qge >= 1 {
		for _, j := range jobs {
			j.RestoreTarget()
		}
		return 0, 0, 0
	}
	if qge < 0 {
		qge = 0
	}

	// Cutting reasons about the ORIGINAL demands (a running job is
	// re-considered as new); floors are applied at the end.
	n := len(jobs)
	c.demands = c.demands[:0]
	c.fvals = c.fvals[:0]
	c.order = c.order[:0]
	for i, j := range jobs {
		c.demands = append(c.demands, j.Demand)
		v := j.FDemand // stored when the job entered its machine
		if v == 0 {
			v = f.Value(j.Demand)
		}
		c.fvals = append(c.fvals, v)
		c.order = append(c.order, i)
		fullQ += v
	}
	demands, fvals, order := c.demands, c.fvals, c.order
	if fullQ == 0 {
		// Nothing has any quality mass; leave targets alone.
		return 0, 0, 0
	}
	// Stable sort so demand ties keep input order — LF's tie-break is part
	// of the deterministic contract.
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case demands[a] > demands[b]:
			return -1
		case demands[a] < demands[b]:
			return 1
		default:
			return 0
		}
	})

	// level[k] walks the distinct demand values from the top. After the
	// cutting loop, jobs 0..cutCount-1 (in `order`) are cut to `level`,
	// the rest keep their demands.
	targetSum := qge * fullQ // Σ f(target) we must retain

	// Iteratively lower the longest group to the next-longest demand.
	// curQ tracks Σ f(target) under the hypothetical cut. The level is
	// always some job's demand (or 0), so f(level)/f(next) come from the
	// memoized fvals instead of fresh evaluations.
	level := demands[order[0]]
	fLevel := fvals[order[0]]
	curQ := fullQ
	for cutCount < n {
		// Extend the cut group over all jobs tied at the current level.
		for cutCount < n && demands[order[cutCount]] >= level-1e-12 {
			cutCount++
		}
		next, fNext := 0.0, 0.0
		if cutCount < n {
			next = demands[order[cutCount]]
			fNext = fvals[order[cutCount]]
		} else {
			fNext = f.Value(0)
		}
		// Quality if the group drops to `next`.
		hypo := curQ + float64(cutCount)*(fNext-fLevel)
		if hypo <= targetSum || cutCount == n {
			break
		}
		curQ = hypo
		level = next
		fLevel = fNext
	}

	// Solve the exact level for the cut group:
	// cutCount jobs at f(c) each, plus the quality of the uncut tail,
	// must equal targetSum.
	uncutQ := 0.0
	for i := cutCount; i < n; i++ {
		uncutQ += fvals[order[i]]
	}
	perJobQ := (targetSum - uncutQ) / float64(cutCount)
	switch {
	case perJobQ <= 0:
		exact = 0
	default:
		exact = f.Inverse(perJobQ)
	}
	return cutCount, exact, fullQ
}

// LongestFirst is the stand-alone form for callers without a reusable
// Cutter; it allocates fresh scratch per call.
func LongestFirst(jobs []*job.Job, f quality.Function, qge float64) Result {
	var c Cutter
	return c.LongestFirst(jobs, f, qge)
}

// Restore removes every cut: all targets return to the full demands (the
// BQ / Best-Quality mode).
func Restore(jobs []*job.Job) {
	for _, j := range jobs {
		j.RestoreTarget()
	}
}
