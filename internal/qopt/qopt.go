// Package qopt implements the Quality-OPT algorithm (He, Elnikety, Sun —
// "Tians scheduling", ICDCS'11) as used by the paper: when the power
// assigned to a core cannot finish the core's (possibly already cut)
// workload, choose how much of each job to process so the achieved quality
// is the maximum possible within the core's processing capacity.
//
// Formally, for jobs J_1..J_n in EDF order on one core at time `now`, with
// processing-rate cap R (units/second), choose targets c_j ∈
// [processed_j, p_j] maximizing Σ f(c_j) subject to the EDF feasibility
// (prefix-capacity) constraints
//
//	Σ_{i ≤ k} (c_i − processed_i)  ≤  R · (d_k − now)   for every k.
//
// Because every job shares the same concave quality function, the optimum
// is a *level water-fill*: bring all jobs up to a common volume level,
// except where individual demands cap out or a prefix constraint binds.
// Binding prefixes split the problem — exactly dual to the YDS critical
// group: the first segment of the optimum is the prefix that can afford
// only the LOWEST fill level; it is allocated at that level, and the rest
// recurses with the leftover budgets. Levels are therefore non-decreasing
// along the EDF order. Each prefix's level is solved exactly (fillLevel).
package qopt

import (
	"math"

	"goodenough/internal/job"
)

// AllocateEDF maximizes batch quality under the rate cap for jobs already
// in EDF order (job.SortEDF), setting each job's Target in place (never
// below Processed, never above Demand). It returns the total remaining work
// scheduled (Σ Target−Processed) and the (possibly grown) scratch slice for
// the caller to hold on to — passing it back next call makes steady-state
// allocation zero. The job order is read, never mutated.
//
// rate is the core's processing capacity in units/second (speed·1000);
// rate <= 0 pins every target at the processed volume (nothing more can
// run). Jobs past their deadline receive no additional work.
func AllocateEDF(now float64, sorted []*job.Job, rate float64, scratch []float64) (float64, []float64) {
	n := len(sorted)
	if n == 0 {
		return 0, scratch
	}
	if rate <= 0 {
		for _, j := range sorted {
			j.SetTarget(j.Processed)
		}
		return 0, scratch
	}

	// scratch holds the prefix budgets, then room for the floor and the
	// cap breakpoints of up to n jobs.
	if cap(scratch) < 3*n {
		scratch = make([]float64, 3*n)
	}
	scratch = scratch[:3*n]
	budgets := scratch[:n]
	// Prefix budgets in units of *additional* work.
	for k, j := range sorted {
		w := j.Deadline - now
		if w < 0 {
			w = 0
		}
		budgets[k] = rate * w
	}
	// Budgets are non-decreasing by EDF order; enforce against float noise.
	for k := 1; k < len(budgets); k++ {
		if budgets[k] < budgets[k-1] {
			budgets[k] = budgets[k-1]
		}
	}

	total := 0.0
	allocateSegment(sorted, budgets, scratch[n:2*n:2*n], scratch[2*n:], &total)
	return total, scratch
}

// allocateSegment solves the nested-constraint water-fill recursively:
// find the prefix achieving the minimum fill level, fix it, recurse on the
// suffix with the spent budget removed. floors and caps are scratch with
// room for len(jobs) breakpoints each.
func allocateSegment(jobs []*job.Job, budgets, floors, caps []float64, total *float64) {
	for len(jobs) > 0 {
		bestK := -1
		bestLevel := math.Inf(1)
		floors, caps = floors[:0], caps[:0]
		need := 0.0
		for k, j := range jobs {
			if j.Demand > j.Processed {
				need += j.Demand - j.Processed
				floors = insertSorted(floors, j.Processed)
				caps = insertSorted(caps, j.Demand)
			}
			// +Inf when the prefix's full demands fit: no level binds.
			level := math.Inf(1)
			if need > budgets[k]+1e-12 {
				level = fillLevel(floors, caps, budgets[k])
			}
			// Prefer the longest prefix among equal levels so segments are
			// maximal (mirrors YDS taking the whole critical group).
			if level < bestLevel-1e-12 || (level <= bestLevel+1e-12 && k > bestK && level != math.Inf(1)) {
				bestLevel = level
				bestK = k
			}
		}
		if bestK < 0 || math.IsInf(bestLevel, 1) {
			// Every prefix can afford full demands: no constraint binds.
			for _, j := range jobs {
				*total += j.Demand - math.Min(j.Demand, j.Processed)
				j.SetTarget(j.Demand)
			}
			return
		}
		// Fix the first segment at its level.
		used := 0.0
		for _, j := range jobs[:bestK+1] {
			c := clampLevel(j, bestLevel)
			used += c - math.Min(c, j.Processed)
			j.SetTarget(c)
		}
		*total += used
		// Recurse on the suffix with the used budget deducted.
		jobs = jobs[bestK+1:]
		budgets = budgets[bestK+1:]
		for i := range budgets {
			budgets[i] -= used
			if budgets[i] < 0 {
				budgets[i] = 0
			}
		}
	}
}

// clampLevel returns the target for job j at fill level L.
func clampLevel(j *job.Job, level float64) float64 {
	c := level
	if c < j.Processed {
		c = j.Processed
	}
	if c > j.Demand {
		c = j.Demand
	}
	return c
}

// insertSorted inserts x into the ascending slice s, which has room for it.
func insertSorted(s []float64, x float64) []float64 {
	i := len(s)
	s = append(s, x)
	for i > 0 && s[i-1] > x {
		s[i] = s[i-1]
		i--
	}
	s[i] = x
	return s
}

// fillLevel returns the highest level L at which raising the jobs to
// clamp(L, Processed, Demand) takes no more than budget additional work.
// floors and caps are the Processed and Demand values of the jobs with
// work left, each sorted ascending; their total need must exceed budget.
//
// The work at level L, Σ clamp(L, Processed_j, Demand_j) − Processed_j,
// is piecewise linear: its slope is the number of jobs whose floor L has
// passed and whose cap it has not. Walking the breakpoints in order finds
// the piece where the work crosses the budget, and the level follows in
// closed form.
func fillLevel(floors, caps []float64, budget float64) float64 {
	x, work := floors[0], 0.0 // no work is needed below the lowest floor
	active, f, c := 0, 0, 0
	for c < len(caps) {
		next, floor := caps[c], false
		if f < len(floors) && floors[f] <= next {
			next, floor = floors[f], true
		}
		if active > 0 {
			w := work + float64(active)*(next-x)
			if w > budget {
				return x + (budget-work)/float64(active)
			}
			work = w
		}
		x = next
		if floor {
			active++
			f++
		} else {
			active--
			c++
		}
	}
	// Rounding left the summed pieces within the budget: every job is at
	// its cap.
	return x
}
