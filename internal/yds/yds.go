// Package yds implements the Energy-OPT speed-scaling algorithm of
// Yao, Demers and Shenker (FOCS'95), which the paper uses as the final,
// per-core stage of every schedule: given the jobs bound to a core and
// their deadlines, compute the speed profile that finishes the (possibly
// cut) work with minimal energy under a convex power curve.
//
// Two variants are provided:
//
//   - AppendPlanCommonRelease: all jobs are available now (the situation at
//     every scheduling event — whatever is queued on the core has already
//     arrived). With a common release the optimal profile has a closed
//     recursive form: repeatedly run the maximum-intensity prefix at its
//     intensity, then recurse after that prefix's last deadline. Speeds are
//     non-increasing over time.
//
//   - GroupsGeneral: the textbook critical-interval algorithm for arbitrary
//     release times, provided for library completeness and used by tests as
//     a cross-check.
//
// Speeds are expressed in GHz using the paper's conversion of 1 GHz =
// 1000 processing units per second.
package yds

import (
	"math"

	"goodenough/internal/job"
	"goodenough/internal/power"
)

// Assignment gives one job its planned constant execution speed. Start and
// End describe the planned contiguous execution window (EDF order); under a
// speed cap the window may extend past the job's deadline, in which case
// the machine model will drop the unfinished tail at the deadline.
type Assignment struct {
	Job   *job.Job
	Speed float64 // GHz
	Start float64 // seconds
	End   float64 // seconds
}

// PeakSpeedEDF returns the minimal uniform speed (GHz) that completes every
// job's remaining target work by its deadline, i.e. the maximum prefix
// intensity over the EDF order. It is the YDS critical speed for a common
// release and also the per-core power demand used by Water-Filling. Jobs
// whose deadlines have already passed contribute +Inf.
//
// The jobs must already be in EDF order (job.SortEDF): an unsorted slice
// gives a wrong (not merely different) peak. It allocates nothing, so
// schedulers that keep an EDF-sorted scratch can query peak demand on every
// trigger for free.
func PeakSpeedEDF(now float64, jobs []*job.Job) float64 {
	peak := 0.0
	cum := 0.0
	for _, j := range jobs {
		cum += j.Remaining()
		if cum <= 0 {
			continue
		}
		window := j.Deadline - now
		if window <= 0 {
			return math.Inf(1)
		}
		if s := power.SpeedForRate(cum / window); s > peak {
			peak = s
		}
	}
	return peak
}

// AppendPlanCommonRelease computes the minimal-energy execution plan for
// jobs all available at time now and already in EDF order, optionally
// capped at speedCap GHz (0 = uncapped). It appends the assignments to dst
// (which may be a reused scratch slice with length 0) and returns the
// extended slice; the input order is read, never mutated.
//
// The assignments are in EDF execution order with contiguous windows.
// Without a cap the plan is exactly the YDS optimum and finishes every job
// by its deadline. With a cap, groups whose YDS speed exceeds the cap run
// at the cap; their windows may overrun deadlines and the surplus work is
// lost at execution time (this is the controlled quality loss the
// scheduler accounts for via Quality-OPT).
//
// Jobs with no remaining work receive a zero-length assignment at speed 0.
func AppendPlanCommonRelease(dst []Assignment, now float64, sorted []*job.Job, speedCap float64) []Assignment {
	if len(sorted) == 0 {
		return dst
	}
	plan := dst
	t := now
	i := 0
	for i < len(sorted) {
		// Find the maximum-intensity prefix starting at i.
		bestK := i
		bestIntensity := -1.0 // units per second
		infinite := false
		cum := 0.0
		for k := i; k < len(sorted); k++ {
			cum += sorted[k].Remaining()
			window := sorted[k].Deadline - t
			if window <= 0 {
				if cum > 0 {
					// Work due in the past: intensity unbounded; the
					// group is hopeless past this point and runs at cap.
					bestK = k
					infinite = true
					// Keep extending only over other already-expired jobs.
					break
				}
				bestK = k
				continue
			}
			if intensity := cum / window; intensity > bestIntensity {
				bestIntensity = intensity
				bestK = k
			}
		}

		var speed float64
		switch {
		case infinite:
			speed = speedCap
			if speed <= 0 {
				// No cap given: run at the peak finite intensity of the
				// remaining jobs, or 1 GHz as a floor, just to drain.
				speed = math.Max(1, bestIntensity/power.UnitsPerGHz)
			}
		case bestIntensity <= 0:
			speed = 0
		default:
			speed = bestIntensity / power.UnitsPerGHz
			if speedCap > 0 && speed > speedCap {
				speed = speedCap
			}
		}

		// Lay the group's jobs out sequentially at the group speed.
		for k := i; k <= bestK; k++ {
			j := sorted[k]
			dur := 0.0
			if speed > 0 {
				dur = j.Remaining() / power.Rate(speed)
			}
			plan = append(plan, Assignment{Job: j, Speed: speed, Start: t, End: t + dur})
			t += dur
		}
		// Without a cap the group finishes exactly at its last deadline;
		// floating point may leave t marginally short, and later groups
		// were sized assuming the deadline boundary.
		if !infinite && speedCap <= 0 && bestK < len(sorted) {
			if d := sorted[bestK].Deadline; t < d {
				t = d
			}
		}
		i = bestK + 1
	}
	return plan
}

// Group is one critical group of the general YDS algorithm: the listed
// jobs execute at Speed (GHz) in the optimal schedule.
type Group struct {
	JobIDs []int
	Speed  float64
}

// GroupsGeneral runs the textbook YDS critical-interval algorithm for jobs
// with arbitrary release times and deadlines, returning each job's optimal
// speed group in extraction order (fastest first). The remaining jobs' time
// axis is compressed after every extraction, as in the original algorithm.
//
// The returned speeds define the minimal-energy preemptive EDF schedule;
// total energy is Σ_j w_j/1000 · A·s_j^{β−1}.
func GroupsGeneral(jobs []*job.Job) []Group {
	type item struct {
		id   int
		r, d float64
		w    float64
	}
	items := make([]item, 0, len(jobs))
	for _, j := range jobs {
		if j.Remaining() <= 0 {
			continue
		}
		items = append(items, item{id: j.ID, r: j.Release, d: j.Deadline, w: j.Remaining()})
	}
	var groups []Group
	for len(items) > 0 {
		// Candidate interval endpoints are the releases and deadlines.
		bestG := -1.0
		var bestT1, bestT2 float64
		for _, a := range items {
			for _, b := range items {
				t1, t2 := a.r, b.d
				if t2 <= t1 {
					continue
				}
				w := 0.0
				for _, it := range items {
					if it.r >= t1 && it.d <= t2 {
						w += it.w
					}
				}
				if g := w / (t2 - t1); g > bestG {
					bestG, bestT1, bestT2 = g, t1, t2
				}
			}
		}
		if bestG <= 0 {
			// Remaining jobs have no positive-length windows; group them
			// at speed 0 (they cannot be processed).
			g := Group{Speed: 0}
			for _, it := range items {
				g.JobIDs = append(g.JobIDs, it.id)
			}
			groups = append(groups, g)
			break
		}
		g := Group{Speed: bestG / power.UnitsPerGHz}
		var rest []item
		for _, it := range items {
			if it.r >= bestT1 && it.d <= bestT2 {
				g.JobIDs = append(g.JobIDs, it.id)
				continue
			}
			// Compress the critical interval out of the timeline.
			shift := bestT2 - bestT1
			if it.r > bestT2 {
				it.r -= shift
			} else if it.r > bestT1 {
				it.r = bestT1
			}
			if it.d > bestT2 {
				it.d -= shift
			} else if it.d > bestT1 {
				it.d = bestT1
			}
			rest = append(rest, it)
		}
		groups = append(groups, g)
		items = rest
	}
	return groups
}

// GroupsEnergy computes the total energy of a general YDS grouping under
// the given power model.
func GroupsEnergy(m power.Model, jobs []*job.Job, groups []Group) float64 {
	byID := make(map[int]*job.Job, len(jobs))
	for _, j := range jobs {
		byID[j.ID] = j
	}
	e := 0.0
	for _, g := range groups {
		if g.Speed <= 0 {
			continue
		}
		for _, id := range g.JobIDs {
			j := byID[id]
			dur := j.Remaining() / power.Rate(g.Speed)
			e += m.Energy(g.Speed, dur)
		}
	}
	return e
}
