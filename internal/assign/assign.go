// Package assign implements the batch job-to-core assignment policies.
//
// The paper uses Cumulative Round-Robin (C-RR): plain round-robin, except
// the distribution cursor persists across scheduling cycles, so job k of
// the next batch continues from where the previous batch stopped. Over the
// long run this spreads jobs more evenly than restarting at core 0 every
// cycle. Plain RR and a least-loaded policy are provided for ablations.
//
// Assignment is expressed over an eligible-core list rather than a bare
// core count so the scheduler can route new work around failed cores: on a
// fault-free machine the list is simply [0, 1, …, m−1].
package assign

import (
	"goodenough/internal/job"
)

// Assigner maps a batch of waiting jobs onto cores. Implementations set
// each job's Core field and State; they must never move an already
// assigned job (no migration, paper §II-B).
type Assigner interface {
	// Assign binds each job to one of the eligible core indices. loads
	// gives the current remaining work per core (indexed by core index,
	// spanning the whole machine) for load-aware policies.
	Assign(jobs []*job.Job, eligible []int, loads []float64)
	// Name identifies the policy.
	Name() string
	// Reset clears any cross-cycle state (new simulation run).
	Reset()
}

// RoundRobin restarts at the first eligible core on every batch.
type RoundRobin struct{}

// Assign implements Assigner.
func (RoundRobin) Assign(jobs []*job.Job, eligible []int, _ []float64) {
	if len(eligible) == 0 {
		panic("assign: no eligible cores")
	}
	for i, j := range jobs {
		bind(j, eligible[i%len(eligible)])
	}
}

// Name implements Assigner.
func (RoundRobin) Name() string { return "rr" }

// Reset implements Assigner.
func (RoundRobin) Reset() {}

// CumulativeRR is the paper's C-RR policy: the cursor persists across
// batches. The cursor walks the eligible list by position, so when a core
// fails mid-run the rotation simply continues over the survivors.
type CumulativeRR struct {
	cursor int
}

// Assign implements Assigner.
func (c *CumulativeRR) Assign(jobs []*job.Job, eligible []int, _ []float64) {
	if len(eligible) == 0 {
		panic("assign: no eligible cores")
	}
	if c.cursor >= len(eligible) {
		// The eligible set shrank (core failure or fewer cores); wrap.
		c.cursor %= len(eligible)
	}
	for _, j := range jobs {
		bind(j, eligible[c.cursor])
		c.cursor = (c.cursor + 1) % len(eligible)
	}
}

// Name implements Assigner.
func (c *CumulativeRR) Name() string { return "c-rr" }

// Reset implements Assigner.
func (c *CumulativeRR) Reset() { c.cursor = 0 }

// LeastLoaded binds each job to the eligible core with the least remaining
// work, updating the load estimate as it assigns (ablation policy).
type LeastLoaded struct{}

// Assign implements Assigner.
func (LeastLoaded) Assign(jobs []*job.Job, eligible []int, loads []float64) {
	if len(eligible) == 0 {
		panic("assign: no eligible cores")
	}
	local := make(map[int]float64, len(eligible))
	for _, c := range eligible {
		if c >= 0 && c < len(loads) {
			local[c] = loads[c]
		}
	}
	for _, j := range jobs {
		best := eligible[0]
		for _, c := range eligible[1:] {
			if local[c] < local[best] {
				best = c
			}
		}
		bind(j, best)
		local[best] += j.Remaining()
	}
}

// Name implements Assigner.
func (LeastLoaded) Name() string { return "least-loaded" }

// Reset implements Assigner.
func (LeastLoaded) Reset() {}

func bind(j *job.Job, core int) {
	j.Core = core
	j.State = job.StateAssigned
}
