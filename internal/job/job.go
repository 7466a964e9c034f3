// Package job defines the service-request model shared by every scheduler.
//
// A job J_j has a release (start) time s_j, a deadline d_j, and a processing
// demand p_j in processing units. Jobs may be partially processed; the
// volume processed by the deadline determines the perceived quality. Once a
// job is assigned to a core it never migrates (paper §II-B).
package job

import (
	"fmt"
	"slices"
)

// State tracks a job's position in its lifecycle.
type State int

const (
	// StateWaiting means the job has arrived but is not yet assigned to a
	// core.
	StateWaiting State = iota
	// StateAssigned means the job sits in a core's local queue or is
	// executing.
	StateAssigned
	// StateFinalized means the job's outcome is decided: it either
	// completed its (possibly cut) target or hit its deadline.
	StateFinalized
)

// Job is a single service request. Fields are exported for the scheduler
// packages; treat Processed/Target/State as owned by the simulation.
type Job struct {
	// ID is a unique, monotonically increasing identifier (arrival order).
	ID int
	// Release is the arrival time s_j in seconds.
	Release float64
	// Deadline is d_j in seconds; work after the deadline is worthless.
	Deadline float64
	// Demand is the full processing demand p_j in processing units.
	Demand float64
	// FDemand is f(p_j) under the quality function of the machine that
	// queued the job, stored when the job enters the machine so cutting and
	// finalization read it instead of evaluating f again. Zero means not
	// stored: a job that never entered a machine has f evaluated where it
	// is needed.
	FDemand float64

	// Target is the volume the scheduler currently intends to process
	// (c_j after cutting). It starts equal to Demand and only ever moves
	// within [Processed, Demand].
	Target float64
	// Processed is the volume completed so far.
	Processed float64
	// Core is the index of the core the job is bound to, or -1 while
	// waiting.
	Core int
	// State is the lifecycle state.
	State State
	// CutCount records how many times a cutting pass reduced this job's
	// target (diagnostics).
	CutCount int
	// Requeues counts how many times the job was orphaned by a core
	// failure and returned to the waiting queue. It is the audit trail for
	// the one permitted exception to the no-migration rule: a job may be
	// re-bound to a new core only after a failure orphaned it, and the
	// invariant checker verifies every re-binding against this counter.
	Requeues int
	// Finish is the simulation time at which the job was finalized
	// (completed or expired); meaningful only once State is
	// StateFinalized. The response time is Finish − Release.
	Finish float64
}

// New constructs a waiting job with the given identity and shape. The
// target starts at the full demand (no cut).
func New(id int, release, deadline, demand float64) *Job {
	return &Job{
		ID:       id,
		Release:  release,
		Deadline: deadline,
		Demand:   demand,
		Target:   demand,
		Core:     -1,
		State:    StateWaiting,
	}
}

// Validate reports whether the job is well-formed.
func (j *Job) Validate() error {
	if j.Demand < 0 {
		return fmt.Errorf("job %d: negative demand %v", j.ID, j.Demand)
	}
	if j.Deadline < j.Release {
		return fmt.Errorf("job %d: deadline %v before release %v", j.ID, j.Deadline, j.Release)
	}
	return nil
}

// Remaining returns the work still needed to reach the current target.
// It is never negative.
func (j *Job) Remaining() float64 {
	r := j.Target - j.Processed
	if r < 0 {
		return 0
	}
	return r
}

// SetTarget moves the cutting target, clamped to [Processed, Demand].
// It records a cut when the target decreases.
func (j *Job) SetTarget(t float64) {
	if t > j.Demand {
		t = j.Demand
	}
	if t < j.Processed {
		t = j.Processed
	}
	if t < j.Target {
		j.CutCount++
	}
	j.Target = t
}

// RestoreTarget resets the target to the full demand (BQ mode).
func (j *Job) RestoreTarget() { j.Target = j.Demand }

// Advance records dw units of completed work, clamped so Processed never
// exceeds Demand. It returns the amount actually applied.
func (j *Job) Advance(dw float64) float64 {
	if dw <= 0 {
		return 0
	}
	room := j.Demand - j.Processed
	if dw > room {
		dw = room
	}
	j.Processed += dw
	return dw
}

// Done reports whether the job has reached its current target.
func (j *Job) Done() bool { return j.Processed >= j.Target-1e-9 }

// Expired reports whether the job's deadline has passed at time t.
func (j *Job) Expired(t float64) bool { return t >= j.Deadline }

// The comparators below are total orders (unique IDs break every tie), so
// a stable sort and an unstable one agree; SortStableFunc is used because
// it sorts in place with a static comparator — no closure or interface
// allocations, unlike sort.SliceStable.

// CompareEDF orders by deadline, breaking ties by release then ID.
func CompareEDF(a, b *Job) int {
	switch {
	case a.Deadline < b.Deadline:
		return -1
	case a.Deadline > b.Deadline:
		return 1
	case a.Release < b.Release:
		return -1
	case a.Release > b.Release:
		return 1
	default:
		return a.ID - b.ID
	}
}

// SortEDF orders jobs by deadline, breaking ties by release then ID. This
// is the execution order on every core (paper: EDF, non-preemptive).
func SortEDF(jobs []*Job) {
	slices.SortStableFunc(jobs, CompareEDF)
}

// FIFO is a simple waiting queue preserving arrival order.
type FIFO struct {
	jobs []*Job
}

// Push appends a job to the queue.
func (q *FIFO) Push(j *Job) { q.jobs = append(q.jobs, j) }

// Len returns the number of queued jobs.
func (q *FIFO) Len() int { return len(q.jobs) }

// AppendDrain appends every queued job to dst in arrival order, empties the
// queue, and returns the extended slice. The queue keeps its backing array,
// so alternating AppendDrain/Push cycles stop allocating once both slices
// reach their high-water marks.
func (q *FIFO) AppendDrain(dst []*Job) []*Job {
	dst = append(dst, q.jobs...)
	for i := range q.jobs {
		q.jobs[i] = nil
	}
	q.jobs = q.jobs[:0]
	return dst
}

// Peek returns the queued jobs without removing them. The caller must not
// mutate the returned slice.
func (q *FIFO) Peek() []*Job { return q.jobs }

// PopJob removes and returns the given job if it is queued, or nil. It
// matches by pointer identity, so hot callers need no closure.
func (q *FIFO) PopJob(target *Job) *Job {
	for i, j := range q.jobs {
		if j == target {
			q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
			return j
		}
	}
	return nil
}

// PopExpired removes and returns the first job whose deadline has passed at
// time t, or nil. It serves the runner's expiry sweep, which runs on every
// delivered event and must not allocate.
func (q *FIFO) PopExpired(t float64) *Job {
	for i, j := range q.jobs {
		if j.Expired(t) {
			q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
			return j
		}
	}
	return nil
}

// PopBest removes and returns the job minimizing key, or nil if empty.
// Ties resolve to the earliest-queued job.
func (q *FIFO) PopBest(key func(*Job) float64) *Job {
	if len(q.jobs) == 0 {
		return nil
	}
	best := 0
	bestKey := key(q.jobs[0])
	for i := 1; i < len(q.jobs); i++ {
		if k := key(q.jobs[i]); k < bestKey {
			best, bestKey = i, k
		}
	}
	j := q.jobs[best]
	q.jobs = append(q.jobs[:best], q.jobs[best+1:]...)
	return j
}
