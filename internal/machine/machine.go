// Package machine models the multicore server: m cores with per-core DVFS,
// executing per-core EDF plans, with exact energy and speed accounting.
//
// A core holds an ordered execution plan of (job, speed) entries. Advancing
// the machine from one event time to the next runs each core through its
// plan: the head job executes at its assigned speed until it reaches its
// target, hits its deadline (the unfinished tail is dropped — that is the
// quality loss), or the advance window ends. Dynamic energy P(s)·dt and
// time-weighted speed statistics accumulate as execution proceeds.
//
// Jobs never migrate between cores (paper §II-B); the scheduler may only
// re-order or re-speed a core's own queue. The one audited exception is
// fault injection: Core.Fail orphans the planned queue so the scheduler can
// requeue those jobs elsewhere (see internal/faults and internal/sched).
// Cores also carry health state (failed, stuck DVFS) and the Server carries
// a mutable power cap so facility-level capping can shrink it mid-run.
package machine

import (
	"fmt"

	"goodenough/internal/job"
	"goodenough/internal/obs"
	"goodenough/internal/power"
	"goodenough/internal/stats"
)

// Reason says why a job left a core.
type Reason int

const (
	// ReasonCompleted means the job reached its (possibly cut) target.
	ReasonCompleted Reason = iota
	// ReasonExpired means the deadline passed with work outstanding.
	ReasonExpired
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	if r == ReasonCompleted {
		return "completed"
	}
	return "expired"
}

// Entry pairs a job with its planned execution speed in GHz.
type Entry struct {
	Job   *job.Job
	Speed float64
}

// FinalizeFunc observes a job leaving the machine.
type FinalizeFunc func(j *job.Job, r Reason)

// Core is a single DVFS-capable core.
type Core struct {
	// Index is the core's position in the server.
	Index int

	entries []Entry
	now     float64

	energy  float64
	busy    stats.TimeWeighted // speed profile over busy time only
	done    int64
	expired int64

	// Fault-injection state: a failed core executes nothing; a stuck core
	// executes every plan entry at the wedged speed.
	failed   bool
	failedAt float64
	downTime float64
	failures int64
	stuck    float64 // 0 = DVFS free

	// Observability: obs receives exec segments and DVFS speed changes;
	// lastSpeed deduplicates speed events. Nil obs costs one branch.
	obs       obs.Observer
	lastSpeed float64
}

// SetObserver attaches an observability sink to the core. With an observer
// attached, Advance emits one obs.EventExec per contiguous (job, speed)
// execution segment and one obs.EventCoreSpeed whenever the executing speed
// changes (0 = idle).
func (c *Core) SetObserver(o obs.Observer) { c.obs = o }

// noteSpeed emits a DVFS-transition event when the executing speed changes.
func (c *Core) noteSpeed(t, s float64) {
	if c.obs == nil || s == c.lastSpeed {
		return
	}
	c.lastSpeed = s
	c.obs.Observe(obs.Event{Time: t, Type: obs.EventCoreSpeed, Core: c.Index, Job: -1, Value: s})
}

// Energy returns the dynamic energy consumed so far, in joules.
func (c *Core) Energy() float64 { return c.energy }

// BusyProfile returns the time-weighted speed statistics over busy time.
func (c *Core) BusyProfile() stats.TimeWeighted { return c.busy }

// Completed and Expired report lifetime counters.
func (c *Core) Completed() int64 { return c.done }

// Expired reports how many jobs this core dropped at their deadlines.
func (c *Core) Expired() int64 { return c.expired }

// Queue returns the jobs currently planned on this core, in plan order.
// The slice is a copy; the jobs are shared.
func (c *Core) Queue() []*job.Job {
	out := make([]*job.Job, len(c.entries))
	for i, e := range c.entries {
		out[i] = e.Job
	}
	return out
}

// AppendQueue appends the planned jobs to dst in plan order and returns the
// extended slice — the allocation-free form of Queue for hot callers that
// own a reusable buffer.
func (c *Core) AppendQueue(dst []*job.Job) []*job.Job {
	for _, e := range c.entries {
		dst = append(dst, e.Job)
	}
	return dst
}

// Idle reports whether the core has nothing to run.
func (c *Core) Idle() bool { return len(c.entries) == 0 }

// Load returns the total remaining target work queued on the core.
func (c *Core) Load() float64 {
	sum := 0.0
	for _, e := range c.entries {
		sum += e.Job.Remaining()
	}
	return sum
}

// SetPlan replaces the core's execution plan. Every entry's job must
// already be bound to this core; the entries execute in the given order
// (the scheduler provides EDF order). A failed core accepts a plan but
// executes nothing — planning work there is a policy bug that the verify
// layer flags as a "dead-core" violation. On a stuck core, every entry's
// speed is overridden by the wedged DVFS speed — the hardware, not the
// scheduler, picks the frequency there.
func (c *Core) SetPlan(entries []Entry) error {
	for _, e := range entries {
		if e.Job.Core != c.Index {
			return fmt.Errorf("machine: job %d bound to core %d, planned on core %d",
				e.Job.ID, e.Job.Core, c.Index)
		}
		if e.Speed < 0 {
			return fmt.Errorf("machine: negative speed %v for job %d", e.Speed, e.Job.ID)
		}
	}
	c.entries = append(c.entries[:0], entries...)
	if c.stuck > 0 {
		for i := range c.entries {
			c.entries[i].Speed = c.stuck
		}
	}
	return nil
}

// Fail halts the core at time now: the planned queue is orphaned and
// returned to the caller (the scheduler decides whether to requeue or drop
// those jobs), and the core executes nothing until Recover. Failing a
// failed core is a no-op returning nil.
func (c *Core) Fail(now float64) []Entry {
	if c.failed {
		return nil
	}
	c.failed = true
	c.failedAt = now
	c.failures++
	orphans := append([]Entry(nil), c.entries...)
	c.entries = c.entries[:0]
	c.noteSpeed(now, 0) // execution halts instantly
	return orphans
}

// Recover returns a failed core to service (empty and healthy) at time now.
func (c *Core) Recover(now float64) {
	if !c.failed {
		return
	}
	c.downTime += now - c.failedAt
	c.failed = false
}

// Healthy reports whether the core is in service.
func (c *Core) Healthy() bool { return !c.failed }

// Failures counts how many times this core has failed.
func (c *Core) Failures() int64 { return c.failures }

// DownTime returns the total time the core has spent failed, up to now.
func (c *Core) DownTime(now float64) float64 {
	if c.failed {
		return c.downTime + now - c.failedAt
	}
	return c.downTime
}

// SetStuck wedges the core's DVFS at speed GHz (speed <= 0 frees it). The
// current plan is re-speeded immediately.
func (c *Core) SetStuck(speed float64) {
	if speed <= 0 {
		c.stuck = 0
		return
	}
	c.stuck = speed
	for i := range c.entries {
		c.entries[i].Speed = speed
	}
}

// StuckSpeed returns the wedged DVFS speed, or 0 when the governor is free.
func (c *Core) StuckSpeed() float64 { return c.stuck }

// Advance executes the core's plan from its current clock to `to`,
// finalizing jobs as they complete or expire. Energy and speed statistics
// accumulate. The model supplies the power curve.
func (c *Core) Advance(m power.Model, to float64, finalize FinalizeFunc) {
	if c.failed {
		// A failed core executes nothing and draws nothing.
		if to > c.now {
			c.noteSpeed(c.now, 0)
			c.now = to
		}
		return
	}
	t := c.now
	for t < to {
		// Finalize any leading jobs that are done or hopeless.
		for len(c.entries) > 0 {
			head := c.entries[0]
			switch {
			case head.Job.Done():
				c.finalizeHead(t, finalize, ReasonCompleted)
			case head.Job.Expired(t):
				c.finalizeHead(t, finalize, ReasonExpired)
			case head.Speed <= 0:
				// No speed assigned but work remains: the job cannot
				// progress; it will expire. Skip it at its deadline; for
				// now treat the core as idle until then.
				goto run
			default:
				goto run
			}
		}
	run:
		if len(c.entries) == 0 {
			// Idle to the end of the window.
			if to > t {
				c.noteSpeed(t, 0)
			}
			t = to
			break
		}
		head := c.entries[0]
		if head.Speed <= 0 {
			// Idle until the doomed job's deadline (or window end).
			idleUntil := head.Job.Deadline
			if idleUntil > to {
				idleUntil = to
			}
			if idleUntil > t {
				c.noteSpeed(t, 0)
				t = idleUntil
			}
			if head.Job.Expired(t) {
				c.finalizeHead(t, finalize, ReasonExpired)
			}
			continue
		}
		rate := power.Rate(head.Speed)
		dt := to - t
		if finishIn := head.Job.Remaining() / rate; finishIn < dt {
			dt = finishIn
		}
		if deadlineIn := head.Job.Deadline - t; deadlineIn < dt {
			dt = deadlineIn
		}
		if dt < 0 {
			dt = 0
		}
		if c.obs != nil && dt > 0 {
			c.noteSpeed(t, head.Speed)
			c.obs.Observe(obs.Event{
				Time: t, Type: obs.EventExec, Core: c.Index, Job: head.Job.ID,
				Value: head.Speed, Aux: dt, Extra: m.Energy(head.Speed, dt),
			})
		}
		head.Job.Advance(rate * dt)
		c.energy += m.Energy(head.Speed, dt)
		c.busy.Add(head.Speed, dt)
		t += dt
		if head.Job.Done() {
			c.finalizeHead(t, finalize, ReasonCompleted)
		} else if head.Job.Expired(t) {
			c.finalizeHead(t, finalize, ReasonExpired)
		} else if dt == 0 {
			// Neither finished nor expired and no time passed: the window
			// is exhausted exactly at t == to.
			break
		}
	}
	c.now = to
}

func (c *Core) finalizeHead(at float64, finalize FinalizeFunc, r Reason) {
	head := c.entries[0]
	// Pop by copying down: re-slicing from the front would strand capacity
	// and force the next SetPlan to reallocate.
	copy(c.entries, c.entries[1:])
	c.entries = c.entries[:len(c.entries)-1]
	head.Job.State = job.StateFinalized
	head.Job.Finish = at
	if r == ReasonCompleted {
		c.done++
	} else {
		c.expired++
	}
	if finalize != nil {
		finalize(head.Job, r)
	}
}

// ProjectedIdle returns the time at which the core's current plan drains,
// assuming no further scheduling events: each entry runs at its speed until
// target or deadline. Returns `now` for an empty plan.
func (c *Core) ProjectedIdle(now float64) float64 {
	t := now
	for _, e := range c.entries {
		if e.Job.Done() {
			continue
		}
		if e.Job.Deadline <= t {
			continue // will be dropped instantly
		}
		if e.Speed <= 0 {
			t = e.Job.Deadline // idles until the drop
			continue
		}
		finish := t + e.Job.Remaining()/power.Rate(e.Speed)
		if finish > e.Job.Deadline {
			finish = e.Job.Deadline
		}
		t = finish
	}
	return t
}

// CurrentSpeed returns the speed the core is executing at right now: the
// head entry's planned speed, or 0 when idle.
func (c *Core) CurrentSpeed() float64 {
	if len(c.entries) == 0 {
		return 0
	}
	return c.entries[0].Speed
}

// DropExpired finalizes every planned job whose deadline has passed at
// time now (not just the head). The scheduler calls this before replanning
// so stale jobs do not distort load and power-demand calculations.
func (c *Core) DropExpired(now float64, finalize FinalizeFunc) int {
	kept := c.entries[:0]
	dropped := 0
	for _, e := range c.entries {
		if e.Job.Expired(now) && !e.Job.Done() {
			e.Job.State = job.StateFinalized
			e.Job.Finish = e.Job.Deadline
			c.expired++
			dropped++
			if finalize != nil {
				finalize(e.Job, ReasonExpired)
			}
			continue
		}
		kept = append(kept, e)
	}
	c.entries = kept
	return dropped
}

// Server is the m-core machine. Cores may be heterogeneous: each has its
// own power model (big.LITTLE-style platforms, the paper's "different
// hardware platforms" future work). Model is the first core's model, kept
// for homogeneous callers.
type Server struct {
	Model  power.Model
	Models []power.Model // one per core
	Cores  []*Core
	now    float64

	// budget is the machine's current total power cap in watts. It is
	// mutable so facility-level power capping can shrink it mid-run; 0
	// means "not set" (callers fall back to their configured budget).
	budget float64
}

// NewServer builds a server with m identical cores under the given power
// model.
func NewServer(m int, model power.Model) (*Server, error) {
	if m <= 0 {
		return nil, fmt.Errorf("machine: need at least one core, got %d", m)
	}
	models := make([]power.Model, m)
	for i := range models {
		models[i] = model
	}
	return NewHeterogeneousServer(models)
}

// NewHeterogeneousServer builds a server with one core per model. The cores
// share one backing array: one allocation instead of one per core, and a
// machine's cores sit next to each other in memory.
func NewHeterogeneousServer(models []power.Model) (*Server, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("machine: need at least one core")
	}
	for i, m := range models {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("machine: core %d: %w", i, err)
		}
	}
	s := &Server{
		Model:  models[0],
		Models: append([]power.Model(nil), models...),
		Cores:  make([]*Core, len(models)),
	}
	cores := make([]Core, len(models))
	for i := range cores {
		cores[i].Index = i
		s.Cores[i] = &cores[i]
	}
	return s, nil
}

// SetObserver attaches an observability sink to every core (see
// Core.SetObserver). Pass nil to detach.
func (s *Server) SetObserver(o obs.Observer) {
	for _, c := range s.Cores {
		c.SetObserver(o)
	}
}

// Now returns the machine clock.
func (s *Server) Now() float64 { return s.now }

// Advance runs every core forward to time `to`. A backwards advance is a
// corrupted event stream; it is reported as an error so the run degrades
// into a diagnosable failure instead of crashing the process.
func (s *Server) Advance(to float64, finalize FinalizeFunc) error {
	if to < s.now {
		return fmt.Errorf("machine: advance backwards %v -> %v", s.now, to)
	}
	for i, c := range s.Cores {
		c.Advance(s.Models[i], to, finalize)
	}
	s.now = to
	return nil
}

// SetBudget sets the machine's current total power cap in watts.
func (s *Server) SetBudget(w float64) { s.budget = w }

// Budget returns the current total power cap (0 when never set).
func (s *Server) Budget() float64 { return s.budget }

// Healthy counts the cores currently in service.
func (s *Server) Healthy() int {
	n := 0
	for _, c := range s.Cores {
		if c.Healthy() {
			n++
		}
	}
	return n
}

// Capacity returns the machine's sustainable aggregate processing rate in
// units/second: every healthy core running at its equal share of the
// current budget. Water-filling can shift power between cores but not
// create more of it.
func (s *Server) Capacity() float64 {
	alive := s.Healthy()
	if alive == 0 || s.budget <= 0 {
		return 0
	}
	share := s.budget / float64(alive)
	sum := 0.0
	for i, c := range s.Cores {
		if c.Healthy() {
			sum += power.Rate(s.Models[i].Speed(share))
		}
	}
	return sum
}

// Failures sums the per-core failure counters.
func (s *Server) Failures() int64 {
	var n int64
	for _, c := range s.Cores {
		n += c.Failures()
	}
	return n
}

// SurvivingCapacity returns the time-weighted fraction of core-time that
// was healthy over [0, now]: exactly 1.0 on a fault-free run, (m−k)/m
// while k cores are down. It is derived from the cores' accumulated
// downtime, so fault-free runs carry no floating-point drift. Before any
// time has passed it reports 1.
func (s *Server) SurvivingCapacity() float64 {
	if s.now <= 0 || len(s.Cores) == 0 {
		return 1
	}
	down := 0.0
	for _, c := range s.Cores {
		down += c.DownTime(s.now)
	}
	return 1 - down/(s.now*float64(len(s.Cores)))
}

// Energy returns the total dynamic energy consumed by all cores (joules).
func (s *Server) Energy() float64 {
	sum := 0.0
	for _, c := range s.Cores {
		sum += c.Energy()
	}
	return sum
}

// AppendLoads appends each core's remaining work to dst and returns the
// extended slice — the allocation-free form of Loads.
func (s *Server) AppendLoads(dst []float64) []float64 {
	for _, c := range s.Cores {
		dst = append(dst, c.Load())
	}
	return dst
}

// TotalLoad sums the per-core remaining work.
func (s *Server) TotalLoad() float64 {
	sum := 0.0
	for _, c := range s.Cores {
		sum += c.Load()
	}
	return sum
}

// BusySpeedProfile merges the per-core busy-speed statistics.
func (s *Server) BusySpeedProfile() stats.TimeWeighted {
	var w stats.TimeWeighted
	for _, c := range s.Cores {
		w.Merge(c.BusyProfile())
	}
	return w
}

// Completed and Expired sum the per-core counters.
func (s *Server) Completed() int64 {
	var n int64
	for _, c := range s.Cores {
		n += c.Completed()
	}
	return n
}

// Expired sums the per-core expired counters.
func (s *Server) Expired() int64 {
	var n int64
	for _, c := range s.Cores {
		n += c.Expired()
	}
	return n
}
