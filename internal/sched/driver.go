package sched

import (
	"fmt"
	"math"
	"slices"

	"goodenough/internal/job"
	"goodenough/internal/machine"
	"goodenough/internal/obs"
	"goodenough/internal/quality"
	"goodenough/internal/sim"
)

// Driver runs the GE control loop (§III-E) for one machine on an event
// engine it shares with its owner. It holds everything a machine needs
// between triggers: the server, the waiting queue, the policy and its reused
// Context, the quality monitor, the arrival-rate window, one armed idle
// wakeup per core, one armed expiry wakeup for the waiting queue, AES/BQ
// mode and energy accounting, and the records of jobs that left the
// machine. The owner delivers the events — Runner on its own engine for a
// single-machine run, the fleet on a shard engine per machine — and drains
// the finalization records.
//
// The machine is settled (its cores advanced to the present) only where its
// state is read: a policy invocation, an idle wakeup, and whatever the owner
// settles for itself (a fault, a fleet barrier, the end of a run). An
// arrival that cannot fire a trigger, and an expiry wakeup, touch only the
// waiting queue.
type Driver struct {
	cfg    *Config
	index  int // stamped on decisions and idle events: -1 for a single machine
	engine *sim.Engine
	server *machine.Server
	policy Policy
	wait   job.FIFO
	acc    *quality.Accumulator

	// pctx is the Context handed to the policy, reused across triggers so
	// the per-quantum path allocates nothing; policies must not retain it
	// past Schedule. finalizeFn is the bound finalize method, captured once.
	pctx       Context
	finalizeFn machine.FinalizeFunc

	obs       obs.Observer
	decisions obs.DecisionSink

	// arrivals is a ring buffer of the arrival times inside the rate
	// window: arrivalLen of them, oldest at arrivalHead.
	arrivals    []float64
	arrivalHead int
	arrivalLen  int
	// idle holds one armed KindCoreIdle wakeup per core (id 0 = none).
	idle []wakeup
	// expiry is the one armed KindDeadline wakeup, at the earliest deadline
	// in the waiting queue; it is armed exactly when the queue is non-empty.
	expiry wakeup

	// fin buffers one record per job that left the machine, in
	// finalization order, until the owner drains it. finStore backs the
	// first eight, so an owner that drains after every event (Runner)
	// allocates nothing for them.
	fin      []Final
	finStore [8]Final

	queueExpired int64
	cutJobs      int64
	shed         int64
	shedCands    []shedCandidate

	// Mode accounting.
	modeAES      bool
	modeSet      bool
	modeSince    float64
	aesTime      float64
	modeSwitches int64
	lastEnergy   float64
	aesEnergy    float64
	bqEnergy     float64
}

// wakeup is one armed event and the time it is armed for (id 0 = none).
type wakeup struct {
	id sim.EventID
	at float64
}

// rearmEpsilon is how far past a core's projected drain its idle wakeup is
// armed, so the advance at the wakeup crosses the drain. An arrival within
// it of a wakeup may find the core already drained.
const rearmEpsilon = 1e-9

// Final records one job leaving the machine: completed, expired, or shed.
// Achieved and Possible are the terms f(processed) and f(demand) the
// driver's quality monitor added for the job, so an owner merging quality
// across machines adds the same terms without evaluating f again. Response
// is the response time of a completed job and -1 for any other. An owner
// buffers up to an epoch of records per machine, so the record stays small.
type Final struct {
	Job      *job.Job
	Achieved float64
	Possible float64
	Response float64
}

// Completed reports whether the job completed.
func (r Final) Completed() bool { return r.Response >= 0 }

// ModeStats is a driver's AES/BQ accounting.
type ModeStats struct {
	// Reported says the policy reported a mode at least once.
	Reported bool
	// AESTime is the time spent in AES mode up to the last report.
	AESTime float64
	// Switches counts AES↔BQ transitions.
	Switches int64
	// AESEnergy and BQEnergy split the energy consumed so far by the mode
	// active while it ran.
	AESEnergy float64
	BQEnergy  float64
}

// NewDriver builds the driver for machine index (-1 for a single machine)
// under cfg, scheduling its idle wakeups on engine. cfg must be valid and
// must outlive the driver.
func NewDriver(cfg *Config, policy Policy, index int, engine *sim.Engine) (*Driver, error) {
	d := &Driver{}
	if err := d.init(cfg, policy, index, engine); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Driver) init(cfg *Config, policy Policy, index int, engine *sim.Engine) error {
	if policy == nil {
		return fmt.Errorf("sched: policy required")
	}
	var server *machine.Server
	var err error
	if cfg.Heterogeneous() {
		server, err = machine.NewHeterogeneousServer(cfg.PerCoreModels)
	} else {
		server, err = machine.NewServer(cfg.Cores, cfg.Model)
	}
	if err != nil {
		return err
	}
	server.SetBudget(cfg.PowerBudget)
	d.cfg = cfg
	d.index = index
	d.engine = engine
	d.server = server
	d.policy = policy
	d.acc = quality.NewAccumulator(cfg.Quality)
	d.idle = make([]wakeup, cfg.Cores)
	d.fin = d.finStore[:0]
	d.finalizeFn = d.finalize
	return nil
}

// SetObserver attaches the event sink for the driver's and the machine's
// events. Pass nil to detach.
func (d *Driver) SetObserver(o obs.Observer) {
	d.obs = o
	d.server.SetObserver(o)
}

// SetDecisionSink attaches the sink for the driver's decision records
// (mode switches and degraded-mode sheds). Pass nil to detach.
func (d *Driver) SetDecisionSink(s obs.DecisionSink) { d.decisions = s }

// Server returns the machine.
func (d *Driver) Server() *machine.Server { return d.server }

// Waiting returns the queue of arrived, unassigned jobs, for reading. Jobs
// enter through Enqueue and leave in bulk through DrainWaiting, which keep
// the expiry wakeup armed at the earliest deadline.
func (d *Driver) Waiting() *job.FIFO { return &d.wait }

// Policy returns the scheduling policy.
func (d *Driver) Policy() Policy { return d.policy }

// Monitor returns the quality accumulator over jobs finalized here.
func (d *Driver) Monitor() *quality.Accumulator { return d.acc }

// QueueExpired counts jobs that died on this machine without reaching a
// core's plan: queue expiries and hopeless fault orphans.
func (d *Driver) QueueExpired() int64 { return d.queueExpired }

// Settle brings the machine to now: it advances the cores (finalizing what
// completes or expires), credits the consumed energy to the active mode,
// and expires waiting jobs whose deadlines passed. It reports whether the
// machine moved; a machine already at now was settled at this instant and
// is left alone.
func (d *Driver) Settle(now float64) (bool, error) {
	if d.server.Now() >= now {
		return false, nil
	}
	if err := d.server.Advance(now, d.finalizeFn); err != nil {
		return true, err
	}
	if delta := d.server.Energy() - d.lastEnergy; delta > 0 {
		if d.modeAES {
			d.aesEnergy += delta
		} else {
			d.bqEnergy += delta
		}
		d.lastEnergy = d.server.Energy()
	}
	return true, d.expireWaiting(now)
}

// Enqueue queues an arrived job, storing its f(p_j) for cutting and
// finalization, and counts it in the rate window. Waiting jobs due by now
// expire first; the cores are left alone.
func (d *Driver) Enqueue(now float64, j *job.Job) error {
	if err := d.expireWaiting(now); err != nil {
		return err
	}
	j.FDemand = d.cfg.Quality.Value(j.Demand)
	d.noteArrival(now)
	return d.push(j)
}

// OnArrival fires the trigger an arrival causes: counter when the waiting
// queue reached its threshold, else idle-core when a healthy core is idle
// (the core is idle when the job arrives). The machine is settled only when
// one of them may fire; otherwise the arrival leaves the cores where they
// were.
func (d *Driver) OnArrival(now float64) error {
	if !d.mayTrigger(now) {
		return nil
	}
	if _, err := d.Settle(now); err != nil {
		return err
	}
	if d.wait.Len() >= d.cfg.CounterTrigger {
		return d.Invoke(now, TriggerCounter)
	}
	if d.IdleCores() > 0 {
		return d.Invoke(now, TriggerIdleCore)
	}
	return nil
}

// mayTrigger reports whether an arrival at now may fire a trigger without
// advancing the cores: the counter threshold is reached, or some healthy
// core is idle, has no armed wakeup, or has its wakeup due within
// rearmEpsilon of now (it may have drained already). Any other healthy core
// is busy until its wakeup, which lies in the future.
func (d *Driver) mayTrigger(now float64) bool {
	if d.wait.Len() >= d.cfg.CounterTrigger {
		return true
	}
	for i, c := range d.server.Cores {
		if !c.Healthy() {
			continue
		}
		if w := d.idle[i]; c.Idle() || w.id == 0 || w.at <= now+rearmEpsilon {
			return true
		}
	}
	return false
}

// OnDeadline handles the driver's KindDeadline wakeup: the wakeup is spent,
// the waiting jobs due by now expire, and it re-arms at the next earliest
// deadline. The cores are left alone.
func (d *Driver) OnDeadline(now float64) error {
	d.popExpired(now)
	d.expiry.id = 0
	return d.armExpiry(d.earliestDeadline())
}

// Wake handles core's KindCoreIdle event: the wakeup is spent, and a core
// that has drained by now triggers the policy. It reports whether it did.
func (d *Driver) Wake(now float64, core int) (bool, error) {
	d.idle[core].id = 0
	if _, err := d.Settle(now); err != nil {
		return false, err
	}
	if c := d.server.Cores[core]; !c.Idle() || !c.Healthy() {
		return false, nil
	}
	return true, d.Invoke(now, TriggerIdleCore)
}

// Invoke settles the machine and runs the policy, then re-arms the idle and
// expiry wakeups. Under a core fault schedule, a degraded machine first
// sheds the waiting jobs its surviving capacity cannot carry, and a fault
// trigger is recorded as a replan decision.
func (d *Driver) Invoke(now float64, trig Trigger) error {
	if _, err := d.Settle(now); err != nil {
		return err
	}
	coreFaults := d.cfg.Faults != nil
	if coreFaults && d.degraded() {
		d.shedLoad(now)
	}
	obs.Emit(d.obs, obs.Event{Time: now, Type: obs.EventBatch, Core: -1, Job: -1,
		Value: float64(d.wait.Len()), Aux: float64(trig)})
	if coreFaults && trig == TriggerFault && d.decisions != nil {
		// Every fault-triggered invocation replans DVFS under the new
		// capacity (fewer cores, capped budget, or a stuck speed).
		d.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionReplan,
			Machine: d.index, Job: -1, Load: float64(d.wait.Len()),
			Budget: d.server.Budget(), Action: "fault"})
	}
	d.pctx = Context{
		Now:         now,
		Trigger:     trig,
		Cfg:         d.cfg,
		Budget:      d.server.Budget(),
		Server:      d.server,
		Waiting:     &d.wait,
		Monitor:     d.acc,
		ArrivalRate: d.arrivalRate(now),
		Finalize:    d.finalizeFn,
		Observer:    d.obs,
		driver:      d,
	}
	d.policy.Schedule(&d.pctx)
	d.rearmIdle(now)
	return d.armExpiry(d.earliestDeadline())
}

// IdleCores counts the healthy cores with nothing planned.
func (d *Driver) IdleCores() int {
	n := 0
	for _, c := range d.server.Cores {
		if c.Idle() && c.Healthy() {
			n++
		}
	}
	return n
}

// arrivalRate is the sliding-window estimate of the request rate (req/s)
// the hybrid power distribution keys on.
func (d *Driver) arrivalRate(now float64) float64 {
	d.trimWindow(now)
	window := math.Min(d.cfg.RateWindow, math.Max(now, 1e-3))
	return float64(d.arrivalLen) / window
}

// noteArrival records an arrival at now. The ring doubles only when the
// live window fills it, so an arrival costs O(1) amortized and the buffer
// never holds more than twice the largest window seen.
func (d *Driver) noteArrival(now float64) {
	d.trimWindow(now)
	if d.arrivalLen == len(d.arrivals) {
		grown := make([]float64, max(8, 2*len(d.arrivals)))
		n := copy(grown, d.arrivals[d.arrivalHead:])
		copy(grown[n:], d.arrivals[:d.arrivalHead])
		d.arrivals, d.arrivalHead = grown, 0
	}
	d.arrivals[(d.arrivalHead+d.arrivalLen)%len(d.arrivals)] = now
	d.arrivalLen++
}

// trimWindow drops the arrivals older than the window from the ring.
func (d *Driver) trimWindow(now float64) {
	cutoff := now - d.cfg.RateWindow
	for d.arrivalLen > 0 && d.arrivals[d.arrivalHead] < cutoff {
		d.arrivalHead = (d.arrivalHead + 1) % len(d.arrivals)
		d.arrivalLen--
	}
}

// rearmIdle arms one KindCoreIdle wakeup per busy healthy core, rearmEpsilon
// past its projected drain time. A wakeup whose projected time is unchanged
// stays armed, so replanning one core does not churn the others' events; a
// moved one is rescheduled in place, which delivers it exactly where a
// cancel and a fresh schedule would.
func (d *Driver) rearmIdle(now float64) {
	for i, c := range d.server.Cores {
		if c.Idle() || !c.Healthy() {
			d.disarm(i)
			continue
		}
		at := c.ProjectedIdle(now)
		if at < now {
			at = now
		}
		at += rearmEpsilon
		slot := &d.idle[i]
		if slot.id != 0 {
			if slot.at == at {
				continue
			}
			if ok, err := d.engine.Reschedule(slot.id, at); ok && err == nil {
				slot.at = at
				continue
			}
			d.disarm(i)
		}
		if id, err := d.engine.ScheduleCoreRef(at, sim.KindCoreIdle, i, d.index); err == nil {
			*slot = wakeup{id: id, at: at}
		}
	}
}

func (d *Driver) disarm(core int) {
	if id := d.idle[core].id; id != 0 {
		d.engine.Cancel(id)
		d.idle[core].id = 0
	}
}

// push queues j and arms the expiry wakeup at its deadline if that is now
// the earliest.
func (d *Driver) push(j *job.Job) error {
	d.wait.Push(j)
	if d.expiry.id != 0 && d.expiry.at <= j.Deadline {
		return nil
	}
	return d.armExpiry(j.Deadline)
}

// expireWaiting expires the waiting jobs due by now. The armed expiry
// wakeup says whether any is, so a queue with none due is not scanned.
func (d *Driver) expireWaiting(now float64) error {
	if d.expiry.id == 0 || d.expiry.at > now {
		return nil
	}
	d.popExpired(now)
	return d.armExpiry(d.earliestDeadline())
}

// popExpired finalizes every waiting job whose deadline has passed at now.
func (d *Driver) popExpired(now float64) {
	for {
		j := d.wait.PopExpired(now)
		if j == nil {
			return
		}
		d.Expire(j, j.Deadline, now, -1)
	}
}

// earliestDeadline returns the earliest deadline in the waiting queue, or
// +Inf when it is empty.
func (d *Driver) earliestDeadline() float64 {
	at := math.Inf(1)
	for _, j := range d.wait.Peek() {
		if j.Deadline < at {
			at = j.Deadline
		}
	}
	return at
}

// armExpiry arms the expiry wakeup at at, keeping an armed wakeup that is
// already there; +Inf disarms it.
func (d *Driver) armExpiry(at float64) error {
	w := &d.expiry
	if w.id != 0 {
		if w.at == at {
			return nil
		}
		d.engine.Cancel(w.id)
		w.id = 0
	}
	if math.IsInf(at, 1) {
		return nil
	}
	id, err := d.engine.ScheduleCoreRef(at, sim.KindDeadline, -1, d.index)
	if err != nil {
		return err
	}
	*w = wakeup{id: id, at: at}
	return nil
}

// DrainWaiting appends every waiting job to dst in arrival order, empties
// the queue and disarms the expiry wakeup.
func (d *Driver) DrainWaiting(dst []*job.Job) []*job.Job {
	d.engine.Cancel(d.expiry.id)
	d.expiry.id = 0
	return d.wait.AppendDrain(dst)
}

// FailCore halts one core at now and disarms its wakeup, returning the
// orphaned plan for the caller to requeue, re-route, or Expire.
func (d *Driver) FailCore(now float64, core int) []machine.Entry {
	d.disarm(core)
	return d.server.Cores[core].Fail(now)
}

// finalize records a job leaving a core into the quality monitor. CutJobs
// counts only deliberate cuts (target below demand, set by LF cutting or
// Quality-OPT), not deadline truncation.
func (d *Driver) finalize(j *job.Job, reason machine.Reason) {
	if j.Target < j.Demand-1e-9 {
		d.cutJobs++
	}
	completed := reason == machine.ReasonCompleted
	d.record(j, completed)
	if completed {
		obs.Emit(d.obs, obs.Event{Time: j.Finish, Type: obs.EventJobComplete,
			Core: j.Core, Job: j.ID, Value: j.Processed, Aux: j.Finish - j.Release})
	} else {
		obs.Emit(d.obs, obs.Event{Time: j.Finish, Type: obs.EventJobExpire,
			Core: j.Core, Job: j.ID, Value: j.Processed, Aux: j.Demand})
	}
}

// Expire finalizes a job that dies here without being served — a queue
// expiry, or a fault orphan with nothing left to run — finishing it at
// finish and reporting the expiry at time at on core (-1 for the queue).
func (d *Driver) Expire(j *job.Job, finish, at float64, core int) {
	j.State = job.StateFinalized
	j.Finish = finish
	d.queueExpired++
	d.record(j, false)
	obs.Emit(d.obs, obs.Event{Time: at, Type: obs.EventJobExpire,
		Core: core, Job: j.ID, Value: j.Processed, Aux: j.Demand})
}

// record adds a finalized job to the quality monitor and buffers its
// finalization record.
func (d *Driver) record(j *job.Job, completed bool) {
	fp := j.FDemand // stored by Enqueue
	if fp == 0 {
		fp = d.cfg.Quality.Value(j.Demand)
	}
	achieved, possible := d.acc.AddKnown(j.Processed, j.Demand, fp)
	r := Final{Job: j, Achieved: achieved, Possible: possible, Response: -1}
	if completed {
		r.Response = j.Finish - j.Release
	}
	d.fin = append(d.fin, r)
}

// Finals returns the finalization records buffered since the last
// ClearFinals, in finalization order.
func (d *Driver) Finals() []Final { return d.fin }

// ClearFinals empties the finalization buffer.
func (d *Driver) ClearFinals() {
	clear(d.fin)
	d.fin = d.fin[:0]
}

// degraded reports whether the machine is below its nominal capacity: any
// core down or the budget capped.
func (d *Driver) degraded() bool {
	return d.server.Budget() < d.cfg.PowerBudget || d.server.Healthy() < len(d.server.Cores)
}

// shedCandidate pairs a waiting job with its marginal quality for the
// shedLoad ordering.
type shedCandidate struct {
	j        *job.Job
	marginal float64
}

// shedLoad is the graceful-degradation admission control: when the
// surviving cores under the current budget cannot sustain the aggregate
// required processing rate, waiting jobs are dropped lowest marginal
// quality first (quality mass gained per unit of processing rate consumed)
// until the residual load fits. Only unassigned jobs are shed — work
// already planned on a core is never revoked, preserving no-migration.
func (d *Driver) shedLoad(now float64) {
	waiting := d.wait.Peek()
	if len(waiting) == 0 {
		return
	}
	// Capacity is the sustainable aggregate rate; WF can shift power
	// between cores but not create more of it.
	capacity := d.server.Capacity()
	// Demand: the required rate of everything planned plus everything
	// waiting, each job needing Remaining/Window units per second.
	need := 0.0
	rate := func(j *job.Job) float64 {
		return RequiredRate(j.Remaining(), j.Deadline-now)
	}
	for _, c := range d.server.Cores {
		for _, j := range c.Queue() {
			need += rate(j)
		}
	}
	for _, j := range waiting {
		need += rate(j)
	}
	if need <= capacity {
		return
	}
	// Shed lowest marginal quality first: the quality the job would add if
	// fully served, per unit of required rate. Ties break by ID so equal
	// runs shed identically. The candidate buffer is driver-owned scratch
	// so repeated degraded-mode triggers don't allocate.
	cands := d.shedCands[:0]
	for _, j := range waiting {
		m := MarginalPerRate(d.cfg.Quality, j.Target, j.Remaining(), j.Deadline-now)
		cands = append(cands, shedCandidate{j: j, marginal: m})
	}
	d.shedCands = cands
	slices.SortStableFunc(cands, func(a, b shedCandidate) int {
		return CompareShed(a.marginal, a.j.ID, b.marginal, b.j.ID)
	})
	for _, c := range cands {
		if need <= capacity {
			break
		}
		j := d.wait.PopJob(c.j)
		if j == nil {
			continue
		}
		if d.decisions != nil {
			// Record the inputs the shed was decided on: aggregate demand
			// vs. surviving capacity, this job's marginal quality, and how
			// many candidates were in the running.
			d.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionShed,
				Machine: d.index, Job: j.ID, Load: need, Capacity: capacity,
				Marginal: c.marginal, Budget: d.server.Budget(),
				Alts: len(cands), Action: "shed"})
		}
		need -= rate(j)
		j.State = job.StateFinalized
		j.Finish = now
		d.shed++
		d.record(j, false)
		obs.Emit(d.obs, obs.Event{Time: now, Type: obs.EventJobDrop,
			Core: -1, Job: j.ID, Value: j.Processed, Aux: j.Demand})
	}
}

// setMode accumulates AES time and counts switches.
func (d *Driver) setMode(now float64, aes bool) {
	if d.modeSet {
		if d.modeAES {
			d.aesTime += now - d.modeSince
		}
		if aes != d.modeAES {
			d.modeSwitches++
			obs.Emit(d.obs, obs.Event{Time: now, Type: obs.EventModeSwitch,
				Core: -1, Job: -1, Flag: aes})
			if d.decisions != nil {
				action := "bq"
				if aes {
					action = "aes"
				}
				d.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionModeSwitch,
					Machine: d.index, Job: -1, Score: d.acc.Quality(),
					Budget: d.server.Budget(), Action: action})
			}
		}
	} else {
		// Declare the initial mode so exporters can anchor their tracks.
		obs.Emit(d.obs, obs.Event{Time: now, Type: obs.EventModeSwitch,
			Core: -1, Job: -1, Flag: aes})
	}
	d.modeAES = aes
	d.modeSet = true
	d.modeSince = now
}

// CloseMode closes the open mode interval at now, declaring BQ if the
// policy never reported a mode.
func (d *Driver) CloseMode(now float64) { d.setMode(now, d.modeAES) }

// Modes returns the mode accounting up to the last report or CloseMode.
func (d *Driver) Modes() ModeStats {
	return ModeStats{Reported: d.modeSet, AESTime: d.aesTime, Switches: d.modeSwitches,
		AESEnergy: d.aesEnergy, BQEnergy: d.bqEnergy}
}
