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
// wakeup per core, AES/BQ mode and energy accounting, and the records of
// jobs that left the machine. The owner delivers the events — Runner on its
// own engine for a single-machine run, the fleet on a shard engine per
// machine — and drains the finalization records.
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

	// arrivals holds the arrival times inside the rate window, oldest first.
	arrivals []float64
	// idle holds one armed KindCoreIdle wakeup per core (id 0 = none).
	idle []idleSlot

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

// idleSlot is one core's armed idle wakeup and the time it is armed for.
type idleSlot struct {
	id sim.EventID
	at float64
}

// Final records one job leaving the machine: completed, expired, or shed.
type Final struct {
	Job       *job.Job
	Completed bool
}

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
	d.idle = make([]idleSlot, cfg.Cores)
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

// Waiting returns the queue of arrived, unassigned jobs.
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
	for {
		j := d.wait.PopExpired(now)
		if j == nil {
			return true, nil
		}
		d.Expire(j, j.Deadline, now, -1)
	}
}

// Enqueue queues an arrived job and counts it in the rate window.
func (d *Driver) Enqueue(now float64, j *job.Job) {
	d.wait.Push(j)
	d.noteArrival(now)
}

// OnArrival fires the trigger an arrival causes: counter when the waiting
// queue reached its threshold, else idle-core when a healthy core is idle
// (the core is idle when the job arrives).
func (d *Driver) OnArrival(now float64) error {
	if d.wait.Len() >= d.cfg.CounterTrigger {
		return d.Invoke(now, TriggerCounter)
	}
	if d.IdleCores() > 0 {
		return d.Invoke(now, TriggerIdleCore)
	}
	return nil
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

// Invoke settles the machine and runs the policy, then re-arms the idle
// wakeups. Under a core fault schedule, a degraded machine first sheds the
// waiting jobs its surviving capacity cannot carry, and a fault trigger is
// recorded as a replan decision.
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
	return nil
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
	return float64(len(d.arrivals)) / window
}

func (d *Driver) noteArrival(now float64) {
	d.arrivals = append(d.arrivals, now)
	d.trimWindow(now)
}

func (d *Driver) trimWindow(now float64) {
	cutoff := now - d.cfg.RateWindow
	i := 0
	for i < len(d.arrivals) && d.arrivals[i] < cutoff {
		i++
	}
	if i > 0 {
		d.arrivals = append(d.arrivals[:0], d.arrivals[i:]...)
	}
}

// rearmIdle arms one KindCoreIdle wakeup per busy healthy core at its
// projected drain time. A wakeup whose projected time is unchanged stays
// armed, so replanning one core does not churn the others' events.
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
		// The epsilon makes the advance at the wakeup cross the drain.
		at += 1e-9
		slot := &d.idle[i]
		if slot.id != 0 {
			if slot.at == at {
				continue
			}
			d.disarm(i)
		}
		if id, err := d.engine.ScheduleCoreRef(at, sim.KindCoreIdle, i, d.index); err == nil {
			*slot = idleSlot{id: id, at: at}
		}
	}
}

func (d *Driver) disarm(core int) {
	if id := d.idle[core].id; id != 0 {
		d.engine.Cancel(id)
		d.idle[core].id = 0
	}
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
	d.acc.Add(j.Processed, j.Demand)
	if j.Target < j.Demand-1e-9 {
		d.cutJobs++
	}
	completed := reason == machine.ReasonCompleted
	d.fin = append(d.fin, Final{Job: j, Completed: completed})
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
	d.acc.Add(j.Processed, j.Demand)
	d.fin = append(d.fin, Final{Job: j})
	obs.Emit(d.obs, obs.Event{Time: at, Type: obs.EventJobExpire,
		Core: core, Job: j.ID, Value: j.Processed, Aux: j.Demand})
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
		d.acc.Add(j.Processed, j.Demand)
		d.fin = append(d.fin, Final{Job: j})
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
