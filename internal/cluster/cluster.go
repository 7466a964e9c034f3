// Package cluster scales the simulator from one multicore server to a fleet:
// N machines — each a full scheduler/machine/power stack — fronted by a
// global dispatcher that routes every arriving request to a machine.
//
// Failure handling is the point. Machines crash (all cores halt, in-flight
// progress is wiped, queued work is stranded), partition from the dispatcher
// (they keep serving what they hold but receive nothing new), and degrade to
// a fraction of their power budget; each fault kind has a paired recovery.
// The fleet re-dispatches lost and stranded jobs with retry accounting, and
// health-aware dispatch policies route around machines that are down or
// unreachable. A run is deterministic: the same seed and fault schedule
// yield byte-identical event streams and results — for any shard count.
//
// Execution is sharded (shard.go): machines are partitioned across K shards,
// each owning a private event heap that advances its machines independently
// between global barriers (quantum ticks, machine faults, run end). Only
// machines with due events are ever touched — a quiescent node costs zero —
// which replaces the old advance-everyone-on-every-event sync scan. Shard
// outputs are buffered per machine and merged in machine-index order at each
// barrier, so the observable streams do not depend on K.
package cluster

import (
	"fmt"
	"math"
	"runtime"

	"goodenough/internal/faults"
	"goodenough/internal/job"
	"goodenough/internal/obs"
	"goodenough/internal/quality"
	"goodenough/internal/sched"
	"goodenough/internal/sim"
	"goodenough/internal/stats"
	"goodenough/internal/workload"
)

// DefaultRedispatchLimit caps how many times one job is re-routed after
// machine faults before the fleet drops it (still finalized and accounted —
// never silently lost).
const DefaultRedispatchLimit = 3

// Config describes a fleet run.
type Config struct {
	// Machines is the fleet size N.
	Machines int
	// Node is the per-machine configuration (cores, budget, quality, QGE,
	// triggers). Every machine runs the same configuration; Node.Faults
	// must be nil — fleet fault injection is machine-scoped (Faults below).
	Node sched.Config
	// NewPolicy builds one scheduling policy instance per machine (policies
	// carry state, so they cannot be shared).
	NewPolicy func() sched.Policy
	// Dispatch is the global routing policy.
	Dispatch Dispatcher
	// Workload is the fleet-wide arrival stream, routed job by job.
	Workload workload.Spec
	// Faults, when non-nil, injects machine-scoped fault events (crash,
	// partition, degrade, and their recoveries).
	Faults *faults.ClusterSchedule
	// RedispatchLimit caps per-job re-dispatches (0 means
	// DefaultRedispatchLimit).
	RedispatchLimit int
	// Shards is the worker-shard count K. Machines are partitioned into K
	// contiguous shards, each advanced by its own goroutine between global
	// barriers. 0 resolves to min(GOMAXPROCS, Machines/8) with a floor of
	// one; 1 runs the identical barrier loop inline with no goroutines.
	// Event streams, decisions, and results are byte-identical for every K.
	Shards int
	// Observer, when non-nil, receives the structured event stream:
	// fleet-level events (dispatch, re-dispatch, machine health) carry the
	// machine index in Core; per-core events are remapped to globally
	// unique core IDs machine*cores+core.
	Observer obs.Observer
	// Decisions, when non-nil, receives one structured record per routing
	// and health choice (dispatch, re-dispatch, limit drop, degrade
	// replan, per-machine mode switch) with the machine index stamped in.
	Decisions obs.DecisionSink
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Machines <= 0 {
		return fmt.Errorf("cluster: machines must be positive, got %d", c.Machines)
	}
	if err := c.Node.Validate(); err != nil {
		return fmt.Errorf("cluster: node config: %w", err)
	}
	if c.Node.Faults != nil {
		return fmt.Errorf("cluster: node config carries a per-core fault schedule; fleet faults are machine-scoped (Config.Faults)")
	}
	if c.NewPolicy == nil {
		return fmt.Errorf("cluster: NewPolicy factory required")
	}
	if c.Dispatch == nil {
		return fmt.Errorf("cluster: dispatch policy required")
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(c.Machines); err != nil {
		return fmt.Errorf("cluster: fault schedule: %w", err)
	}
	if c.RedispatchLimit < 0 {
		return fmt.Errorf("cluster: redispatch limit must be non-negative, got %d", c.RedispatchLimit)
	}
	if c.Shards < 0 {
		return fmt.Errorf("cluster: shard count must be non-negative, got %d", c.Shards)
	}
	return nil
}

// resolveShards turns the configured shard count into the effective K.
func resolveShards(requested, machines int) int {
	k := requested
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
		if cap := machines / 8; k > cap {
			k = cap
		}
	}
	if k < 1 {
		k = 1
	}
	if k > machines {
		k = machines
	}
	return k
}

// MachineResult summarizes one machine's run.
type MachineResult struct {
	// Energy is the machine's dynamic energy in joules.
	Energy float64
	// Quality is the batch quality over jobs finalized on this machine.
	Quality float64
	// Completed and Expired count jobs finalized on this machine's cores.
	Completed int64
	Expired   int64
	// Crashes counts machine-level crash events.
	Crashes int64
	// DownTime is the total time the machine spent crashed.
	DownTime float64
	// AESFraction is the fraction of the machine's time in AES mode.
	AESFraction float64
	// Dispatches and Redispatches count jobs routed (and fault re-routed)
	// to this machine — the per-machine decision summary that explains how
	// a dispatch policy spread (or failed to spread) the load.
	Dispatches   int64
	Redispatches int64
}

// Result summarizes a fleet run.
type Result struct {
	// Dispatch and Scheduler name the routing and per-node policies.
	Dispatch  string
	Scheduler string
	// Machines is the fleet size.
	Machines int
	// Jobs is the number of requests generated; every one of them is
	// finalized exactly once (completed, expired, or dropped) — LostForever
	// is the count that escaped accounting and must be zero.
	Jobs        int
	Completed   int64
	Expired     int64
	Dropped     int64
	LostForever int
	// Quality is Σf(processed)/Σf(demand) over every generated job.
	Quality float64
	// Energy totals dynamic energy across the fleet; AESEnergy/BQEnergy
	// split it by the execution mode active while it was consumed.
	Energy    float64
	AESEnergy float64
	BQEnergy  float64
	// AESFraction is the machine-time-weighted AES fraction.
	AESFraction float64
	// MeanResponse, P95Response, P99Response summarize completed jobs'
	// response times in seconds.
	MeanResponse float64
	P95Response  float64
	P99Response  float64
	// Fault accounting. Crashes/Partitions/Degrades count onset events;
	// Redispatches counts re-routes of lost and stranded jobs; LostWork is
	// the in-flight processing (units) wiped by crashes; PendingExpired
	// counts jobs that died parked at the dispatcher with no machine
	// eligible.
	Crashes        int64
	Partitions     int64
	Degrades       int64
	Redispatches   int64
	LostWork       float64
	PendingExpired int64
	// Availability is the time-weighted fraction of machine-time up.
	Availability float64
	// SimTime is the span actually simulated.
	SimTime float64
	// Shards is the effective worker-shard count; ShardEvents and
	// ShardMachines report, per shard, how many events its private heap
	// delivered and how many machines it owned — the visibility knob for
	// uneven partitions. These describe the execution layout, not the
	// simulation: every other field is identical for every shard count.
	Shards        int
	ShardEvents   []int64
	ShardMachines []int
	// PerMachine holds one entry per machine.
	PerMachine []MachineResult
}

// node is one simulated machine inside the fleet: the per-machine driver on
// its shard's engine, plus the machine's health, its dispatch counters, and
// the epoch buffers its shard writes into.
type node struct {
	d     *sched.Driver
	idx   int
	base  int // global core-ID base: idx * cores
	shard *shard

	// Health. up==false means crashed; partitioned machines keep serving
	// but are unreachable from the dispatcher.
	up          bool
	partitioned bool
	downSince   float64
	downTime    float64
	crashes     int64

	dispatches   int64
	redispatches int64

	// In-flight dispatch adjustments: work routed to this machine whose
	// push event has not yet been delivered by its shard. The cached view
	// adds these on refresh so barrier-stale reads still see routed load.
	inflightQW   float64
	inflightJobs int

	// Epoch buffers, drained by Fleet.flush in machine-index order together
	// with the driver's finalization records.
	evbuf    []obs.Event
	decbuf   []obs.Decision
	idleNote bool
	dirty    bool
}

// catchUp settles a machine to the present before anything lands on it — a
// policy invocation, a pushed job, a fault transition — so no work ever
// executes against a stale clock. Per-machine touch times are non-decreasing
// (shard heaps deliver in time order, and barriers only move clocks
// forward), so a node already at the present was settled at this instant.
func (n *node) catchUp(now float64) error {
	moved, err := n.d.Settle(now)
	if moved {
		n.dirty = true
	}
	if err != nil {
		return fmt.Errorf("cluster: machine %d: %w", n.idx, err)
	}
	return nil
}

// invoke runs the machine's policy at now. Safe from a shard worker
// (everything it touches is node-local).
func (n *node) invoke(now float64, trig sched.Trigger) error {
	if err := n.catchUp(now); err != nil {
		return err
	}
	n.dirty = true
	return n.d.Invoke(now, trig)
}

// nodeObserver buffers one machine's event emissions into its epoch buffer,
// remapping per-core events onto globally unique core IDs (machine*cores +
// core) so fleet JSONL and Chrome exports keep machines apart without
// changing the obs.Event wire format. Buffers drain at barriers in
// machine-index order, making the merged stream independent of the shard
// layout.
type nodeObserver struct{ n *node }

// Observe implements obs.Observer.
func (o nodeObserver) Observe(e obs.Event) {
	if e.Core >= 0 {
		e.Core += o.n.base
	}
	o.n.evbuf = append(o.n.evbuf, e)
}

// nodeDecisions buffers one machine's decision records like nodeObserver
// buffers its events.
type nodeDecisions struct{ n *node }

// ObserveDecision implements obs.DecisionSink.
func (s nodeDecisions) ObserveDecision(d obs.Decision) { s.n.decbuf = append(s.n.decbuf, d) }

// jobRecycler is implemented by workload sources that can reinitialize a
// finalized job in place (workload.Generator.NextInto), keeping the
// steady-state arrival path allocation-free.
type jobRecycler interface {
	NextInto(*job.Job) *job.Job
}

// Fleet is a runnable fleet simulation. Build with New, execute with Run.
type Fleet struct {
	cfg       Config
	nodeCfg   sched.Config
	global    *sim.Engine // arrivals, quanta, machine faults, parked deadlines
	shards    []*shard
	nodes     []*node
	view      View
	gen       workload.Source
	recycler  jobRecycler
	jobPool   []*job.Job
	pending   job.FIFO // jobs parked at the dispatcher: no machine eligible
	acc       *quality.Accumulator
	obs       obs.Observer
	decisions obs.DecisionSink
	idleSink  idleNotifier

	faultEvents []faults.MachineEvent
	nextArrival *job.Job
	genDone     bool

	// Crash-path scratch, reused across faults.
	displaced []*job.Job
	drained   []*job.Job

	jobs           int
	finalized      int
	dropped        int64
	redispatches   int64
	lostWork       float64
	pendingExpired int64
	partitions     int64
	degrades       int64
	responses      []float64
	limit          int
}

// New builds a fleet from the configuration.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:       cfg,
		nodeCfg:   cfg.Node,
		view:      newView(cfg.Machines),
		gen:       workload.NewGenerator(cfg.Workload),
		acc:       quality.NewAccumulator(cfg.Node.Quality),
		obs:       cfg.Observer,
		decisions: cfg.Decisions,
		limit:     cfg.RedispatchLimit,
	}
	if r, ok := f.gen.(jobRecycler); ok {
		f.recycler = r
	}
	if f.limit == 0 {
		f.limit = DefaultRedispatchLimit
	}
	f.nodes = make([]*node, cfg.Machines)
	k := resolveShards(cfg.Shards, cfg.Machines)
	f.shards = make([]*shard, k)
	lo, size, rem := 0, cfg.Machines/k, cfg.Machines%k
	for i := range f.shards {
		hi := lo + size
		if i < rem {
			hi++
		}
		s := &shard{idx: i, fleet: f, nodes: f.nodes[lo:hi]}
		s.engine = sim.NewEngine(s.handle)
		f.shards[i] = s
		for m := lo; m < hi; m++ {
			policy := cfg.NewPolicy()
			if policy == nil {
				return nil, fmt.Errorf("cluster: NewPolicy returned nil for machine %d", m)
			}
			d, err := sched.NewDriver(&f.nodeCfg, policy, m, s.engine)
			if err != nil {
				return nil, err
			}
			n := &node{d: d, idx: m, base: m * cfg.Node.Cores, shard: s, up: true}
			if f.obs != nil {
				d.SetObserver(nodeObserver{n: n})
			}
			if f.decisions != nil {
				d.SetDecisionSink(nodeDecisions{n: n})
			}
			f.nodes[m] = n
		}
		lo = hi
	}
	f.global = sim.NewEngine(f.handle)
	return f, nil
}

// refreshView recomputes one machine's cached view slots from live state.
// Called at barrier flushes for touched machines and inline on fault
// recovery (so pending-queue drains route on fresh state).
func (f *Fleet) refreshView(n *node) {
	server := n.d.Server()
	sum := server.TotalLoad()
	for _, j := range n.d.Waiting().Peek() {
		sum += j.Remaining()
	}
	idle := n.d.IdleCores() - n.inflightJobs
	if idle < 0 {
		idle = 0
	}
	f.view.set(n.idx, sum+n.inflightQW, idle, server.Capacity())
}

// --- event loop (global phase; the shard phase lives in shard.go) ---

// Run executes the fleet simulation to completion.
func (f *Fleet) Run() (Result, error) {
	f.cfg.Dispatch.Reset()
	for _, n := range f.nodes {
		n.d.Policy().Reset()
	}
	if in, ok := f.cfg.Dispatch.(idleNotifier); ok {
		f.idleSink = in
		for m := range f.nodes {
			in.NoteIdle(m)
		}
	}
	for m, n := range f.nodes {
		f.refreshView(n)
		f.view.setEligible(m, true)
	}
	if err := f.scheduleNextArrival(); err != nil {
		return Result{}, err
	}
	if _, err := f.global.Schedule(f.nodeCfg.QuantumSec, sim.KindQuantum); err != nil {
		return Result{}, err
	}
	// Machine fault events get priority -1 so a crash at time t is observed
	// before any arrival or quantum tick at the same instant.
	f.faultEvents = f.cfg.Faults.Events()
	for i, fe := range f.faultEvents {
		if _, err := f.global.ScheduleWithPriority(fe.At, sim.KindMachineFault, i, -1); err != nil {
			return Result{}, err
		}
	}
	if err := f.global.Run(); err != nil {
		return Result{}, err
	}
	// Trailing shard events: deadlines past the last global event are
	// delivered so expiry accounting and the simulated span match the
	// shared-heap semantics exactly.
	if err := f.shardPhase(math.Inf(1)); err != nil {
		return Result{}, err
	}
	f.flush()
	return f.result(), nil
}

// handle is the global-phase event dispatcher: arrivals and parked-job
// deadlines route on the cached view; quantum ticks and machine faults are
// barriers that first drain every shard up to their instant.
func (f *Fleet) handle(e *sim.Event) error {
	now := e.Time
	switch e.Kind {
	case sim.KindArrival:
		j := f.nextArrival
		f.nextArrival = nil
		f.jobs++
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventJobArrive,
			Core: -1, Job: j.ID, Value: j.Demand, Aux: j.Deadline})
		if err := f.scheduleNextArrival(); err != nil {
			return err
		}
		return f.dispatch(j, now, false)

	case sim.KindDeadline:
		// Parked-job deadline watch; machine-held jobs expire on their
		// shard's deadline events.
		f.expirePending(now)

	case sim.KindQuantum:
		if err := f.barrier(now); err != nil {
			return err
		}
		if err := f.quantumFanout(now); err != nil {
			return err
		}
		f.flush()
		if !f.finished() {
			if _, err := f.global.Schedule(now+f.nodeCfg.QuantumSec, sim.KindQuantum); err != nil {
				return err
			}
		}

	case sim.KindMachineFault:
		if err := f.barrier(now); err != nil {
			return err
		}
		if err := f.applyMachineFault(now, f.faultEvents[e.Ref]); err != nil {
			return err
		}
		f.flush()
	}
	return nil
}

// expirePending finalizes jobs that died parked at the dispatcher — the
// whole fleet was unreachable for their entire remaining window. Runs in the
// global phase, so it settles accounting directly rather than buffering.
func (f *Fleet) expirePending(now float64) {
	for {
		j := f.pending.PopExpired(now)
		if j == nil {
			return
		}
		j.State = job.StateFinalized
		j.Finish = j.Deadline
		f.pendingExpired++
		f.acc.Add(j.Processed, j.Demand)
		f.finalized++
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventJobExpire,
			Core: -1, Job: j.ID, Value: j.Processed, Aux: j.Demand})
		f.recycle(j)
	}
}

// noteIdleNow tells heap-keeping dispatchers this machine has spare
// capacity, immediately. Global phase only (fault recovery); shard workers
// set node.idleNote instead, applied at the barrier flush.
func (f *Fleet) noteIdleNow(n *node) {
	if f.idleSink == nil || !n.up || n.partitioned || n.d.IdleCores() == 0 {
		return
	}
	f.idleSink.NoteIdle(n.idx)
}

// recycle returns a finalized job to the arrival pool when the workload
// source supports in-place reinitialization.
func (f *Fleet) recycle(j *job.Job) {
	if f.recycler != nil && !f.genDone {
		f.jobPool = append(f.jobPool, j)
	}
}

// dispatch routes one job on the cached view. With no eligible machine the
// job parks at the dispatcher — watched by a global deadline event — until a
// machine recovers or the deadline passes.
func (f *Fleet) dispatch(j *job.Job, now float64, redisp bool) error {
	m, score, ok := f.cfg.Dispatch.Pick(&f.view)
	if !ok {
		f.pending.Push(j)
		if _, err := f.global.Schedule(j.Deadline, sim.KindDeadline); err != nil {
			return err
		}
		if f.decisions != nil {
			// No eligible machine: the job parks at the dispatcher.
			f.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionDispatch,
				Machine: -1, Job: j.ID, Action: "park"})
		}
		return nil
	}
	n := f.nodes[m]
	if err := f.sendJob(n, j, now); err != nil {
		return err
	}
	budget := n.d.Server().Budget()
	if redisp {
		f.redispatches++
		n.redispatches++
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventRedispatch,
			Core: m, Job: j.ID, Value: float64(j.Requeues), Aux: j.Remaining()})
		if f.decisions != nil {
			f.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionRedispatch,
				Machine: m, Job: j.ID, Score: score, Alts: j.Requeues,
				Load: j.Remaining(), Budget: budget, Action: "redispatch"})
		}
	} else {
		n.dispatches++
		eligible := f.view.EligibleCount()
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventDispatch,
			Core: m, Job: j.ID, Value: score, Aux: float64(eligible)})
		if f.decisions != nil {
			f.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionDispatch,
				Machine: m, Job: j.ID, Score: score, Alts: eligible,
				Load: f.view.QueuedWork(m), Budget: budget, Action: "dispatch"})
		}
	}
	return nil
}

// sendJob hands a routed job to the target machine's shard (push event at
// now, deadline watch at the job's deadline) and adjusts the cached view so
// subsequent picks this epoch see the routed load.
func (f *Fleet) sendJob(n *node, j *job.Job, now float64) error {
	if err := n.shard.push(now, n, j); err != nil {
		return err
	}
	n.inflightQW += j.Remaining()
	n.inflightJobs++
	f.view.route(n.idx, j.Remaining())
	return nil
}

// redispatch re-routes a job displaced by a machine fault, enforcing the
// retry cap: beyond the limit the job is dropped — finalized with whatever
// it achieved (nothing, after a crash wipe) so it never escapes accounting.
func (f *Fleet) redispatch(j *job.Job, now float64) error {
	if j.Requeues > f.limit {
		j.State = job.StateFinalized
		j.Finish = now
		f.dropped++
		f.acc.Add(j.Processed, j.Demand)
		f.finalized++
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventJobDrop,
			Core: -1, Job: j.ID, Value: j.Processed, Aux: j.Demand})
		if f.decisions != nil {
			f.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionDrop,
				Machine: -1, Job: j.ID, Alts: j.Requeues, Load: j.Remaining(),
				Action: "limit"})
		}
		f.recycle(j)
		return nil
	}
	return f.dispatch(j, now, true)
}

// applyMachineFault transitions one machine's health state. Runs at a
// barrier: every shard has drained to now, so the machine's live state is
// exact.
func (f *Fleet) applyMachineFault(now float64, fe faults.MachineEvent) error {
	n := f.nodes[fe.Machine]
	if err := n.catchUp(now); err != nil {
		return err
	}
	server := n.d.Server()
	switch fe.Kind {
	case faults.MachineCrash:
		if !n.up {
			return nil
		}
		n.up = false
		n.downSince = now
		n.crashes++
		f.view.setEligible(n.idx, false)
		// Halt every core; in-flight progress is wiped — this is the
		// difference from a core failure, where partial work survives on
		// the job. The wiped units are the crash's lost work.
		f.displaced = f.displaced[:0]
		orphans := 0
		wiped := 0.0
		for i := range server.Cores {
			for _, entry := range n.d.FailCore(now, i) {
				j := entry.Job
				if j.Done() || j.Expired(now) {
					// Nothing worth re-running elsewhere; finalize in place.
					n.d.Expire(j, now, now, i)
					continue
				}
				orphans++
				wiped += j.Processed
				j.Processed = 0
				j.Core = -1
				j.State = job.StateWaiting
				j.Requeues++
				f.displaced = append(f.displaced, j)
			}
		}
		// Stranded waiting jobs: never started, but the machine holding
		// them is gone; they re-route with the same retry accounting.
		f.drained = n.d.Waiting().AppendDrain(f.drained[:0])
		for _, j := range f.drained {
			if j.Expired(now) {
				n.d.Expire(j, j.Deadline, now, -1)
				continue
			}
			j.Requeues++
			f.displaced = append(f.displaced, j)
		}
		f.lostWork += wiped
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventMachineDown,
			Core: n.idx, Job: -1, Value: float64(orphans), Aux: wiped})
		for _, j := range f.displaced {
			if err := f.redispatch(j, now); err != nil {
				return err
			}
		}

	case faults.MachineRecover:
		if n.up {
			return nil
		}
		n.up = true
		n.downTime += now - n.downSince
		for _, c := range server.Cores {
			c.Recover(now)
		}
		f.view.setEligible(n.idx, !n.partitioned)
		f.refreshView(n)
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventMachineUp,
			Core: n.idx, Job: -1})
		f.noteIdleNow(n)
		return f.drainPending(now)

	case faults.MachinePartition:
		if n.partitioned {
			return nil
		}
		n.partitioned = true
		f.partitions++
		f.view.setEligible(n.idx, false)
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventMachinePartition,
			Core: n.idx, Job: -1, Flag: true})

	case faults.MachineHeal:
		if !n.partitioned {
			return nil
		}
		n.partitioned = false
		f.view.setEligible(n.idx, n.up)
		f.refreshView(n)
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventMachinePartition,
			Core: n.idx, Job: -1, Flag: false})
		f.noteIdleNow(n)
		return f.drainPending(now)

	case faults.MachineSlow, faults.MachineRestore:
		factor, action := fe.Factor, "slow"
		if fe.Kind == faults.MachineRestore {
			factor, action = 1, "restore"
		} else {
			f.degrades++
		}
		server.SetBudget(f.nodeCfg.PowerBudget * factor)
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventMachineDegrade,
			Core: n.idx, Job: -1, Flag: fe.Kind == faults.MachineSlow, Value: factor})
		if f.decisions != nil {
			f.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionReplan,
				Machine: n.idx, Job: -1, Budget: server.Budget(),
				Score: factor, Action: action})
		}
		if n.up {
			return n.invoke(now, sched.TriggerFault)
		}
	}
	return nil
}

// drainPending re-routes jobs parked at the dispatcher once a machine is
// reachable again, oldest first.
func (f *Fleet) drainPending(now float64) error {
	for f.pending.Len() > 0 {
		j := f.pending.Peek()[0]
		m, score, ok := f.cfg.Dispatch.Pick(&f.view)
		if !ok {
			return nil
		}
		f.pending.PopJob(j)
		n := f.nodes[m]
		if err := f.sendJob(n, j, now); err != nil {
			return err
		}
		n.dispatches++
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventDispatch,
			Core: m, Job: j.ID, Value: score, Aux: 0})
		if f.decisions != nil {
			f.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionDispatch,
				Machine: m, Job: j.ID, Score: score,
				Budget: n.d.Server().Budget(), Action: "drain"})
		}
	}
	return nil
}

func (f *Fleet) scheduleNextArrival() error {
	if f.genDone {
		return nil
	}
	var j *job.Job
	if n := len(f.jobPool); f.recycler != nil && n > 0 {
		j = f.recycler.NextInto(f.jobPool[n-1])
		f.jobPool = f.jobPool[:n-1]
	} else {
		j = f.gen.Next()
	}
	if j == nil {
		f.genDone = true
		return nil
	}
	if _, err := f.global.Schedule(j.Release, sim.KindArrival); err != nil {
		return fmt.Errorf("cluster: job source emitted job %d out of order: %w", j.ID, err)
	}
	f.nextArrival = j
	return nil
}

// finished reports whether quantum ticks can stop: no future arrivals,
// nothing parked, every generated job finalized (a busy core or queued job
// implies an unfinalized one, so this subsumes an all-cores-idle scan).
// Exact at quantum barriers, where every finalization buffer has flushed.
func (f *Fleet) finished() bool {
	return f.genDone && f.pending.Len() == 0 && f.finalized == f.jobs
}

// result assembles the fleet summary after the event queues drain.
func (f *Fleet) result() Result {
	simTime := f.global.Now()
	for _, s := range f.shards {
		if t := s.engine.Now(); t > simTime {
			simTime = t
		}
	}
	res := Result{
		Dispatch:       f.cfg.Dispatch.Name(),
		Scheduler:      f.nodes[0].d.Policy().Name(),
		Machines:       len(f.nodes),
		Jobs:           f.jobs,
		Dropped:        f.dropped,
		LostForever:    f.jobs - f.finalized,
		Quality:        f.acc.Quality(),
		Redispatches:   f.redispatches,
		LostWork:       f.lostWork,
		PendingExpired: f.pendingExpired,
		Partitions:     f.partitions,
		Degrades:       f.degrades,
		SimTime:        simTime,
		Shards:         len(f.shards),
		ShardEvents:    make([]int64, len(f.shards)),
		ShardMachines:  make([]int, len(f.shards)),
		PerMachine:     make([]MachineResult, len(f.nodes)),
	}
	for i, s := range f.shards {
		res.ShardEvents[i] = s.engine.Processed
		res.ShardMachines[i] = len(s.nodes)
	}
	res.MeanResponse = stats.Mean(f.responses)
	res.P95Response = stats.Quantile(f.responses, 0.95)
	res.P99Response = stats.Quantile(f.responses, 0.99)
	downTotal := 0.0
	aesTotal := 0.0
	anyMode := false
	for i, n := range f.nodes {
		// Close the open mode interval and the machine's down interval.
		modes := n.d.Modes()
		if modes.Reported {
			n.d.CloseMode(simTime)
			modes = n.d.Modes()
			anyMode = true
		}
		down := n.downTime
		if !n.up {
			down += simTime - n.downSince
		}
		downTotal += down
		aesTotal += modes.AESTime
		server := n.d.Server()
		mr := MachineResult{
			Energy:       server.Energy(),
			Quality:      n.d.Monitor().Quality(),
			Completed:    server.Completed(),
			Expired:      server.Expired() + n.d.QueueExpired(),
			Crashes:      n.crashes,
			DownTime:     down,
			Dispatches:   n.dispatches,
			Redispatches: n.redispatches,
		}
		if simTime > 0 && modes.Reported {
			mr.AESFraction = modes.AESTime / simTime
		}
		res.PerMachine[i] = mr
		res.Energy += mr.Energy
		res.AESEnergy += modes.AESEnergy
		res.BQEnergy += modes.BQEnergy
		res.Completed += mr.Completed
		res.Expired += mr.Expired
		res.Crashes += n.crashes
	}
	res.Expired += f.pendingExpired
	if simTime > 0 {
		machineTime := simTime * float64(len(f.nodes))
		res.Availability = 1 - downTotal/machineTime
		if anyMode {
			res.AESFraction = aesTotal / machineTime
		}
	} else {
		res.Availability = 1
	}
	obs.Emit(f.obs, obs.Event{Time: simTime, Type: obs.EventRunEnd,
		Core: -1, Job: -1, Value: simTime})
	return res
}

// EventsProcessed reports how many kernel events the run delivered, summed
// over the global heap and every shard heap.
func (f *Fleet) EventsProcessed() int64 {
	total := f.global.Processed
	for _, s := range f.shards {
		total += s.engine.Processed
	}
	return total
}
