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
// each owning a private event engine that advances its machines independently
// between global barriers (quantum ticks, machine faults, run end). Between
// barriers only machines with due events are touched, and a machine's cores
// advance only where a decision reads them; at each barrier every machine is
// settled to the barrier instant, so the dispatcher's view reads the whole
// fleet as of that instant. Shard outputs are buffered per machine and
// merged in machine-index order at each barrier, so the observable streams
// do not depend on K. The serial global phase between shard phases is
// routing only: a producer goroutine draws the arrival stream ahead of it
// (workload.Producer), and each shard posts the jobs routed to it when its
// next phase starts.
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
	// Faults, when non-nil, injects a machine-scope schedule's fault
	// events (crash, partition, degrade, and their recoveries).
	Faults *faults.Schedule
	// RedispatchLimit caps per-job re-dispatches (0 means
	// DefaultRedispatchLimit).
	RedispatchLimit int
	// Shards is the worker-shard count K. Machines are partitioned into K
	// contiguous shards, each advanced by its own goroutine between global
	// barriers. 0 resolves to min(GOMAXPROCS, Machines/8), raised to
	// ⌈Machines/128⌉ so no shard holds more than 128 machines, with a
	// floor of one; 1 runs the identical barrier loop inline with no shard
	// goroutines. For every K, one producer goroutine draws the arrival
	// stream while Run runs. Event streams, decisions, and results are
	// byte-identical for every K.
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
	if err := c.Faults.Validate(faults.Machines, c.Machines); err != nil {
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

// shardMachines is the most machines an auto-sized shard holds. A shard
// worker walks its machines at every barrier and quantum, and a smaller
// shard keeps that walk in cache: on a 1000-machine fleet, 8 shards of 125
// ran faster than 2 of 500 on one CPU as well as on two (DESIGN §16).
const shardMachines = 128

// resolveShards turns the configured shard count into the effective K on a
// host with procs CPUs: an explicit count as given, and 0 as min(procs,
// machines/8) raised to ⌈machines/shardMachines⌉. Either is floored at one
// and capped at the machine count.
func resolveShards(requested, machines, procs int) int {
	k := requested
	if k <= 0 {
		k = min(procs, machines/8)
		k = max(k, (machines+shardMachines-1)/shardMachines)
	}
	return min(max(k, 1), machines)
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
	// Crashes counts machine-level crashes.
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

// Result summarizes a fleet run. The goodenough facade returns it as
// goodenough.FleetResult, and testdata/golden_fleet.txt pins its JSON.
type Result struct {
	// Dispatch and Scheduler name the routing and per-machine policies.
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
	// Fault accounting. Crashes/Partitions/Degrades count fault onsets
	// that took effect; Redispatches counts re-routes of lost and stranded
	// jobs; LostWork is the in-flight processing (units) wiped by crashes;
	// PendingExpired counts jobs that died parked at the dispatcher with no
	// machine eligible.
	Crashes        int64
	Partitions     int64
	Degrades       int64
	Redispatches   int64
	LostWork       float64
	PendingExpired int64
	// Availability is the time-weighted fraction of machine-time up.
	Availability float64
	// SimTime is the span actually simulated, in seconds.
	SimTime float64
	// Shards is the effective worker-shard count; ShardEvents and
	// ShardMachines report, per shard, how many events its private engine
	// delivered and how many machines it owned — the visibility knob for
	// uneven partitions. These describe the execution layout, not the
	// simulation: every other field is identical for every shard count.
	Shards        int
	ShardEvents   []int64
	ShardMachines []int
	// PerMachine holds one entry per machine, in index order.
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

	// The view signals of the machine's live state — queued work (planned
	// plus waiting), idle healthy cores and capacity — sampled where the
	// machine last changed: by its shard at the end of a barrier's settle
	// or of a quantum fan-out, or inline by the global phase. The flush
	// applies them with the in-flight adjustments.
	queued    float64
	idleCores int
	capacity  float64

	// Epoch buffers, drained by Fleet.flush in machine-index order together
	// with the driver's finalization records.
	evbuf    []obs.Event
	decbuf   []obs.Decision
	idleNote bool
	dirty    bool
}

// settle brings a machine to now at a barrier, so the dispatcher's view,
// the barrier's caller and the flush read it as of the barrier instant.
// Settling is idempotent at an instant: a machine already at now is left
// alone.
func (n *node) settle(now float64) error {
	moved, err := n.d.Settle(now)
	if moved {
		n.dirty = true
	}
	return n.fail(err)
}

// sample reads the machine's view signals from its live state. Safe from a
// shard worker (everything it touches is node-local).
func (n *node) sample() {
	server := n.d.Server()
	sum := server.TotalLoad()
	for _, j := range n.d.Waiting().Peek() {
		sum += j.Remaining()
	}
	n.queued, n.idleCores, n.capacity = sum, n.d.IdleCores(), server.Capacity()
}

// invoke runs the machine's policy at now. Safe from a shard worker
// (everything it touches is node-local).
func (n *node) invoke(now float64, trig sched.Trigger) error {
	n.dirty = true
	return n.fail(n.d.Invoke(now, trig))
}

// fail tags a driver error with the machine it came from.
func (n *node) fail(err error) error {
	if err != nil {
		return fmt.Errorf("cluster: machine %d: %w", n.idx, err)
	}
	return nil
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

// Fleet is a runnable fleet simulation. Build with New, execute with Run.
type Fleet struct {
	cfg       Config
	nodeCfg   sched.Config
	global    *sim.Engine // arrivals, quanta, machine faults, parked deadlines
	shards    []*shard
	nodes     []*node
	view      View
	gen       *workload.Generator // drawn only by the producer during Run
	pending   job.FIFO            // jobs parked at the dispatcher: no machine eligible
	acc       *quality.Accumulator
	obs       obs.Observer
	decisions obs.DecisionSink
	idleSink  idleNotifier

	faultEvents []faults.Event
	genDone     bool

	// Arrival production: the producer drawing gen while Run runs, and the
	// arrival whose event is outstanding on the global lane.
	prod     *workload.Producer
	arriving workload.Arrival

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
	if f.limit == 0 {
		f.limit = DefaultRedispatchLimit
	}
	f.nodes = make([]*node, cfg.Machines)
	k := resolveShards(cfg.Shards, cfg.Machines, runtime.GOMAXPROCS(0))
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
// Called at the start of a run and inline on fault recovery (so
// pending-queue drains route on fresh state); barrier flushes apply the
// signals the shards sampled instead.
func (f *Fleet) refreshView(n *node) {
	n.sample()
	f.applyView(n)
}

// applyView sets one machine's cached view slots from its sampled signals
// and its in-flight adjustments.
func (f *Fleet) applyView(n *node) {
	idle := n.idleCores - n.inflightJobs
	if idle < 0 {
		idle = 0
	}
	f.view.set(n.idx, n.queued+n.inflightQW, idle, n.capacity)
}

// --- event loop (global phase; the shard phase lives in shard.go) ---

// Run executes the fleet simulation to completion. It draws the workload
// stream on a producer goroutine that it stops and waits for before
// returning.
func (f *Fleet) Run() (Result, error) {
	f.prod = workload.StartProducer(f.gen)
	defer f.prod.Close()
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
	if err := f.postNextArrival(); err != nil {
		return Result{}, err
	}
	if _, err := f.global.Schedule(f.nodeCfg.QuantumSec, sim.KindQuantum); err != nil {
		return Result{}, err
	}
	// Machine fault events get priority -1 so a crash at time t is observed
	// before any arrival or quantum tick at the same instant.
	f.faultEvents = f.cfg.Faults.Events()
	for i, fe := range f.faultEvents {
		if _, err := f.global.ScheduleWithPriority(fe.At, sim.KindFault, i, -1); err != nil {
			return Result{}, err
		}
	}
	if err := f.global.Run(); err != nil {
		return Result{}, err
	}
	// Trailing shard events: wakeups past the last global event are
	// delivered so expiry accounting and the simulated span match the
	// shared-heap semantics exactly. The end of the run is then a last
	// barrier that settles every machine to the simulated span.
	if err := f.shardPhase(math.Inf(1)); err != nil {
		return Result{}, err
	}
	if err := f.barrier(f.simTime()); err != nil {
		return Result{}, err
	}
	return f.result(), nil
}

// handle is the global-phase event dispatcher: arrivals and parked-job
// deadlines route on the cached view; quantum ticks and machine faults are
// barriers that first drain every shard up to their instant.
func (f *Fleet) handle(e *sim.Event) error {
	now := e.Time
	switch e.Kind {
	case sim.KindArrival:
		a := f.arriving
		f.jobs++
		if f.obs != nil { // built only when observed: routing never loads the job
			f.obs.Observe(obs.Event{Time: now, Type: obs.EventJobArrive,
				Core: -1, Job: a.Job.ID, Value: a.Job.Demand, Aux: a.Job.Deadline})
		}
		if err := f.postNextArrival(); err != nil {
			return err
		}
		return f.dispatch(a.Job, a.Remaining, now, false)

	case sim.KindDeadline:
		// Parked-job deadline watch; machine-held jobs expire on their
		// machine's expiry wakeup.
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

	case sim.KindFault:
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
		f.prod.Recycle(j)
	}
}

// noteIdleNow tells heap-keeping dispatchers this machine has spare
// capacity, by its sampled idle-core count. Global phase only: the flush
// calls it for the idle notes shard workers set, and fault recovery after
// refreshing the machine's view.
func (f *Fleet) noteIdleNow(n *node) {
	if f.idleSink == nil || !n.up || n.partitioned || n.idleCores == 0 {
		return
	}
	f.idleSink.NoteIdle(n.idx)
}

// dispatch routes one job, with rem units of work remaining, on the cached
// view. With no eligible machine the job parks at the dispatcher — watched
// by a global deadline event — until a machine recovers or the deadline
// passes.
func (f *Fleet) dispatch(j *job.Job, rem, now float64, redisp bool) error {
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
	f.sendJob(n, j, rem, now)
	if redisp {
		f.redispatches++
		n.redispatches++
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventRedispatch,
			Core: m, Job: j.ID, Value: float64(j.Requeues), Aux: j.Remaining()})
		if f.decisions != nil {
			f.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionRedispatch,
				Machine: m, Job: j.ID, Score: score, Alts: j.Requeues,
				Load: j.Remaining(), Budget: n.d.Server().Budget(), Action: "redispatch"})
		}
	} else {
		n.dispatches++
		eligible := f.view.EligibleCount()
		if f.obs != nil {
			f.obs.Observe(obs.Event{Time: now, Type: obs.EventDispatch,
				Core: m, Job: j.ID, Value: score, Aux: float64(eligible)})
		}
		if f.decisions != nil {
			f.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionDispatch,
				Machine: m, Job: j.ID, Score: score, Alts: eligible,
				Load: f.view.QueuedWork(m), Budget: n.d.Server().Budget(), Action: "dispatch"})
		}
	}
	return nil
}

// sendJob stages a routed job, with rem units of work remaining, for the
// target machine's shard, which posts it at the start of its next phase, and
// adjusts the cached view so subsequent picks this epoch see the routed
// load.
func (f *Fleet) sendJob(n *node, j *job.Job, rem, now float64) {
	n.shard.routes = append(n.shard.routes, route{at: now, machine: n.idx, job: j, remaining: rem})
	n.inflightQW += rem
	n.inflightJobs++
	f.view.route(n.idx, rem)
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
		f.prod.Recycle(j)
		return nil
	}
	return f.dispatch(j, j.Remaining(), now, true)
}

// applyMachineFault transitions one machine's health state. Runs at a
// barrier: every machine is settled to now, so its live state is exact.
func (f *Fleet) applyMachineFault(now float64, fe faults.Event) error {
	n := f.nodes[fe.Target]
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
		f.drained = n.d.DrainWaiting(f.drained[:0])
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
		f.drainPending(now)

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
		f.drainPending(now)

	case faults.MachineSlow, faults.MachineRestore:
		factor, action := fe.Value, "slow"
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
			// The replan changed the machine in the global phase, so its
			// signals are sampled here for the flush to apply.
			if err := n.invoke(now, sched.TriggerFault); err != nil {
				return err
			}
			n.sample()
		}
	}
	return nil
}

// drainPending re-routes jobs parked at the dispatcher once a machine is
// reachable again, oldest first.
func (f *Fleet) drainPending(now float64) {
	for f.pending.Len() > 0 {
		j := f.pending.Peek()[0]
		m, score, ok := f.cfg.Dispatch.Pick(&f.view)
		if !ok {
			return
		}
		f.pending.PopJob(j)
		n := f.nodes[m]
		f.sendJob(n, j, j.Remaining(), now)
		n.dispatches++
		obs.Emit(f.obs, obs.Event{Time: now, Type: obs.EventDispatch,
			Core: m, Job: j.ID, Value: score, Aux: 0})
		if f.decisions != nil {
			f.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionDispatch,
				Machine: m, Job: j.ID, Score: score,
				Budget: n.d.Server().Budget(), Action: "drain"})
		}
	}
}

// postNextArrival takes the next arrival of the stream and posts it on the
// global engine's ordered lane: arrivals come in release order, the lane's
// contract, so they are delivered exactly where scheduled ones would be.
func (f *Fleet) postNextArrival() error {
	if f.genDone {
		return nil
	}
	a, ok := f.prod.Next()
	if !ok {
		f.genDone = true
		return nil
	}
	if err := f.global.Post(a.Release, sim.KindArrival, -1, -1); err != nil {
		return fmt.Errorf("cluster: job source emitted job %d out of order: %w", a.Job.ID, err)
	}
	f.arriving = a
	return nil
}

// finished reports whether quantum ticks can stop: no future arrivals,
// nothing parked, every generated job finalized (a busy core or queued job
// implies an unfinalized one, so this subsumes an all-cores-idle scan).
// Exact at quantum barriers, where every finalization buffer has flushed.
func (f *Fleet) finished() bool {
	return f.genDone && f.pending.Len() == 0 && f.finalized == f.jobs
}

// simTime is the simulated span: the last event delivered on any heap.
func (f *Fleet) simTime() float64 {
	t := f.global.Now()
	for _, s := range f.shards {
		t = max(t, s.engine.Now())
	}
	return t
}

// result assembles the fleet summary after the event queues drain.
func (f *Fleet) result() Result {
	simTime := f.simTime()
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
	// The samples are not read again, so the quantiles may reorder them
	// rather than copy 8 bytes per completed job.
	res.P95Response = stats.QuantileInPlace(f.responses, 0.95)
	res.P99Response = stats.QuantileInPlace(f.responses, 0.99)
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
// over the global engine and every shard engine.
func (f *Fleet) EventsProcessed() int64 {
	total := f.global.Processed
	for _, s := range f.shards {
		total += s.engine.Processed
	}
	return total
}
