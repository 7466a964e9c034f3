// Package sched wires the simulation together: it owns the event loop, the
// waiting queue, the quality monitor, and the machine, and delegates every
// scheduling decision to a pluggable Policy. Driver runs the loop for one
// machine; Runner is a driver on its own event engine, and the fleet
// simulator (internal/cluster) runs one driver per machine.
//
// The paper's three triggering events (§III-E) drive the loop:
//
//   - quantum triggering: a periodic tick (default 500 ms);
//   - idle-core triggering: a core drains its plan (we also treat an
//     arrival into a machine with idle cores as an idle-core trigger, since
//     the core *is* idle when the job arrives — without this, a lightly
//     loaded system would sit on fresh jobs until the next quantum, long
//     past their 150 ms deadlines);
//   - counter triggering: the waiting queue reaches a threshold (default 8).
//
// The driver settles the machine — advances its cores to the current time,
// finalizing completed and expired jobs into the quality monitor — only
// where its state is read: a policy invocation, an idle-core wakeup, a
// fault, a fleet barrier, and the end of a run. An arrival that can fire no
// trigger only queues the job, and one expiry wakeup per machine, armed at
// the earliest deadline in the waiting queue, expires waiting jobs on time.
// On every trigger the driver invokes the policy.
package sched

import (
	"context"
	"errors"
	"fmt"

	"goodenough/internal/faults"
	"goodenough/internal/job"
	"goodenough/internal/machine"
	"goodenough/internal/metrics"
	"goodenough/internal/obs"
	"goodenough/internal/power"
	"goodenough/internal/quality"
	"goodenough/internal/sim"
	"goodenough/internal/stats"
	"goodenough/internal/workload"
)

// MaxCores is the most cores one machine may have. A machine allocates its
// cores, their plans and wakeups up front, so an unbounded count from a
// request body would exhaust memory before the run starts. The largest
// machine the experiments build has 256 cores.
const MaxCores = 1024

// Config carries every knob of a simulation run. Zero values are filled by
// Defaults.
type Config struct {
	// Cores is the number of DVFS cores (paper default 16).
	Cores int
	// PowerBudget is H, the total dynamic power budget in watts (320).
	PowerBudget float64
	// Model is the per-core power curve (P = 5·s²).
	Model power.Model
	// Quality is the concave quality function (Eq. 1, c = 0.003).
	Quality quality.Function
	// QGE is the user-specified good-enough quality (0.9).
	QGE float64
	// CriticalLoad is the arrival rate (req/s) separating light from heavy
	// load for the hybrid power distribution (paper: 154).
	CriticalLoad float64
	// QuantumSec is the quantum trigger period (0.5 s).
	QuantumSec float64
	// CounterTrigger is the waiting-queue length trigger (8).
	CounterTrigger int
	// RateWindow is the sliding window (seconds) for the online arrival-
	// rate estimate used by the hybrid policy (2 s).
	RateWindow float64
	// Ladder, when non-nil, enables discrete speed scaling.
	Ladder *power.Ladder
	// PerCoreModels, when non-empty, makes the machine heterogeneous: one
	// power model per core (big.LITTLE platforms). Length must equal
	// Cores; Model is then ignored except as a fallback. Discrete ladders
	// are not supported together with heterogeneity.
	PerCoreModels []power.Model
	// Faults, when non-nil, injects a core-scope schedule's timed fault
	// events (core failure/recovery, budget cap/restore, stuck DVFS) into
	// the run. The runner degrades gracefully: orphaned jobs are requeued
	// (the audited exception to the no-migration rule), the power
	// distribution recomputes over surviving cores, and admission control
	// sheds the lowest-marginal-quality waiting jobs when the surviving
	// capacity cannot carry the offered load.
	Faults *faults.Schedule
}

// ModelFor returns the power model governing core i.
func (c *Config) ModelFor(i int) power.Model {
	if len(c.PerCoreModels) == c.Cores && i >= 0 && i < len(c.PerCoreModels) {
		return c.PerCoreModels[i]
	}
	return c.Model
}

// Heterogeneous reports whether per-core models are in effect.
func (c *Config) Heterogeneous() bool { return len(c.PerCoreModels) == c.Cores && c.Cores > 0 }

// Defaults returns the paper's simulation setup (§IV-B).
func Defaults() Config {
	return Config{
		Cores:          16,
		PowerBudget:    320,
		Model:          power.Default(),
		Quality:        quality.NewExponential(0.003, 1000),
		QGE:            0.9,
		CriticalLoad:   154,
		QuantumSec:     0.5,
		CounterTrigger: 8,
		RateWindow:     2,
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sched: cores must be positive, got %d", c.Cores)
	}
	if c.Cores > MaxCores {
		return fmt.Errorf("sched: %d cores exceed the limit of %d", c.Cores, MaxCores)
	}
	if c.PowerBudget <= 0 {
		return fmt.Errorf("sched: power budget must be positive, got %v", c.PowerBudget)
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Quality == nil {
		return fmt.Errorf("sched: quality function required")
	}
	if c.QGE < 0 || c.QGE > 1 {
		return fmt.Errorf("sched: QGE must lie in [0,1], got %v", c.QGE)
	}
	if c.QuantumSec <= 0 {
		return fmt.Errorf("sched: quantum must be positive, got %v", c.QuantumSec)
	}
	if c.CounterTrigger <= 0 {
		return fmt.Errorf("sched: counter trigger must be positive, got %d", c.CounterTrigger)
	}
	if c.RateWindow <= 0 {
		return fmt.Errorf("sched: rate window must be positive, got %v", c.RateWindow)
	}
	if len(c.PerCoreModels) > 0 {
		if len(c.PerCoreModels) != c.Cores {
			return fmt.Errorf("sched: %d per-core models for %d cores",
				len(c.PerCoreModels), c.Cores)
		}
		for i, m := range c.PerCoreModels {
			if err := m.Validate(); err != nil {
				return fmt.Errorf("sched: core %d model: %w", i, err)
			}
		}
		if c.Ladder != nil {
			return fmt.Errorf("sched: discrete ladders are not supported with heterogeneous cores")
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(faults.Cores, c.Cores); err != nil {
			return fmt.Errorf("sched: fault schedule: %w", err)
		}
	}
	return nil
}

// Trigger tells the policy why it is being invoked.
type Trigger int

const (
	// TriggerQuantum is the periodic tick.
	TriggerQuantum Trigger = iota
	// TriggerIdleCore fires when a core drains (or a job arrives while a
	// core is idle).
	TriggerIdleCore
	// TriggerCounter fires when the waiting queue reaches the threshold.
	TriggerCounter
	// TriggerFault fires after a fault event (core failure/recovery,
	// budget change, stuck DVFS) so the policy can recompute the
	// distribution over the surviving machine immediately.
	TriggerFault
)

// Context is the view a policy gets at each trigger.
type Context struct {
	// Now is the simulation time in seconds.
	Now float64
	// Trigger says why the policy is running.
	Trigger Trigger
	// Cfg is the run configuration.
	Cfg *Config
	// Budget is the machine's *current* total power cap in watts. It
	// equals Cfg.PowerBudget on a fault-free run and drops below it while
	// a facility-level budget cap is active; policies must size their
	// distributions against this, not the nominal budget.
	Budget float64
	// Server is the machine; the policy replans core queues through it.
	Server *machine.Server
	// Waiting is the queue of arrived, unassigned jobs. The policy pops
	// the jobs it wants to place; whatever remains waits for the next
	// trigger (and is finalized with zero quality if it expires).
	Waiting *job.FIFO
	// Monitor is the cumulative achieved-quality accumulator over all
	// finalized jobs — the paper's online quality monitoring.
	Monitor *quality.Accumulator
	// ArrivalRate is the sliding-window estimate of the current request
	// rate in req/s, used by the hybrid power distribution.
	ArrivalRate float64
	// Finalize records a job the policy drops (e.g. sweeping expired jobs
	// out of core queues) into the quality monitor.
	Finalize machine.FinalizeFunc
	// Observer is the run's observability sink (nil when none attached).
	// Policies emit their decision events — job assignment, cutting,
	// distribution switches — through obs.Emit(ctx.Observer, ...).
	Observer obs.Observer

	// driver accounts the policy's mode reports; nil in a hand-built
	// Context, where SetMode is a no-op.
	driver *Driver
}

// SetMode lets mode-switching policies (GE) report whether they are in AES
// mode so the run can account the AES-time fraction (Fig. 1) and count
// mode switches.
func (c *Context) SetMode(aes bool) {
	if c.driver != nil {
		c.driver.setMode(c.Now, aes)
	}
}

// Policy makes all scheduling decisions.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Schedule reacts to a trigger: assign waiting jobs, set core plans.
	Schedule(ctx *Context)
	// Reset clears cross-run state (assignment cursors, mode latches).
	Reset()
}

// Result summarizes one simulation run. It is goodenough.Result, and its
// JSON is the /v1/run and /v1/sweep body, so its fields are a wire format.
type Result struct {
	// Scheduler is the name of the policy that ran.
	Scheduler string
	// Quality is Σf(processed)/Σf(demand) over every generated job: the
	// achieved batch quality.
	Quality float64
	// Energy is the total dynamic energy in joules.
	Energy float64
	// AESFraction is the fraction of simulated time spent in the
	// Aggressive Energy Saving mode (meaningful for GE-family policies; 0
	// for always-BQ policies).
	AESFraction float64
	// AvgSpeed and SpeedVariance are busy-time-weighted core-speed moments
	// (Fig. 6).
	AvgSpeed      float64
	SpeedVariance float64
	// Jobs is the number of requests generated; Completed reached their
	// targets, Expired were dropped at deadlines (on core or in queue).
	Jobs      int
	Completed int64
	Expired   int64
	// CutJobs counts jobs finalized with a target below their demand.
	CutJobs int64
	// ModeSwitches counts AES↔BQ transitions.
	ModeSwitches int64
	// SimTime is the span actually simulated, in seconds.
	SimTime float64
	// MeanResponse and P95Response summarize the response times (finish −
	// release, seconds) of completed jobs — an extension metric; the paper
	// fixes the window at 150 ms and reports only quality/energy.
	MeanResponse float64
	P95Response  float64
	// AESEnergy and BQEnergy split the total energy by the execution mode
	// active while it was consumed — the cost of the compensation policy
	// made visible. They sum to Energy; always-BQ policies put everything
	// in BQEnergy.
	AESEnergy float64
	BQEnergy  float64
	// Fault-injection outcomes (zero on fault-free runs). CoreFailures
	// counts injected core failures that took effect; RequeuedJobs counts
	// jobs orphaned by a failure and returned to the waiting queue (the
	// audited migration exception); DroppedJobs counts jobs shed by
	// admission control when the surviving capacity could not carry the
	// offered load.
	CoreFailures int64
	RequeuedJobs int64
	DroppedJobs  int64
	// SurvivingCapacity is the time-weighted fraction of core-time that
	// was healthy: 1.0 on a fault-free run, lower while cores are down.
	SurvivingCapacity float64
	// Cancelled reports that the run was interrupted by its context
	// (SetContext: goodenough's RunContext, RunTraceContext or
	// RunOptions.Context) before the event queue drained. Every other
	// field then describes the partial run up to the interruption point —
	// jobs still in flight are simply absent from the counts.
	Cancelled bool
	// CancelReason says why a cancelled run stopped: "context canceled"
	// for an explicit cancellation, "context deadline exceeded" for a
	// deadline. Empty when Cancelled is false.
	CancelReason string
}

// Runner executes one workload against one policy: a Driver on its own
// event engine, plus the arrival stream, the core fault schedule, and the
// optional timeline and spans.
type Runner struct {
	cfg    Config
	d      Driver
	policy Policy
	src    workload.Source
	engine *sim.Engine

	// prod draws src ahead of the loop while Run runs: Run starts it and
	// closes it on every return path, so a runner built and never run
	// starts no goroutine.
	prod      *workload.Producer
	genDone   bool
	jobs      int
	responses []float64 // completed jobs' response times

	// nextArrival is the one job whose KindArrival event is outstanding —
	// the kernel carries no payloads, so the runner holds the pointer.
	nextArrival *job.Job
	// faultEvents is the materialized fault schedule; KindFault events
	// carry an index (sim.Event.Ref) into this table.
	faultEvents []faults.Event
	requeued    int64

	timeline *metrics.Timeline

	// spans wraps the run and each policy invocation in wall-clock trace
	// spans; nil costs one branch. spanParent is the caller's span (e.g.
	// the serving tier's request span) so the scheduler's work attaches
	// to the request's trace tree.
	spans      *obs.SpanBus
	spanParent obs.SpanContext
	runSpanCtx obs.SpanContext
}

// SetObserver attaches a structured-event sink to every layer of the run:
// the sim kernel, the machine's cores, and the runner itself (which also
// hands it to the policy through Context.Observer). Call before Run; pass
// nil to detach. With no observer the emission paths cost one branch and
// zero allocations.
func (r *Runner) SetObserver(o obs.Observer) {
	r.engine.SetObserver(o)
	r.d.SetObserver(o)
}

// SetTimeline attaches a recorder that samples quality, power, load, and
// mode after every event that left the machine settled at its instant
// (thinned by the timeline's own interval). Call before Run.
func (r *Runner) SetTimeline(t *metrics.Timeline) { r.timeline = t }

// SetDecisionSink attaches a sink for structured decision records —
// admissions, sheds, mode switches, DVFS replans — emitted alongside
// (not instead of) the event stream. Call before Run; pass nil to
// detach. With no sink the decision paths cost one branch and zero
// allocations.
func (r *Runner) SetDecisionSink(s obs.DecisionSink) { r.d.SetDecisionSink(s) }

// SetSpans attaches a span bus so the run and every policy invocation
// are timed as wall-clock trace spans under parent (typically the
// serving tier's request span; pass the zero SpanContext to root a new
// trace). Call before Run; a nil bus costs nothing per invocation.
func (r *Runner) SetSpans(bus *obs.SpanBus, parent obs.SpanContext) {
	r.spans = bus
	r.spanParent = parent
	r.d.policy = r.policy
	if bus != nil {
		r.d.policy = spannedPolicy{Policy: r.policy, r: r}
	}
}

// spannedPolicy times every policy invocation as a sched.invoke span under
// the run span.
type spannedPolicy struct {
	Policy
	r *Runner
}

// Schedule implements Policy.
func (p spannedPolicy) Schedule(ctx *Context) {
	sp := p.r.spans.Start("sched.invoke", obs.SpanSched, p.r.runSpanCtx)
	sp.SetValue(float64(ctx.Waiting.Len()))
	p.Policy.Schedule(ctx)
	p.r.spans.Finish(sp)
}

// SetContext attaches a cancellation context to the run: when ctx is
// cancelled or its deadline passes, Run stops within a bounded number of
// events and returns a *partial* Result with Cancelled set — not an error —
// so callers always get the metrics accumulated up to the interruption.
// Call before Run; pass nil to detach.
func (r *Runner) SetContext(ctx context.Context) { r.engine.SetContext(ctx) }

// recordSample feeds the attached timeline, if any.
func (r *Runner) recordSample(now float64) {
	if r.timeline == nil {
		return
	}
	server := r.d.server
	power := 0.0
	speeds := make([]float64, len(server.Cores))
	for i, c := range server.Cores {
		speeds[i] = c.CurrentSpeed()
		power += r.cfg.ModelFor(c.Index).Power(speeds[i])
	}
	r.timeline.Record(metrics.Sample{
		Time:    now,
		Quality: r.d.acc.Quality(),
		Power:   power,
		Load:    server.TotalLoad(),
		Waiting: r.d.wait.Len(),
		AES:     r.d.modeAES,
		Speeds:  speeds,
		Energy:  server.Energy(),
	})
}

// NewRunner builds a runner; cfg and the policy are validated eagerly.
func NewRunner(cfg Config, policy Policy, spec workload.Spec) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newRunner(cfg, policy, workload.NewGenerator(spec))
}

// NewRunnerFromSource builds a runner over an arbitrary job source — e.g. a
// workload.Replayer over a recorded or imported trace.
func NewRunnerFromSource(cfg Config, policy Policy, src workload.Source) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("sched: job source required")
	}
	return newRunner(cfg, policy, src)
}

func newRunner(cfg Config, policy Policy, src workload.Source) (*Runner, error) {
	r := &Runner{cfg: cfg, policy: policy, src: src}
	r.engine = sim.NewEngine(r.handle)
	if err := r.d.init(&r.cfg, policy, -1, r.engine); err != nil {
		return nil, err
	}
	return r, nil
}

// Run executes the simulation to completion and returns the result. It
// draws the workload stream on a producer goroutine that it stops and waits
// for before returning.
func (r *Runner) Run() (Result, error) {
	r.prod = workload.StartProducer(r.src)
	defer r.prod.Close()
	r.policy.Reset()
	// Prime the pump: first arrival, first quantum tick, and the full
	// fault schedule. Fault events get priority -1 so a failure at time t
	// is observed before any arrival or quantum tick at the same instant.
	if err := r.scheduleNextArrival(); err != nil {
		return Result{}, err
	}
	if _, err := r.engine.Schedule(r.cfg.QuantumSec, sim.KindQuantum); err != nil {
		return Result{}, err
	}
	r.faultEvents = r.cfg.Faults.Events()
	for i, fe := range r.faultEvents {
		if _, err := r.engine.ScheduleWithPriority(fe.At, sim.KindFault, i, -1); err != nil {
			return Result{}, err
		}
	}
	runSpan := r.spans.Start("sched.run", obs.SpanSched, r.spanParent)
	r.runSpanCtx = runSpan.Context()
	var cancelReason string
	if err := r.engine.Run(); err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			runSpan.SetNote("error")
			r.spans.Finish(runSpan)
			return Result{}, err
		}
		// Context interruption is a normal outcome for an online service:
		// report the partial run rather than discarding it.
		cancelReason = err.Error()
	}
	// The end of the run reads the machine: settle it to the last event.
	simTime := r.engine.Now()
	if _, err := r.d.Settle(simTime); err != nil {
		runSpan.SetNote("error")
		r.spans.Finish(runSpan)
		return Result{}, err
	}
	r.drainFinals()
	r.d.CloseMode(simTime)
	obs.Emit(r.d.obs, obs.Event{Time: simTime, Type: obs.EventRunEnd,
		Core: -1, Job: -1, Value: simTime})
	if r.timeline != nil {
		// Make sure the trajectory's endpoint survives thinning.
		r.timeline.Flush()
	}
	server := r.d.server
	busy := server.BusySpeedProfile()
	modes := r.d.Modes()
	res := Result{
		Scheduler:         r.policy.Name(),
		Quality:           r.d.acc.Quality(),
		Energy:            server.Energy(),
		AvgSpeed:          busy.Mean(),
		SpeedVariance:     busy.Variance(),
		Jobs:              r.jobs,
		Completed:         server.Completed(),
		Expired:           server.Expired() + r.d.queueExpired,
		CutJobs:           r.d.cutJobs,
		ModeSwitches:      modes.Switches,
		SimTime:           simTime,
		MeanResponse:      stats.Mean(r.responses),
		P95Response:       stats.Quantile(r.responses, 0.95),
		AESEnergy:         modes.AESEnergy,
		BQEnergy:          modes.BQEnergy,
		CoreFailures:      server.Failures(),
		RequeuedJobs:      r.requeued,
		DroppedJobs:       r.d.shed,
		SurvivingCapacity: server.SurvivingCapacity(),
	}
	if simTime > 0 {
		res.AESFraction = modes.AESTime / simTime
	}
	if cancelReason != "" {
		res.Cancelled = true
		res.CancelReason = cancelReason
	}
	runSpan.SetValue(res.Quality)
	runSpan.SetAux(float64(r.engine.Processed))
	if cancelReason != "" {
		runSpan.SetNote("cancelled")
	}
	r.spans.Finish(runSpan)
	return res, nil
}

// handle is the event dispatcher. The finalization records an event
// produced are drained after it, so the buffer never outgrows one event's
// worth, and the timeline samples the machine after each event that left it
// settled at the event's instant.
func (r *Runner) handle(e *sim.Event) error {
	if err := r.apply(e); err != nil {
		return err
	}
	r.drainFinals()
	if r.d.server.Now() == e.Time {
		r.recordSample(e.Time)
	}
	return nil
}

// drainFinals records the response times of the jobs completed since the
// last drain, hands every drained job back to the producer, and empties the
// driver's finalization buffer.
func (r *Runner) drainFinals() {
	for _, f := range r.d.Finals() {
		if f.Completed() {
			r.responses = append(r.responses, f.Response)
		}
		r.prod.Recycle(f.Job)
	}
	r.d.ClearFinals()
}

// apply carries out one event. Only the events that read the machine
// settle it: a policy invocation, an idle wakeup, a fault.
func (r *Runner) apply(e *sim.Event) error {
	now := e.Time
	server := r.d.server
	switch e.Kind {
	case sim.KindArrival:
		j := r.nextArrival
		r.nextArrival = nil
		if err := r.d.Enqueue(now, j); err != nil {
			return err
		}
		r.jobs++
		obs.Emit(r.d.obs, obs.Event{Time: now, Type: obs.EventJobArrive,
			Core: -1, Job: j.ID, Value: j.Demand, Aux: j.Deadline})
		if r.d.decisions != nil {
			// Every arrival is an (implicit) admission: shedLoad may revoke
			// it later, but the record of what the policy saw at admit time
			// is what counterfactual replay needs.
			r.d.decisions.ObserveDecision(obs.Decision{Time: now, Kind: obs.DecisionAdmit,
				Machine: -1, Job: j.ID, Load: r.d.arrivalRate(now),
				Budget: server.Budget(), Alts: r.d.wait.Len(), Action: "queue"})
		}
		if err := r.scheduleNextArrival(); err != nil {
			return err
		}
		return r.d.OnArrival(now)

	case sim.KindQuantum:
		if err := r.d.Invoke(now, TriggerQuantum); err != nil {
			return err
		}
		if !r.finished() {
			if _, err := r.engine.Schedule(now+r.cfg.QuantumSec, sim.KindQuantum); err != nil {
				return err
			}
		}

	case sim.KindCoreIdle:
		_, err := r.d.Wake(now, e.Core)
		return err

	case sim.KindDeadline:
		return r.d.OnDeadline(now)

	case sim.KindFault:
		if _, err := r.d.Settle(now); err != nil {
			return err
		}
		if err := r.applyFault(now, r.faultEvents[e.Ref]); err != nil {
			return err
		}
		return r.d.Invoke(now, TriggerFault)
	}
	return nil
}

// applyFault carries out one scheduled fault event on the settled machine.
func (r *Runner) applyFault(now float64, fe faults.Event) error {
	server := r.d.server
	fev := fe.Obs()
	if fe.Kind == faults.BudgetRestore {
		fev.Value = r.cfg.PowerBudget
	}
	obs.Emit(r.d.obs, fev)
	var core *machine.Core
	if fe.Target >= 0 && fe.Target < len(server.Cores) {
		core = server.Cores[fe.Target]
	}
	switch fe.Kind {
	case faults.CoreFail:
		return r.failCore(now, fe.Target)
	case faults.CoreRecover:
		if core != nil {
			core.Recover(now)
		}
	case faults.BudgetCap:
		server.SetBudget(fe.Value)
	case faults.BudgetRestore:
		server.SetBudget(r.cfg.PowerBudget)
	case faults.SpeedStuck:
		if core != nil {
			core.SetStuck(fe.Value)
		}
	case faults.SpeedFree:
		if core != nil {
			core.SetStuck(0)
		}
	}
	return nil
}

// failCore halts a core and requeues its orphaned jobs — the one audited
// exception to the no-migration rule. Each orphan's Requeues counter is
// bumped so the invariant checker can verify that re-bindings happen only
// at failure instants; orphans already past their deadline are finalized
// instead of requeued.
func (r *Runner) failCore(now float64, core int) error {
	if core < 0 || core >= len(r.d.server.Cores) || !r.d.server.Cores[core].Healthy() {
		return nil
	}
	for _, e := range r.d.FailCore(now, core) {
		j := e.Job
		if j.Done() || j.Expired(now) {
			// Nothing left to run elsewhere; finalize in place.
			r.d.Expire(j, now, now, core)
			continue
		}
		j.Core = -1
		j.State = job.StateWaiting
		j.Requeues++
		r.requeued++
		if err := r.d.push(j); err != nil {
			return err
		}
		obs.Emit(r.d.obs, obs.Event{Time: now, Type: obs.EventJobRequeue,
			Core: core, Job: j.ID, Value: j.Remaining()})
	}
	return nil
}

func (r *Runner) scheduleNextArrival() error {
	if r.genDone {
		return nil
	}
	a, ok := r.prod.Next()
	if !ok {
		r.genDone = true
		return nil
	}
	// Arrivals come in release order, the contract of the engine's ordered
	// lane, so a posted arrival is delivered exactly where a scheduled one
	// would be, without a trip through the heap.
	if err := r.engine.Post(a.Release, sim.KindArrival, -1, -1); err != nil {
		// A malformed source emitted an out-of-order release; surface it
		// as a diagnosable error instead of crashing the process.
		return fmt.Errorf("sched: job source emitted job %d out of order: %w", a.Job.ID, err)
	}
	// At most one arrival event is ever outstanding, so the runner holds
	// the job itself; the handler picks it up when the event fires.
	r.nextArrival = a.Job
	return nil
}

// finished reports whether the run can stop scheduling quantum ticks: no
// future arrivals, nothing waiting, every core idle.
func (r *Runner) finished() bool {
	if !r.genDone || r.d.wait.Len() > 0 {
		return false
	}
	for _, c := range r.d.server.Cores {
		if !c.Idle() {
			return false
		}
	}
	return true
}

// EventsProcessed reports how many kernel events the run delivered —
// the numerator of the events/sec throughput metric in the benchmark
// suite (scripts/bench_baseline.sh).
func (r *Runner) EventsProcessed() int64 { return r.engine.Processed }
