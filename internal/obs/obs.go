// Package obs is the observability layer of the simulator: a low-overhead
// structured event bus, a metrics registry, and pluggable exporters.
//
// Every layer of the scheduling stack (sim kernel, machine, runner, and the
// policies themselves) emits typed Events through a nil-safe Observer hook.
// When no observer is attached — the default — emission is a nil check on a
// stack-allocated value and adds zero allocations to the scheduling hot
// path (obs_test.go verifies this with testing.AllocsPerRun).
//
// Three exporters consume the bus:
//
//   - JSONL (NewJSONL): one JSON object per event, for grep/jq analysis
//     and for replaying a run's decision history;
//   - Chrome trace-event format (NewTracer): loads in Perfetto or
//     chrome://tracing with one track per core showing job execution
//     spans, per-core speed counters, and fault markers;
//   - a plain-text run report (Collector.WriteReport): counters, gauges,
//     histograms, and a per-core utilization/energy table.
//
// Multi fans one stream out to several observers.
package obs

import "fmt"

// EventType labels a structured event. The taxonomy mirrors the paper's
// mechanisms: job lifecycle (arrive → assign → cut → complete/expire, plus
// the fault-path requeue/drop), core execution (exec segments and DVFS
// speed changes), policy decisions (AES↔BQ mode and ES↔WF distribution
// switches, batch boundaries), and injected faults.
type EventType uint8

const (
	// EventJobArrive: a job entered the waiting queue.
	// Job=id, Value=demand (units), Aux=deadline (s).
	EventJobArrive EventType = iota
	// EventJobAssign: a policy bound a waiting job to a core.
	// Job=id, Core=target core, Value=remaining work, Aux=deadline (s).
	EventJobAssign
	// EventJobCut: a cutting pass reduced a job's target.
	// Job=id, Core=core, Value=new target, Aux=full demand.
	EventJobCut
	// EventJobComplete: a job reached its (possibly cut) target.
	// Job=id, Core=core, Value=processed units, Aux=response time (s).
	EventJobComplete
	// EventJobExpire: a job's deadline passed with work outstanding.
	// Job=id, Core=core (-1 when it expired in the waiting queue),
	// Value=processed units, Aux=full demand.
	EventJobExpire
	// EventJobRequeue: a core failure orphaned an assigned job and the
	// runner returned it to the waiting queue (the audited no-migration
	// exception). Job=id, Core=the failed core.
	EventJobRequeue
	// EventJobDrop: degradation admission control shed a waiting job.
	// Job=id, Value=processed units, Aux=full demand.
	EventJobDrop
	// EventExec: a core executed one plan segment.
	// Core=core, Job=id, Value=speed (GHz), Aux=duration (s),
	// Extra=dynamic energy consumed (J).
	EventExec
	// EventCoreSpeed: a core's executing speed changed (DVFS transition;
	// 0 = idle). Core=core, Value=new speed (GHz).
	EventCoreSpeed
	// EventModeSwitch: the compensation policy switched execution mode.
	// Flag=true entering AES, false entering BQ.
	EventModeSwitch
	// EventDistSwitch: the hybrid power distribution crossed the critical
	// load. Flag=true switching to Water-Filling (heavy), false to
	// Equal-Sharing (light). Value=observed arrival rate (req/s).
	EventDistSwitch
	// EventBatch: a scheduling trigger fired and the policy ran.
	// Value=waiting-queue length at the trigger, Aux=trigger ordinal
	// (sched.Trigger).
	EventBatch
	// EventCoreFail: an injected fault halted a core. Core=core.
	EventCoreFail
	// EventCoreRecover: a failed core returned to service. Core=core.
	EventCoreRecover
	// EventBudgetCap: facility power capping lowered the total budget.
	// Value=new cap (W).
	EventBudgetCap
	// EventBudgetRestore: the budget returned to nominal. Value=budget (W).
	EventBudgetRestore
	// EventSpeedStuck: a core's DVFS wedged. Core=core, Value=speed (GHz).
	EventSpeedStuck
	// EventSpeedFree: a stuck core's DVFS was released. Core=core.
	EventSpeedFree
	// EventKernel: the sim kernel delivered one raw event (low-level
	// debugging). Value=sim.Kind ordinal, Aux=pending-queue length after
	// the pop.
	EventKernel
	// EventRunEnd: the simulation finished. Value=simulated span (s).
	EventRunEnd
	// EventMachineDown: a fleet machine crashed, losing its in-flight work.
	// Core=machine index, Value=jobs orphaned by the crash, Aux=processing
	// units of progress wiped.
	EventMachineDown
	// EventMachineUp: a crashed machine returned to service (empty,
	// healthy). Core=machine index.
	EventMachineUp
	// EventMachinePartition: a machine's dispatcher link changed. Core=
	// machine index, Flag=true partitioned (unreachable from the
	// dispatcher), false healed.
	EventMachinePartition
	// EventMachineDegrade: a machine's effective capacity changed. Core=
	// machine index, Flag=true degraded with Value=the budget factor in
	// (0,1), false restored to nominal (Value=1).
	EventMachineDegrade
	// EventDispatch: the global dispatcher routed a job to a machine.
	// Job=id, Core=machine index, Value=the policy's score for the chosen
	// machine (policy-specific; queued work for load-based policies),
	// Aux=number of machines eligible at the decision.
	EventDispatch
	// EventRedispatch: a job lost or stranded by a machine fault was routed
	// again. Job=id, Core=destination machine index, Value=the job's
	// re-dispatch count so far, Aux=remaining work being moved.
	EventRedispatch

	numEventTypes // sentinel; keep last
)

// String implements fmt.Stringer; the names are the stable wire format of
// the JSONL exporter.
func (t EventType) String() string {
	switch t {
	case EventJobArrive:
		return "job-arrive"
	case EventJobAssign:
		return "job-assign"
	case EventJobCut:
		return "job-cut"
	case EventJobComplete:
		return "job-complete"
	case EventJobExpire:
		return "job-expire"
	case EventJobRequeue:
		return "job-requeue"
	case EventJobDrop:
		return "job-drop"
	case EventExec:
		return "exec"
	case EventCoreSpeed:
		return "core-speed"
	case EventModeSwitch:
		return "mode-switch"
	case EventDistSwitch:
		return "dist-switch"
	case EventBatch:
		return "batch"
	case EventCoreFail:
		return "core-fail"
	case EventCoreRecover:
		return "core-recover"
	case EventBudgetCap:
		return "budget-cap"
	case EventBudgetRestore:
		return "budget-restore"
	case EventSpeedStuck:
		return "speed-stuck"
	case EventSpeedFree:
		return "speed-free"
	case EventKernel:
		return "kernel"
	case EventRunEnd:
		return "run-end"
	case EventMachineDown:
		return "machine-down"
	case EventMachineUp:
		return "machine-up"
	case EventMachinePartition:
		return "machine-partition"
	case EventMachineDegrade:
		return "machine-degrade"
	case EventDispatch:
		return "dispatch"
	case EventRedispatch:
		return "redispatch"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// Event is one structured observation. It is a flat value type so that
// emitting one costs no heap allocation; the meaning of Value, Aux, Extra,
// and Flag is fixed per EventType (documented on the constants).
type Event struct {
	// Time is the simulation time in seconds.
	Time float64
	// Type selects the event semantics.
	Type EventType
	// Core is the core index, or -1 when the event is not core-scoped.
	Core int
	// Job is the job ID, or -1 when the event is not job-scoped.
	Job int
	// Value, Aux, Extra are type-specific numeric payloads.
	Value float64
	Aux   float64
	Extra float64
	// Flag is a type-specific boolean payload (AES mode, WF heavy).
	Flag bool
}

// Observer consumes the event stream. Implementations must be cheap: they
// run inline on the scheduling path. Observe is called in strictly
// non-decreasing Time order within one run.
type Observer interface {
	Observe(e Event)
}

// Emit is the nil-safe emission helper every instrumented layer uses:
// Emit(nil, ev) is a no-op costing only the branch. Callers must pass a
// true nil interface (not a typed nil pointer) to get the fast path.
func Emit(o Observer, e Event) {
	if o != nil {
		o.Observe(e)
	}
}

// multi fans events out to several observers in order.
type multi []Observer

// Observe implements Observer.
func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// Multi combines observers into one. Nil entries are dropped; Multi()
// and Multi(nil) return nil so the zero-cost fast path is preserved, and
// Multi(o) returns o unwrapped.
func Multi(os ...Observer) Observer {
	kept := make(multi, 0, len(os))
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	default:
		return kept
	}
}
