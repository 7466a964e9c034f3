package obs

import (
	"io"
	"strconv"
	"sync"
)

// Decision records. Every consequential scheduling choice — admitting or
// shedding a job, switching degrade mode, replanning DVFS after a budget
// change, (re)dispatching across a fleet — emits one flat Decision
// carrying the inputs the policy saw (load, capacity, marginal quality
// f'(c), budget), the action taken, and how many alternatives were
// weighed. The stream is the substrate for counterfactual replay: it
// answers "why did the scheduler do that?" without re-running the sim.
//
// Decisions ride a separate sink from the event bus so the byte-pinned
// event goldens stay untouched and the hot path pays nothing when no
// sink is installed (EmitDecision is nil-safe, like Emit).

// DecisionKind classifies the choice being made.
type DecisionKind uint8

const (
	DecisionAdmit      DecisionKind = iota // job accepted for service
	DecisionShed                           // job dropped by marginal-quality load shedding
	DecisionModeSwitch                     // AES <-> BQ degrade-mode transition
	DecisionReplan                         // DVFS replan after a power-budget change
	DecisionDispatch                       // fleet dispatcher routed a job to a machine
	DecisionRedispatch                     // displaced job re-routed after a machine fault
	DecisionDrop                           // job dropped at the re-dispatch limit
	DecisionCut                            // live governor cut an in-flight request's demand
	DecisionCompensate                     // live governor skipped cutting to rebuild quality (BQ)
)

const numDecisionKinds = int(DecisionCompensate) + 1

// String returns the stable wire name of the kind (the JSONL exporter
// depends on these not changing).
func (k DecisionKind) String() string {
	switch k {
	case DecisionAdmit:
		return "admit"
	case DecisionShed:
		return "shed"
	case DecisionModeSwitch:
		return "mode-switch"
	case DecisionReplan:
		return "replan"
	case DecisionDispatch:
		return "dispatch"
	case DecisionRedispatch:
		return "redispatch"
	case DecisionDrop:
		return "drop"
	case DecisionCut:
		return "cut"
	case DecisionCompensate:
		return "compensate"
	default:
		return "unknown"
	}
}

// Decision is one structured scheduling choice. Flat values only, so
// emission never allocates. Fields that do not apply stay at their zero
// (or -1 for IDs) and are omitted from the JSONL encoding.
type Decision struct {
	Time     float64      // simulation seconds
	Kind     DecisionKind //
	Machine  int          // fleet machine index, -1 when single-machine
	Job      int          // job ID, -1 when the decision is not per-job
	Load     float64      // demanded service rate seen by the policy
	Capacity float64      // serviceable rate under the current budget
	Marginal float64      // marginal quality f'(c) of the job acted on
	Budget   float64      // power budget in force (W)
	Score    float64      // policy score (dispatch) or mode value
	Alts     int          // alternatives considered (candidates, eligible machines)
	Action   string       // static-string action ("shed", "aes", "bq", ...)
}

// DecisionSink receives decisions. Implementations must not retain
// references into the Decision (it is a value; copies are fine).
type DecisionSink interface {
	ObserveDecision(d Decision)
}

// EmitDecision delivers d to s when s is non-nil. The nil fast path is
// what keeps instrumented hot paths allocation-free with recording off.
func EmitDecision(s DecisionSink, d Decision) {
	if s != nil {
		s.ObserveDecision(d)
	}
}

// multiDecision fans one decision out to several sinks.
type multiDecision struct{ sinks []DecisionSink }

func (m multiDecision) ObserveDecision(d Decision) {
	for _, s := range m.sinks {
		s.ObserveDecision(d)
	}
}

// DecisionSinks combines sinks, dropping nils. Returns nil for none and
// the sink itself for exactly one, so the nil-check fast path survives.
func DecisionSinks(sinks ...DecisionSink) DecisionSink {
	kept := make([]DecisionSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multiDecision{sinks: kept}
}

// DecisionLog streams each decision as one JSON object per line in the
// same deterministic hand-rolled style as the event JSONL exporter, so a
// seeded run produces a byte-identical decision log every time (the
// golden-file test relies on this).
type DecisionLog struct {
	lineWriter
}

// NewDecisionLog wraps w in a buffered decision sink. Call Flush when
// the run completes.
func NewDecisionLog(w io.Writer) *DecisionLog {
	return &DecisionLog{newLineWriter(w)}
}

// ObserveDecision implements DecisionSink.
func (l *DecisionLog) ObserveDecision(d Decision) {
	if l.err != nil {
		return
	}
	b := l.buf[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, d.Time, 'g', -1, 64)
	b = append(b, `,"decision":"`...)
	b = append(b, d.Kind.String()...)
	b = append(b, '"')
	if d.Machine >= 0 {
		b = append(b, `,"machine":`...)
		b = strconv.AppendInt(b, int64(d.Machine), 10)
	}
	if d.Job >= 0 {
		b = append(b, `,"job":`...)
		b = strconv.AppendInt(b, int64(d.Job), 10)
	}
	if d.Load != 0 {
		b = append(b, `,"load":`...)
		b = strconv.AppendFloat(b, d.Load, 'g', -1, 64)
	}
	if d.Capacity != 0 {
		b = append(b, `,"cap":`...)
		b = strconv.AppendFloat(b, d.Capacity, 'g', -1, 64)
	}
	if d.Marginal != 0 {
		b = append(b, `,"marginal":`...)
		b = strconv.AppendFloat(b, d.Marginal, 'g', -1, 64)
	}
	if d.Budget != 0 {
		b = append(b, `,"budget":`...)
		b = strconv.AppendFloat(b, d.Budget, 'g', -1, 64)
	}
	if d.Score != 0 {
		b = append(b, `,"score":`...)
		b = strconv.AppendFloat(b, d.Score, 'g', -1, 64)
	}
	if d.Alts != 0 {
		b = append(b, `,"alts":`...)
		b = strconv.AppendInt(b, int64(d.Alts), 10)
	}
	if d.Action != "" {
		b = append(b, `,"action":"`...)
		b = append(b, d.Action...)
		b = append(b, '"')
	}
	l.end(b)
}

// SyncDecision serializes concurrent producers onto one sink. The
// simulator is single-threaded and never needs it; the live governor's
// admission path and control loop emit from different goroutines, so
// geserve wraps its decision log in one of these.
type SyncDecision struct {
	mu   sync.Mutex
	sink DecisionSink
}

// NewSyncDecision wraps a non-nil sink. Callers with no sink should keep
// passing nil DecisionSinks around instead of wrapping one.
func NewSyncDecision(sink DecisionSink) *SyncDecision {
	return &SyncDecision{sink: sink}
}

// ObserveDecision implements DecisionSink.
func (s *SyncDecision) ObserveDecision(d Decision) {
	s.mu.Lock()
	s.sink.ObserveDecision(d)
	s.mu.Unlock()
}
