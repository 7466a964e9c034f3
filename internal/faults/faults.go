// Package faults provides a deterministic fault-injection layer for the
// simulators: a seeded, reproducible Schedule of timed fault events that a
// machine's runner (internal/sched) or a fleet (internal/cluster) delivers
// through the sim event queue.
//
// One model covers two scopes. Core-scope kinds act on one machine, and were
// chosen because they are exactly where energy-aware schedulers break
// (budget and topology changes):
//
//   - core failure / recovery: a core halts instantly, losing its planned
//     queue (the runner requeues orphaned jobs — the one documented,
//     audited exception to the paper's no-migration rule);
//   - power-budget cap / restore: facility-level power capping shrinks the
//     total budget H mid-run and later restores it;
//   - stuck DVFS: a core's frequency governor wedges at a fixed speed — the
//     degenerate form of DVFS transition latency, where the transition
//     never completes — until it is freed.
//
// Machine-scope kinds act on a fleet: whole machines crash, partition from
// the global dispatcher, or degrade, and later recover. One kind table
// (kinds) holds each kind's names, scope, recovery kind, target and payload
// rules; a Spec's Value carries the payload (watts for a budget cap, GHz for
// a stuck speed, the budget factor for a slow machine).
//
// A Schedule is either written explicitly from Specs or drawn from an
// MTBF/MTTR generator. Both paths are deterministic: the same specs or the
// same (seed, targets, horizon, mtbf, mttr) tuple yield byte-identical event
// streams on every run and platform (the generator uses the repo's stable
// rng package, not math/rand).
package faults

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"goodenough/internal/obs"
	"goodenough/internal/rng"
)

// Kind labels a fault event.
type Kind int

// Core-scope kinds.
const (
	// CoreFail halts core Target: its plan is lost and it executes nothing.
	CoreFail Kind = iota
	// CoreRecover returns core Target to service (empty, healthy).
	CoreRecover
	// BudgetCap lowers the total power budget to Value watts.
	BudgetCap
	// BudgetRestore returns the budget to its nominal value.
	BudgetRestore
	// SpeedStuck wedges core Target's DVFS at Value GHz: every plan on the
	// core executes at that speed until SpeedFree.
	SpeedStuck
	// SpeedFree releases a stuck core's DVFS.
	SpeedFree
)

// Machine-scope kinds.
const (
	// MachineCrash halts machine Target: every core fails at once, all
	// in-flight progress is wiped, and waiting jobs are stranded for the
	// dispatcher to re-route.
	MachineCrash Kind = iota + 100
	// MachineRecover returns a crashed machine to service (empty, healthy).
	MachineRecover
	// MachinePartition cuts the machine off from the global dispatcher: it
	// keeps serving what it has, but receives no new work until the
	// partition heals.
	MachinePartition
	// MachineHeal reconnects a partitioned machine to the dispatcher.
	MachineHeal
	// MachineSlow degrades the machine to Value of its nominal power budget
	// (a slow or thermally-throttled box).
	MachineSlow
	// MachineRestore lifts a MachineSlow degradation.
	MachineRestore
)

// Scope says what a schedule's faults target: the cores of one machine or
// the machines of a fleet.
type Scope int

const (
	// Cores targets core indices of one machine.
	Cores Scope = iota
	// Machines targets machine indices of a fleet. A machine's fault
	// windows must not overlap, and an onset must lie inside the horizon.
	Machines
)

// scopes names each scope's target and what holds the targets, for errors.
var scopes = [...]struct{ target, whole string }{
	Cores:    {"core", "machine"},
	Machines: {"machine", "fleet"},
}

// kindInfo is one row of the kind table.
type kindInfo struct {
	kind  Kind
	scope Scope
	// names holds String's name first, then the aliases ParseKind accepts.
	names []string
	// onset marks the kinds a Spec may carry; recovery undoes the onset.
	onset    bool
	recovery Kind
	// targeted kinds must name an in-range core or machine in Target.
	targeted bool
	// valid checks Value for kinds that carry a payload; payload is the
	// error text, with one verb for the value.
	valid   func(v float64) bool
	payload string
	// obs is the observability event a core-scope fault renders as.
	obs obs.EventType
}

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
func fraction(v float64) bool       { return v > 0 && v < 1 }

var kinds = []kindInfo{
	{kind: CoreFail, scope: Cores, names: []string{"core-fail", "fail"}, onset: true,
		recovery: CoreRecover, targeted: true, obs: obs.EventCoreFail},
	{kind: CoreRecover, scope: Cores, names: []string{"core-recover"},
		targeted: true, obs: obs.EventCoreRecover},
	{kind: BudgetCap, scope: Cores, names: []string{"budget-cap", "cap"}, onset: true,
		recovery: BudgetRestore, valid: finitePositive,
		payload: "budget cap %v W must be finite and positive", obs: obs.EventBudgetCap},
	{kind: BudgetRestore, scope: Cores, names: []string{"budget-restore"},
		obs: obs.EventBudgetRestore},
	{kind: SpeedStuck, scope: Cores, names: []string{"speed-stuck", "stuck"}, onset: true,
		recovery: SpeedFree, targeted: true, valid: finitePositive,
		payload: "stuck speed %v GHz must be finite and positive", obs: obs.EventSpeedStuck},
	{kind: SpeedFree, scope: Cores, names: []string{"speed-free"},
		targeted: true, obs: obs.EventSpeedFree},
	{kind: MachineCrash, scope: Machines, names: []string{"machine-crash", "crash"}, onset: true,
		recovery: MachineRecover, targeted: true},
	{kind: MachineRecover, scope: Machines, names: []string{"machine-recover"}, targeted: true},
	{kind: MachinePartition, scope: Machines, names: []string{"machine-partition", "partition"},
		onset: true, recovery: MachineHeal, targeted: true},
	{kind: MachineHeal, scope: Machines, names: []string{"machine-heal"}, targeted: true},
	{kind: MachineSlow, scope: Machines, names: []string{"machine-slow", "slow", "degrade"},
		onset: true, recovery: MachineRestore, targeted: true, valid: fraction,
		payload: "slow factor %v must lie in (0,1)"},
	{kind: MachineRestore, scope: Machines, names: []string{"machine-restore"}, targeted: true},
}

// info returns k's row, or nil for an unknown kind.
func info(k Kind) *kindInfo {
	for i := range kinds {
		if kinds[i].kind == k {
			return &kinds[i]
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if row := info(k); row != nil {
		return row.names[0]
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// ParseKind maps the string names accepted in configs ("core-fail",
// "budget-cap", "speed-stuck"; "crash", "partition", "slow") to the scope's
// onset Kind.
func ParseKind(scope Scope, s string) (Kind, error) {
	var names []string
	for _, row := range kinds {
		if row.scope != scope || !row.onset {
			continue
		}
		for _, name := range row.names {
			if name == s {
				return row.kind, nil
			}
		}
		names = append(names, row.names...)
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q (%s)", s, strings.Join(names, "|"))
}

// Event is one timed fault occurrence, ready for the sim queue.
type Event struct {
	// At is the simulation time in seconds.
	At float64
	// Kind says what happens.
	Kind Kind
	// Target is the core or machine the fault acts on.
	Target int
	// Value is the onset's payload: the capped budget in watts, the
	// stuck speed in GHz, or the slow machine's budget factor.
	Value float64
}

// Obs renders a core-scope fault as a structured event for the
// observability bus (internal/obs). BudgetRestore carries Value 0 here —
// the nominal budget lives in the runner's config, which fills it in on
// emission.
func (e Event) Obs() obs.Event {
	row := info(e.Kind)
	ev := obs.Event{Time: e.At, Type: row.obs, Core: -1, Job: -1}
	if row.targeted {
		ev.Core = e.Target
	}
	if row.valid != nil {
		ev.Value = e.Value
	}
	return ev
}

// Spec is the user-level description of one fault: an onset and an optional
// duration after which the matching recovery event fires automatically.
// Duration 0 means the fault is permanent.
type Spec struct {
	// At is the onset time in seconds.
	At float64
	// Kind must be an onset kind of the schedule's scope.
	Kind Kind
	// Target is the core or machine index, for kinds that name one.
	Target int
	// Duration, when positive, schedules the paired recovery at
	// At+Duration; zero makes the fault permanent.
	Duration float64
	// Value is the payload: watts for BudgetCap, GHz for SpeedStuck, the
	// budget factor in (0,1) for MachineSlow.
	Value float64
}

// Validate reports whether the spec is well-formed for the scope's target
// count. A machine-scope onset must also lie before a positive horizon.
func (s Spec) Validate(scope Scope, targets int, horizon float64) error {
	if math.IsNaN(s.At) || math.IsInf(s.At, 0) || s.At < 0 {
		return fmt.Errorf("faults: onset time %v must be finite and non-negative", s.At)
	}
	if scope == Machines && horizon > 0 && s.At >= horizon {
		return fmt.Errorf("faults: onset time %v outside the run horizon [0,%v)", s.At, horizon)
	}
	if math.IsNaN(s.Duration) || math.IsInf(s.Duration, 0) || s.Duration < 0 {
		return fmt.Errorf("faults: duration %v must be finite and non-negative", s.Duration)
	}
	row, err := inScope(s.Kind, scope)
	if err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	if !row.onset {
		return fmt.Errorf("faults: %v is a recovery kind; specs carry the onset plus a Duration", s.Kind)
	}
	if err := row.check(scope, targets, s.Target, s.Value); err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	return nil
}

// inScope returns k's row if k is a kind of the scope. Its error, like
// check's, leaves the "faults:" prefix to the caller that wraps it.
func inScope(k Kind, scope Scope) (*kindInfo, error) {
	row := info(k)
	if row == nil {
		return nil, fmt.Errorf("unknown fault kind %d", int(k))
	}
	if row.scope != scope {
		return nil, fmt.Errorf("%v is not a %s fault kind", k, scopes[scope].target)
	}
	return row, nil
}

// check applies the row's target and payload rules.
func (row *kindInfo) check(scope Scope, targets, target int, value float64) error {
	if row.targeted && (target < 0 || target >= targets) {
		return fmt.Errorf("%s %d outside %s [0,%d)",
			scopes[scope].target, target, scopes[scope].whole, targets)
	}
	if row.valid != nil && !row.valid(value) {
		return fmt.Errorf(row.payload, value)
	}
	return nil
}

// end returns the exclusive end of the spec's fault window (+Inf when
// permanent).
func (s Spec) end() float64 {
	if s.Duration == 0 {
		return math.Inf(1)
	}
	return s.At + s.Duration
}

// Schedule is a validated, time-ordered fault event stream of one scope.
type Schedule struct {
	events []Event
}

// New expands specs into a time-ordered Schedule, pairing each bounded
// fault with its recovery. Specs are validated against the scope's target
// count (and, for machines, the horizon; horizon <= 0 disables that check).
// Machine windows on the same machine must not overlap — a machine cannot
// crash while it is already partitioned — so a malformed fleet schedule is
// rejected instead of silently reordered. Core windows may overlap: a core
// can fail while its DVFS is stuck.
func New(scope Scope, specs []Spec, targets int, horizon float64) (*Schedule, error) {
	if targets <= 0 {
		return nil, fmt.Errorf("faults: schedule needs a positive %s count, got %d",
			scopes[scope].target, targets)
	}
	events := make([]Event, 0, 2*len(specs))
	for i, s := range specs {
		if err := s.Validate(scope, targets, horizon); err != nil {
			return nil, fmt.Errorf("faults: spec %d: %w", i, err)
		}
		for k := 0; scope == Machines && k < i; k++ {
			p := specs[k]
			if p.Target == s.Target && s.At < p.end() && p.At < s.end() {
				return nil, fmt.Errorf("faults: spec %d (%v at %v) overlaps spec %d (%v at %v) on machine %d",
					i, s.Kind, s.At, k, p.Kind, p.At, s.Target)
			}
		}
		events = append(events, Event{At: s.At, Kind: s.Kind, Target: s.Target, Value: s.Value})
		if s.Duration > 0 {
			events = append(events, Event{At: s.At + s.Duration, Kind: info(s.Kind).recovery, Target: s.Target})
		}
	}
	sortEvents(events)
	return &Schedule{events: events}, nil
}

// sortEvents orders by time, breaking ties by (kind, target) so equal-time
// streams are deterministic regardless of spec order.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].At != events[b].At {
			return events[a].At < events[b].At
		}
		if events[a].Kind != events[b].Kind {
			return events[a].Kind < events[b].Kind
		}
		return events[a].Target < events[b].Target
	})
}

// maxExpectedOutages bounds the outages a generator may be asked for,
// summed over its targets, before it draws any: the draws are held in
// memory and no run context is consulted while they are made. 1e5 expected
// outages take a fraction of a second to draw.
const maxExpectedOutages = 1e5

// checkRenewal rejects renewal parameters that are invalid, or whose
// expected outage count over targets processes, targets × horizon /
// (MTBF + MTTR), exceeds maxExpectedOutages.
func checkRenewal(targets int, horizon, mtbf, mttr float64) error {
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) || horizon <= 0 {
		return fmt.Errorf("faults: generator horizon %v must be finite and positive", horizon)
	}
	if math.IsNaN(mtbf) || mtbf <= 0 {
		return fmt.Errorf("faults: MTBF %v must be positive", mtbf)
	}
	if math.IsNaN(mttr) || mttr <= 0 {
		return fmt.Errorf("faults: MTTR %v must be positive", mttr)
	}
	if n := float64(targets) * horizon / (mtbf + mttr); n > maxExpectedOutages {
		return fmt.Errorf("faults: %.4g expected outages (%d × horizon %v / (MTBF %v + MTTR %v)) exceed the limit of %g",
			n, targets, horizon, mtbf, mttr, float64(maxExpectedOutages))
	}
	return nil
}

// Renewal draws an alternating up/down renewal process from src: up for an
// Exp(1/mtbf) time, down for an Exp(1/mttr) time, repeating until the
// horizon. It calls outage once per down period that starts inside the
// horizon, with the onset and the down time (which may end past the
// horizon, so a failure is never left dangling). Parameters expecting more
// than maxExpectedOutages outages are rejected before any draw.
func Renewal(src *rng.Source, horizon, mtbf, mttr float64, outage func(at, down float64)) error {
	if err := checkRenewal(1, horizon, mtbf, mttr); err != nil {
		return err
	}
	t := 0.0
	for {
		t += src.Exp(1 / mtbf)
		if t >= horizon {
			return nil
		}
		down := src.Exp(1 / mttr)
		outage(t, down)
		t += down
	}
}

// Generate draws a per-core failure/repair renewal process (Renewal) until
// the horizon. The stream is deterministic for a fixed (seed, cores,
// horizon, mtbf, mttr) tuple.
func Generate(seed uint64, cores int, horizon, mtbf, mttr float64) (*Schedule, error) {
	return generate(seed^0xfa017faBAD5EED, CoreFail, cores, horizon, mtbf, mttr)
}

// GenerateCluster draws a per-machine crash/repair renewal process
// (Renewal) until the horizon, deterministically for a fixed (seed,
// machines, horizon, mtbf, mttr) tuple. Its mix constant differs from
// Generate's, so a fleet that layers both never sees correlated streams
// from one seed.
func GenerateCluster(seed uint64, machines int, horizon, mtbf, mttr float64) (*Schedule, error) {
	return generate(seed^0xc105e4FA175, MachineCrash, machines, horizon, mtbf, mttr)
}

// generate runs one renewal process per target, each on its own split of
// the seeded stream, as onset/recovery pairs.
func generate(seed uint64, onset Kind, targets int, horizon, mtbf, mttr float64) (*Schedule, error) {
	row := info(onset)
	if targets <= 0 {
		return nil, fmt.Errorf("faults: generator needs a positive %s count, got %d",
			scopes[row.scope].target, targets)
	}
	if err := checkRenewal(targets, horizon, mtbf, mttr); err != nil {
		return nil, err
	}
	var events []Event
	root := rng.New(seed)
	for target := 0; target < targets; target++ {
		err := Renewal(root.Split(), horizon, mtbf, mttr, func(at, down float64) {
			events = append(events, Event{At: at, Kind: onset, Target: target},
				Event{At: at + down, Kind: row.recovery, Target: target})
		})
		if err != nil {
			return nil, err
		}
	}
	sortEvents(events)
	return &Schedule{events: events}, nil
}

// Events returns a copy of the ordered event stream.
func (s *Schedule) Events() []Event {
	if s == nil {
		return nil
	}
	return append([]Event(nil), s.events...)
}

// Len returns the number of events.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// Validate re-checks the event stream against a scope and its target
// count. New and the generators produce valid schedules; this guards
// hand-built ones, count mismatches (a schedule generated for 16 cores
// applied to 8) and scope mismatches (a machine schedule given to one
// machine's runner).
func (s *Schedule) Validate(scope Scope, targets int) error {
	if s == nil {
		return nil
	}
	last := 0.0
	for i, e := range s.events {
		if math.IsNaN(e.At) || math.IsInf(e.At, 0) || e.At < 0 {
			return fmt.Errorf("faults: event %d time %v must be finite and non-negative", i, e.At)
		}
		if e.At < last {
			return fmt.Errorf("faults: event %d at %v before predecessor at %v", i, e.At, last)
		}
		last = e.At
		row, err := inScope(e.Kind, scope)
		if err == nil {
			err = row.check(scope, targets, e.Target, e.Value)
		}
		if err != nil {
			return fmt.Errorf("faults: event %d: %w", i, err)
		}
	}
	return nil
}
