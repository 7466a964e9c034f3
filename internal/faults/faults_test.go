package faults

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestNewPairsAndOrders(t *testing.T) {
	specs := []Spec{
		{At: 20, Kind: BudgetCap, Value: 160, Duration: 30},
		{At: 10, Kind: CoreFail, Target: 3, Duration: 5},
		{At: 10, Kind: CoreFail, Target: 1}, // permanent
		{At: 40, Kind: SpeedStuck, Target: 0, Value: 1.5, Duration: 2},
	}
	sch, err := New(Cores, specs, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev := sch.Events()
	want := []Event{
		{At: 10, Kind: CoreFail, Target: 1},
		{At: 10, Kind: CoreFail, Target: 3},
		{At: 15, Kind: CoreRecover, Target: 3},
		{At: 20, Kind: BudgetCap, Value: 160},
		{At: 40, Kind: SpeedStuck, Target: 0, Value: 1.5},
		{At: 42, Kind: SpeedFree, Target: 0},
		{At: 50, Kind: BudgetRestore},
	}
	if !reflect.DeepEqual(ev, want) {
		t.Fatalf("events:\n got %+v\nwant %+v", ev, want)
	}
	if err := sch.Validate(Cores, 16); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	nan := func() float64 { var z float64; return z / z }()
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"negative-time", Spec{At: -1, Kind: CoreFail}, "finite and non-negative"},
		{"nan-time", Spec{At: nan, Kind: CoreFail}, "finite and non-negative"},
		{"core-out-of-range", Spec{At: 1, Kind: CoreFail, Target: 16}, "outside machine"},
		{"negative-core", Spec{At: 1, Kind: CoreFail, Target: -1}, "outside machine"},
		{"zero-watts", Spec{At: 1, Kind: BudgetCap, Value: 0}, "finite and positive"},
		{"nan-watts", Spec{At: 1, Kind: BudgetCap, Value: nan}, "finite and positive"},
		{"zero-speed", Spec{At: 1, Kind: SpeedStuck, Target: 0}, "finite and positive"},
		{"recovery-kind", Spec{At: 1, Kind: CoreRecover}, "recovery kind"},
		{"negative-duration", Spec{At: 1, Kind: CoreFail, Duration: -2}, "finite and non-negative"},
		{"unknown-kind", Spec{At: 1, Kind: Kind(99)}, "unknown fault kind"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate(Cores, 16, 0)
			if err == nil {
				t.Fatalf("spec %+v accepted", c.spec)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(42, 16, 600, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(42, 16, 600, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed produced different schedules")
	}
	c, err := Generate(43, 16, 600, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() > 0 && reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds produced identical non-empty schedules")
	}
}

func TestGeneratePairsFailures(t *testing.T) {
	sch, err := Generate(7, 8, 1000, 50, 20)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Len() == 0 {
		t.Fatal("expected some failures at MTBF 50 over 1000 s")
	}
	down := make(map[int]bool)
	for _, e := range sch.Events() {
		switch e.Kind {
		case CoreFail:
			if down[e.Target] {
				t.Fatalf("core %d failed twice without recovering", e.Target)
			}
			down[e.Target] = true
		case CoreRecover:
			if !down[e.Target] {
				t.Fatalf("core %d recovered without failing", e.Target)
			}
			down[e.Target] = false
		default:
			t.Fatalf("generator emitted unexpected kind %v", e.Kind)
		}
	}
	for core, d := range down {
		if d {
			t.Fatalf("core %d left failed with no paired recovery", core)
		}
	}
	if err := sch.Validate(Cores, 8); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	cases := []struct {
		cores               int
		horizon, mtbf, mttr float64
		want                string
	}{
		{0, 100, 10, 1, "positive core count"},
		{4, 0, 10, 1, "horizon"},
		{4, 100, 0, 1, "MTBF"},
		{4, 100, 10, -1, "MTTR"},
	}
	for _, c := range cases {
		_, err := Generate(1, c.cores, c.horizon, c.mtbf, c.mttr)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Generate(%d,%v,%v,%v) error %v, want mention of %q",
				c.cores, c.horizon, c.mtbf, c.mttr, err, c.want)
		}
	}
}

// TestGenerateBoundsExpectedOutages checks the outage bound at its edge:
// exactly maxExpectedOutages expected outages are drawn, one more horizon
// second is rejected, and a tuple far above the bound fails before any
// draw (drawing it would not finish).
func TestGenerateBoundsExpectedOutages(t *testing.T) {
	// 10 cores × 1e4 s / (0.75 s + 0.25 s) = 1e5 expected outages.
	sch, err := Generate(1, 10, 1e4, 0.75, 0.25)
	if err != nil {
		t.Fatalf("at the limit: %v", err)
	}
	if n := sch.Len() / 2; n < 9e4 || n > 1.1e5 {
		t.Fatalf("drew %d outages, want about 1e5", n)
	}
	if _, err := Generate(1, 10, 1e4+1, 0.75, 0.25); err == nil || !strings.Contains(err.Error(), "limit of 100000") {
		t.Fatalf("above the limit: error %v, want the outage limit", err)
	}
	_, err = GenerateCluster(1, 1000, 1e6, 1e-3, 1e-3)
	if err == nil || !strings.Contains(err.Error(), "5e+11 expected outages") || !strings.Contains(err.Error(), "limit of 100000") {
		t.Fatalf("far above the limit: error %v, want the count and the limit", err)
	}
}

func TestScheduleValidateCoreMismatch(t *testing.T) {
	sch, err := New(Cores, []Spec{{At: 5, Kind: CoreFail, Target: 10, Duration: 1}}, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Validate(Cores, 8); err == nil {
		t.Fatal("schedule for 16 cores accepted on an 8-core machine")
	}
}

func TestNilScheduleIsEmpty(t *testing.T) {
	var s *Schedule
	if s.Len() != 0 || s.Events() != nil || s.Validate(Cores, 4) != nil {
		t.Fatal("nil schedule should behave as empty")
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"core-fail": CoreFail, "fail": CoreFail,
		"budget-cap": BudgetCap, "cap": BudgetCap,
		"speed-stuck": SpeedStuck, "stuck": SpeedStuck,
	} {
		got, err := ParseKind(Cores, name)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseKind(Cores, "meteor"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		CoreFail: "core-fail", CoreRecover: "core-recover",
		BudgetCap: "budget-cap", BudgetRestore: "budget-restore",
		SpeedStuck: "speed-stuck", SpeedFree: "speed-free",
		Kind(42): "fault(42)",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// The reference expansions below are New and NewCluster as they stood while
// each scope had its own spec and event types, with the schedule validators
// of that time. FuzzNewMatchesReference holds the unified model to them.

type refSpec struct {
	At       float64
	Kind     Kind
	Core     int
	Duration float64
	Watts    float64
	Speed    float64
}

type refEvent struct {
	At    float64
	Kind  Kind
	Core  int
	Watts float64
	Speed float64
}

func (s refSpec) validate(cores int) error {
	if math.IsNaN(s.At) || math.IsInf(s.At, 0) || s.At < 0 {
		return fmt.Errorf("faults: onset time %v must be finite and non-negative", s.At)
	}
	if math.IsNaN(s.Duration) || math.IsInf(s.Duration, 0) || s.Duration < 0 {
		return fmt.Errorf("faults: duration %v must be finite and non-negative", s.Duration)
	}
	switch s.Kind {
	case CoreFail:
		if s.Core < 0 || s.Core >= cores {
			return fmt.Errorf("faults: core %d outside machine [0,%d)", s.Core, cores)
		}
	case BudgetCap:
		if math.IsNaN(s.Watts) || math.IsInf(s.Watts, 0) || s.Watts <= 0 {
			return fmt.Errorf("faults: budget cap %v W must be finite and positive", s.Watts)
		}
	case SpeedStuck:
		if s.Core < 0 || s.Core >= cores {
			return fmt.Errorf("faults: core %d outside machine [0,%d)", s.Core, cores)
		}
		if math.IsNaN(s.Speed) || math.IsInf(s.Speed, 0) || s.Speed <= 0 {
			return fmt.Errorf("faults: stuck speed %v GHz must be finite and positive", s.Speed)
		}
	case CoreRecover, BudgetRestore, SpeedFree:
		return fmt.Errorf("faults: %v is a recovery kind; specs carry the onset plus a Duration", s.Kind)
	default:
		return fmt.Errorf("faults: unknown fault kind %d", int(s.Kind))
	}
	return nil
}

func refRecovery(k Kind) Kind {
	switch k {
	case CoreFail:
		return CoreRecover
	case BudgetCap:
		return BudgetRestore
	default:
		return SpeedFree
	}
}

func refNew(specs []refSpec, cores int) ([]refEvent, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("faults: schedule needs a positive core count, got %d", cores)
	}
	events := make([]refEvent, 0, 2*len(specs))
	for i, s := range specs {
		if err := s.validate(cores); err != nil {
			return nil, fmt.Errorf("faults: spec %d: %w", i, err)
		}
		events = append(events, refEvent{At: s.At, Kind: s.Kind, Core: s.Core, Watts: s.Watts, Speed: s.Speed})
		if s.Duration > 0 {
			events = append(events, refEvent{At: s.At + s.Duration, Kind: refRecovery(s.Kind), Core: s.Core})
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].At != events[b].At {
			return events[a].At < events[b].At
		}
		if events[a].Kind != events[b].Kind {
			return events[a].Kind < events[b].Kind
		}
		return events[a].Core < events[b].Core
	})
	return events, nil
}

func refValidate(events []refEvent, cores int) error {
	last := 0.0
	for i, e := range events {
		if math.IsNaN(e.At) || math.IsInf(e.At, 0) || e.At < 0 {
			return fmt.Errorf("faults: event %d time %v must be finite and non-negative", i, e.At)
		}
		if e.At < last {
			return fmt.Errorf("faults: event %d at %v before predecessor at %v", i, e.At, last)
		}
		last = e.At
		switch e.Kind {
		case CoreFail, CoreRecover, SpeedStuck, SpeedFree:
			if e.Core < 0 || e.Core >= cores {
				return fmt.Errorf("faults: event %d core %d outside machine [0,%d)", i, e.Core, cores)
			}
			if e.Kind == SpeedStuck && (math.IsNaN(e.Speed) || math.IsInf(e.Speed, 0) || e.Speed <= 0) {
				return fmt.Errorf("faults: event %d stuck speed %v must be finite and positive", i, e.Speed)
			}
		case BudgetCap:
			if math.IsNaN(e.Watts) || math.IsInf(e.Watts, 0) || e.Watts <= 0 {
				return fmt.Errorf("faults: event %d budget cap %v W must be finite and positive", i, e.Watts)
			}
		case BudgetRestore:
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

type refMachineSpec struct {
	At       float64
	Kind     Kind
	Machine  int
	Duration float64
	Factor   float64
}

type refMachineEvent struct {
	At      float64
	Kind    Kind
	Machine int
	Factor  float64
}

func (s refMachineSpec) validate(machines int, horizon float64) error {
	if math.IsNaN(s.At) || math.IsInf(s.At, 0) || s.At < 0 {
		return fmt.Errorf("faults: machine fault At %v must be finite and non-negative", s.At)
	}
	if horizon > 0 && s.At >= horizon {
		return fmt.Errorf("faults: machine fault At %v outside the run horizon [0,%v)", s.At, horizon)
	}
	if math.IsNaN(s.Duration) || math.IsInf(s.Duration, 0) || s.Duration < 0 {
		return fmt.Errorf("faults: machine fault Duration %v must be finite and non-negative", s.Duration)
	}
	if s.Machine < 0 || s.Machine >= machines {
		return fmt.Errorf("faults: Machine %d outside fleet [0,%d)", s.Machine, machines)
	}
	switch s.Kind {
	case MachineCrash, MachinePartition:
	case MachineSlow:
		if math.IsNaN(s.Factor) || s.Factor <= 0 || s.Factor >= 1 {
			return fmt.Errorf("faults: MachineSlow Factor %v must lie in (0,1)", s.Factor)
		}
	case MachineRecover, MachineHeal, MachineRestore:
		return fmt.Errorf("faults: %v is a recovery kind; specs carry the onset plus a Duration", s.Kind)
	default:
		return fmt.Errorf("faults: Kind %d is not a machine fault kind", int(s.Kind))
	}
	return nil
}

func (s refMachineSpec) end() float64 {
	if s.Duration == 0 {
		return math.Inf(1)
	}
	return s.At + s.Duration
}

func refMachineRecovery(k Kind) Kind {
	switch k {
	case MachineCrash:
		return MachineRecover
	case MachinePartition:
		return MachineHeal
	default:
		return MachineRestore
	}
}

func refNewCluster(specs []refMachineSpec, machines int, horizon float64) ([]refMachineEvent, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("faults: cluster schedule needs a positive machine count, got %d", machines)
	}
	for i, s := range specs {
		if err := s.validate(machines, horizon); err != nil {
			return nil, fmt.Errorf("faults: machine spec %d: %w", i, err)
		}
		for k := 0; k < i; k++ {
			p := specs[k]
			if p.Machine != s.Machine {
				continue
			}
			if s.At < p.end() && p.At < s.end() {
				return nil, fmt.Errorf(
					"faults: machine spec %d (%v at %v) overlaps spec %d (%v at %v) on machine %d",
					i, s.Kind, s.At, k, p.Kind, p.At, s.Machine)
			}
		}
	}
	events := make([]refMachineEvent, 0, 2*len(specs))
	for _, s := range specs {
		events = append(events, refMachineEvent{At: s.At, Kind: s.Kind, Machine: s.Machine, Factor: s.Factor})
		if s.Duration > 0 {
			events = append(events, refMachineEvent{
				At: s.At + s.Duration, Kind: refMachineRecovery(s.Kind), Machine: s.Machine})
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].At != events[b].At {
			return events[a].At < events[b].At
		}
		if events[a].Kind != events[b].Kind {
			return events[a].Kind < events[b].Kind
		}
		return events[a].Machine < events[b].Machine
	})
	return events, nil
}

func refValidateCluster(events []refMachineEvent, machines int) error {
	last := 0.0
	for i, e := range events {
		if math.IsNaN(e.At) || math.IsInf(e.At, 0) || e.At < 0 {
			return fmt.Errorf("faults: machine event %d time %v must be finite and non-negative", i, e.At)
		}
		if e.At < last {
			return fmt.Errorf("faults: machine event %d at %v before predecessor at %v", i, e.At, last)
		}
		last = e.At
		if e.Machine < 0 || e.Machine >= machines {
			return fmt.Errorf("faults: machine event %d machine %d outside fleet [0,%d)", i, e.Machine, machines)
		}
		switch e.Kind {
		case MachineCrash, MachinePartition, MachineRecover, MachineHeal, MachineRestore:
		case MachineSlow:
			if math.IsNaN(e.Factor) || e.Factor <= 0 || e.Factor >= 1 {
				return fmt.Errorf("faults: machine event %d slow factor %v must lie in (0,1)", i, e.Factor)
			}
		default:
			return fmt.Errorf("faults: machine event %d has non-machine kind %d", i, int(e.Kind))
		}
	}
	return nil
}
