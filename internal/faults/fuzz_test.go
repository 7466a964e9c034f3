package faults

import (
	"math"
	"reflect"
	"testing"
)

// FuzzGenerate asserts the three structural guarantees of the MTBF/MTTR
// generator over arbitrary parameters: events are time-ordered, every
// failure is paired with a later recovery of the same core, and a fixed
// seed reproduces the stream exactly.
func FuzzGenerate(f *testing.F) {
	f.Add(uint64(2017), 16, 600.0, 100.0, 10.0)
	f.Add(uint64(0), 1, 1.0, 0.001, 0.001)
	f.Add(uint64(42), 64, 50.0, 5.0, 500.0)
	f.Fuzz(func(t *testing.T, seed uint64, cores int, horizon, mtbf, mttr float64) {
		if cores > 256 {
			cores %= 256
		}
		sch, err := Generate(seed, cores, horizon, mtbf, mttr)
		if err != nil {
			return // invalid parameters are rejected, not generated around
		}
		events := sch.Events()
		last := 0.0
		down := make(map[int]bool)
		for i, e := range events {
			if e.At < last {
				t.Fatalf("event %d at %v before predecessor at %v", i, e.At, last)
			}
			last = e.At
			switch e.Kind {
			case CoreFail:
				if down[e.Target] {
					t.Fatalf("core %d failed while already down", e.Target)
				}
				down[e.Target] = true
			case CoreRecover:
				if !down[e.Target] {
					t.Fatalf("core %d recovered while up", e.Target)
				}
				down[e.Target] = false
			default:
				t.Fatalf("generator emitted kind %v", e.Kind)
			}
		}
		for core, d := range down {
			if d {
				t.Fatalf("core %d left failed without a paired recovery", core)
			}
		}
		if err := sch.Validate(Cores, cores); err != nil {
			t.Fatalf("generated schedule fails validation: %v", err)
		}
		again, err := Generate(seed, cores, horizon, mtbf, mttr)
		if err != nil {
			t.Fatalf("second generation errored: %v", err)
		}
		if !reflect.DeepEqual(events, again.Events()) {
			t.Fatal("same parameters produced different schedules")
		}
	})
}

// FuzzGenerateCluster asserts the same structural guarantees for the
// machine-level MTBF/MTTR generator: time-ordered events, every crash paired
// with a later recovery of the same machine, validation-clean output, and a
// fixed seed reproducing the stream exactly.
func FuzzGenerateCluster(f *testing.F) {
	f.Add(uint64(2017), 10, 60.0, 30.0, 5.0)
	f.Add(uint64(0), 1, 1.0, 0.001, 0.001)
	f.Add(uint64(42), 64, 50.0, 5.0, 500.0)
	f.Fuzz(func(t *testing.T, seed uint64, machines int, horizon, mtbf, mttr float64) {
		if machines > 256 {
			machines %= 256
		}
		sch, err := GenerateCluster(seed, machines, horizon, mtbf, mttr)
		if err != nil {
			return // invalid parameters are rejected, not generated around
		}
		events := sch.Events()
		last := 0.0
		down := make(map[int]bool)
		for i, e := range events {
			if e.At < last {
				t.Fatalf("event %d at %v before predecessor at %v", i, e.At, last)
			}
			last = e.At
			switch e.Kind {
			case MachineCrash:
				if down[e.Target] {
					t.Fatalf("machine %d crashed while already down", e.Target)
				}
				down[e.Target] = true
			case MachineRecover:
				if !down[e.Target] {
					t.Fatalf("machine %d recovered while up", e.Target)
				}
				down[e.Target] = false
			default:
				t.Fatalf("cluster generator emitted kind %v", e.Kind)
			}
		}
		for m, d := range down {
			if d {
				t.Fatalf("machine %d left crashed without a paired recovery", m)
			}
		}
		if err := sch.Validate(Machines, machines); err != nil {
			t.Fatalf("generated cluster schedule fails validation: %v", err)
		}
		again, err := GenerateCluster(seed, machines, horizon, mtbf, mttr)
		if err != nil {
			t.Fatalf("second generation errored: %v", err)
		}
		if !reflect.DeepEqual(events, again.Events()) {
			t.Fatal("same parameters produced different cluster schedules")
		}
	})
}

// fuzzKinds are the kinds a fuzzed spec draws from: every kind of both
// scopes, recovery kinds included, and two unknown ones.
var fuzzKinds = []Kind{CoreFail, CoreRecover, BudgetCap, BudgetRestore, SpeedStuck, SpeedFree,
	MachineCrash, MachineRecover, MachinePartition, MachineHeal, MachineSlow, MachineRestore,
	Kind(42), Kind(-1)}

// fuzzFloat maps a byte to a multiple of 1/16 in [0, 12.5), so onsets tie
// and windows overlap often, or, for the top bytes, to a special value.
func fuzzFloat(b byte, special []float64) float64 {
	if b < 200 {
		return float64(b) / 16
	}
	return special[int(b-200)%len(special)]
}

var (
	fuzzTimes  = []float64{math.NaN(), -1, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.Copysign(0, -1)}
	fuzzValues = []float64{math.NaN(), -1, math.Inf(1), 1, 0.999, math.SmallestNonzeroFloat64, math.MaxFloat64}
)

// decodeSpecs reads up to 16 specs of five bytes each: kind, target (-2 to
// 13), onset, duration (every fourth byte permanent) and payload.
func decodeSpecs(data []byte) []Spec {
	var specs []Spec
	for ; len(data) >= 5 && len(specs) < 16; data = data[5:] {
		s := Spec{
			Kind:   fuzzKinds[int(data[0])%len(fuzzKinds)],
			Target: int(data[1]%16) - 2,
			At:     fuzzFloat(data[2], fuzzTimes),
			Value:  fuzzFloat(data[4], fuzzValues),
		}
		if data[3]%4 != 0 {
			s.Duration = fuzzFloat(data[3], fuzzTimes)
		}
		specs = append(specs, s)
	}
	return specs
}

// sameEvents compares two streams field by field, floats by their bits.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].At) != math.Float64bits(b[i].At) || a[i].Kind != b[i].Kind ||
			a[i].Target != b[i].Target || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// FuzzNewMatchesReference holds the unified New to the per-scope
// expansions it replaced (refNew, refNewCluster): for random specs of
// either scope — overlapping and permanent windows, out-of-range targets
// and payloads, recovery kinds given as onsets, NaN times and onsets past
// the horizon — it must accept exactly the specs the reference accepts and
// yield the identical event stream. The schedule's Validate must agree with
// the reference validator at the schedule's target count and at a smaller
// one, and a non-empty schedule must fail validation in the other scope.
func FuzzNewMatchesReference(f *testing.F) {
	f.Add(false, 16, 0.0, []byte{2, 2, 200 + 0, 1, 160, 0, 5, 160, 80, 0, 0, 3, 160, 0, 0, 4, 2, 0, 33, 24})
	f.Add(true, 6, 10.0, []byte{6, 2, 16, 80, 0, 8, 2, 48, 80, 0, 10, 4, 40, 33, 8})
	f.Add(true, 4, 10.0, []byte{6, 3, 176, 0, 0, 10, 2, 16, 17, 16, 7, 2, 16, 5, 0})
	f.Add(false, 8, 5.0, []byte{1, 2, 16, 5, 0, 4, 9, 32, 8, 201, 13, 2, 16, 5, 0})
	f.Fuzz(func(t *testing.T, machines bool, targets int, horizon float64, data []byte) {
		targets %= 12
		specs := decodeSpecs(data)
		scope, other := Cores, Machines
		var want []Event
		var refErr error
		var validateRef func(n int) error
		if machines {
			scope, other = Machines, Cores
			ref := make([]refMachineSpec, len(specs))
			for i, s := range specs {
				ref[i] = refMachineSpec{At: s.At, Kind: s.Kind, Machine: s.Target, Duration: s.Duration, Factor: s.Value}
			}
			var evs []refMachineEvent
			evs, refErr = refNewCluster(ref, targets, horizon)
			for _, e := range evs {
				want = append(want, Event{At: e.At, Kind: e.Kind, Target: e.Machine, Value: e.Factor})
			}
			validateRef = func(n int) error { return refValidateCluster(evs, n) }
		} else {
			ref := make([]refSpec, len(specs))
			for i, s := range specs {
				ref[i] = refSpec{At: s.At, Kind: s.Kind, Core: s.Target, Duration: s.Duration, Watts: s.Value, Speed: s.Value}
			}
			var evs []refEvent
			evs, refErr = refNew(ref, targets)
			for _, e := range evs {
				want = append(want, Event{At: e.At, Kind: e.Kind, Target: e.Core, Value: e.Watts})
			}
			validateRef = func(n int) error { return refValidate(evs, n) }
		}
		sch, err := New(scope, specs, targets, horizon)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s specs %+v on %d targets, horizon %v: New error %v, reference error %v",
				scopes[scope].target, specs, targets, horizon, err, refErr)
		}
		if err != nil {
			return
		}
		if got := sch.Events(); !sameEvents(got, want) {
			t.Fatalf("%s specs %+v:\n got %+v\nwant %+v", scopes[scope].target, specs, got, want)
		}
		for _, n := range []int{targets, targets / 2} {
			if got, ref := sch.Validate(scope, n), validateRef(n); (got == nil) != (ref == nil) {
				t.Fatalf("%s Validate(%d) = %v, reference %v", scopes[scope].target, n, got, ref)
			}
		}
		if sch.Len() > 0 && sch.Validate(other, targets) == nil {
			t.Fatalf("%s schedule accepted in %s scope", scopes[scope].target, scopes[other].target)
		}
	})
}
