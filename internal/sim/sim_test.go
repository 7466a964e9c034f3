package sim

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	var got []float64
	var eng *Engine
	eng = NewEngine(func(e *Event) error {
		got = append(got, e.Time)
		return nil
	})
	times := []float64{0.5, 0.1, 0.9, 0.3, 0.3, 0.0}
	for _, tm := range times {
		if _, err := eng.Schedule(tm, KindArrival); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events delivered out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Fatalf("delivered %d events, want %d", len(got), len(times))
	}
	if eng.Processed != int64(len(times)) {
		t.Fatalf("Processed = %d", eng.Processed)
	}
}

func TestSimultaneousPriority(t *testing.T) {
	// At the same timestamp, arrivals (kind 0) must precede quantum ticks
	// (kind 1) which precede faults (kind 6).
	var got []Kind
	eng := NewEngine(func(e *Event) error {
		got = append(got, e.Kind)
		return nil
	})
	eng.Schedule(1.0, KindFault)
	eng.Schedule(1.0, KindQuantum)
	eng.Schedule(1.0, KindArrival)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Kind{KindArrival, KindQuantum, KindFault}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
}

func TestSimultaneousSeqStable(t *testing.T) {
	// Equal time and priority: insertion order wins. The core payload
	// carries the insertion index through delivery.
	var got []int
	eng := NewEngine(func(e *Event) error {
		got = append(got, e.Core)
		return nil
	})
	for i := 0; i < 10; i++ {
		eng.ScheduleCoreRef(2.0, KindArrival, i, -1)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO tie-break violated: %v", got)
		}
	}
}

func TestScheduleInPastRejected(t *testing.T) {
	var eng *Engine
	eng = NewEngine(func(e *Event) error {
		if _, err := eng.Schedule(e.Time-0.5, KindArrival); err == nil {
			return errors.New("past event accepted")
		}
		return nil
	})
	eng.Schedule(1.0, KindArrival)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaN time did not panic")
		}
	}()
	NewEngine(func(*Event) error { return nil }).Schedule(math.NaN(), KindArrival)
}

func TestHandlerErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	eng := NewEngine(func(e *Event) error { return boom })
	eng.Schedule(1, KindArrival)
	eng.Schedule(2, KindArrival)
	if err := eng.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want boom", err)
	}
	if eng.Pending() != 1 {
		t.Fatalf("pending = %d after abort, want 1", eng.Pending())
	}
}

func TestCancel(t *testing.T) {
	var got []int
	eng := NewEngine(func(e *Event) error {
		got = append(got, e.Core)
		return nil
	})
	ev1, _ := eng.ScheduleCoreRef(1, KindArrival, 1, -1)
	eng.ScheduleCoreRef(2, KindArrival, 2, -1)
	ev3, _ := eng.ScheduleCoreRef(3, KindArrival, 3, -1)
	if !eng.Cancel(ev1) {
		t.Fatal("cancel of pending event failed")
	}
	if eng.Cancel(ev1) {
		t.Fatal("double cancel should report false")
	}
	if eng.Cancel(0) {
		t.Fatal("cancel of the zero handle should report false")
	}
	if !eng.Cancel(ev3) {
		t.Fatal("cancel of last event failed")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("delivered %v, want [2]", got)
	}
}

func TestCancelAfterDelivery(t *testing.T) {
	eng := NewEngine(func(e *Event) error { return nil })
	id, _ := eng.Schedule(1, KindArrival)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Cancel(id) {
		t.Fatal("cancelling a delivered event should be a no-op")
	}
}

func TestCancelStaleHandleAfterSlotReuse(t *testing.T) {
	// A handle must stay dead even after its slab slot is recycled for a
	// new event — the generation counter is what prevents the ABA cancel.
	eng := NewEngine(func(e *Event) error { return nil })
	old, _ := eng.Schedule(1, KindArrival)
	if err := eng.Run(); err != nil { // delivers and frees the slot
		t.Fatal(err)
	}
	fresh, _ := eng.Schedule(2, KindArrival) // reuses the freed slot
	if eng.Cancel(old) {
		t.Fatal("stale handle cancelled a recycled slot")
	}
	if eng.Pending() != 1 {
		t.Fatalf("pending = %d, the fresh event must survive", eng.Pending())
	}
	if !eng.Cancel(fresh) {
		t.Fatal("fresh handle should cancel")
	}
}

// step delivers the next event, reporting false on an empty queue: how the
// tests observe the engine between deliveries.
func step(e *Engine) (bool, error) {
	if e.Pending() == 0 {
		return false, nil
	}
	return true, e.deliver()
}

func TestStep(t *testing.T) {
	count := 0
	eng := NewEngine(func(e *Event) error {
		count++
		return nil
	})
	eng.Schedule(1, KindArrival)
	eng.Schedule(2, KindArrival)
	ok, err := step(eng)
	if err != nil || !ok {
		t.Fatalf("step 1: ok=%v err=%v", ok, err)
	}
	if count != 1 || eng.Now() != 1 {
		t.Fatalf("after step 1: count=%d now=%v", count, eng.Now())
	}
	if eng.PeekTime() != 2 {
		t.Fatalf("peek = %v, want 2", eng.PeekTime())
	}
	step(eng)
	ok, err = step(eng)
	if err != nil || ok {
		t.Fatalf("step on empty queue: ok=%v err=%v", ok, err)
	}
	if !math.IsInf(eng.PeekTime(), 1) {
		t.Fatal("peek on empty queue should be +Inf")
	}
}

func TestReentrantScheduling(t *testing.T) {
	// Handlers scheduling new events mid-run is the normal mode of
	// operation (arrival schedules next arrival).
	var got []float64
	var eng *Engine
	eng = NewEngine(func(e *Event) error {
		got = append(got, e.Time)
		if e.Time < 0.5 {
			if _, err := eng.Schedule(e.Time+0.1, KindArrival); err != nil {
				return err
			}
		}
		return nil
	})
	eng.Schedule(0.1, KindArrival)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) < 5 {
		t.Fatalf("chained arrivals truncated: %v", got)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("chained arrivals out of order: %v", got)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindArrival: "arrival", KindQuantum: "quantum", KindCoreIdle: "core-idle",
		KindDeadline: "deadline", KindFault: "fault", Kind(99): "kind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// Property: any multiset of event times is delivered in sorted order.
func TestOrderingProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		var got []float64
		eng := NewEngine(func(e *Event) error {
			got = append(got, e.Time)
			return nil
		})
		for _, r := range raw {
			eng.Schedule(float64(r)/100, KindArrival)
		}
		if err := eng.Run(); err != nil {
			return false
		}
		return sort.Float64sAreSorted(got) && len(got) == len(raw)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := NewEngine(func(e *Event) error { return nil })
		for k := 0; k < 1000; k++ {
			eng.Schedule(float64(k%97), KindArrival)
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStepTimeBackwardsGuard(t *testing.T) {
	// Manually corrupting the queue ordering is not possible through the
	// public API, so exercise delivery's normal paths instead: deliver two
	// events stepwise and confirm clock monotonicity.
	eng := NewEngine(func(e *Event) error { return nil })
	eng.Schedule(1, KindArrival)
	eng.Schedule(2, KindArrival)
	t1 := 0.0
	for {
		ok, err := step(eng)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if eng.Now() < t1 {
			t.Fatal("clock went backwards")
		}
		t1 = eng.Now()
	}
}

func TestStepHandlerError(t *testing.T) {
	boom := errors.New("boom")
	eng := NewEngine(func(e *Event) error { return boom })
	eng.Schedule(1, KindArrival)
	if _, err := step(eng); !errors.Is(err, boom) {
		t.Fatalf("step error = %v", err)
	}
}

func TestPendingCount(t *testing.T) {
	eng := NewEngine(func(e *Event) error { return nil })
	if eng.Pending() != 0 {
		t.Fatal("fresh engine pending != 0")
	}
	eng.Schedule(1, KindArrival)
	eng.Schedule(2, KindArrival)
	if eng.Pending() != 2 {
		t.Fatalf("pending = %d", eng.Pending())
	}
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("pending after run = %d", eng.Pending())
	}
}
