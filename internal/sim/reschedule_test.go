package sim

import "testing"

// collect returns an engine whose handler appends every delivered event's
// Ref to *got.
func collect(got *[]int) *Engine {
	return NewEngine(func(e *Event) error {
		*got = append(*got, e.Ref)
		return nil
	})
}

func mustSchedule(t *testing.T, e *Engine, at float64, ref int) EventID {
	t.Helper()
	id, err := e.ScheduleCoreRef(at, KindCoreIdle, -1, ref)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustReschedule(t *testing.T, e *Engine, id EventID, at float64) {
	t.Helper()
	if ok, err := e.Reschedule(id, at); !ok || err != nil {
		t.Fatalf("Reschedule(%v, %v) = %v, %v; want true, nil", id, at, ok, err)
	}
}

func drain(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A rescheduled event takes the next seq, exactly as a cancel and a fresh
// schedule would: tied on time and priority with an event scheduled before
// the reschedule, it is delivered after it, even when it was scheduled
// first.
func TestRescheduleTiesDeliverAfterEarlierSchedules(t *testing.T) {
	var got []int
	e := collect(&got)
	a := mustSchedule(t, e, 1, 0) // scheduled first, moved onto the tie
	mustSchedule(t, e, 5, 1)
	mustSchedule(t, e, 5, 2)
	mustReschedule(t, e, a, 5)
	mustSchedule(t, e, 5, 3) // scheduled after the reschedule
	drain(t, e)
	if want := []int{1, 2, 0, 3}; !equalInts(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
}

// Moving an event earlier must sift it up past every later event, and
// moving it later must sift it down.
func TestRescheduleMovesEarlierAndLater(t *testing.T) {
	var got []int
	e := collect(&got)
	ids := make([]EventID, 12)
	for i := range ids {
		ids[i] = mustSchedule(t, e, float64(10+i), i)
	}
	mustReschedule(t, e, ids[11], 1)  // last leaf to the front
	mustReschedule(t, e, ids[0], 100) // root to the back
	mustReschedule(t, e, ids[5], 18.5)
	drain(t, e)
	if want := []int{11, 1, 2, 3, 4, 6, 7, 8, 5, 9, 10, 0}; !equalInts(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
}

// A delivered, cancelled, or zero handle is refused with false and changes
// nothing, also after the slot was reused by a new event.
func TestRescheduleStaleHandleChangesNothing(t *testing.T) {
	var got []int
	e := collect(&got)
	delivered := mustSchedule(t, e, 1, 0)
	if _, err := step(e); err != nil {
		t.Fatal(err)
	}
	cancelled := mustSchedule(t, e, 3, 1) // reuses the delivered event's slot
	live := mustSchedule(t, e, 4, 2)
	if !e.Cancel(cancelled) {
		t.Fatal("Cancel of a pending event returned false")
	}
	reused := mustSchedule(t, e, 6, 3) // reuses the cancelled event's slot
	pending, processed, peek := e.Pending(), e.Processed, e.PeekTime()
	for _, id := range []EventID{delivered, cancelled, 0} {
		if ok, err := e.Reschedule(id, 2); ok || err != nil {
			t.Fatalf("Reschedule(%v) = %v, %v; want false, nil", id, ok, err)
		}
	}
	if e.Pending() != pending || e.Processed != processed || e.PeekTime() != peek {
		t.Fatalf("refused reschedules changed Pending %d -> %d, Processed %d -> %d or PeekTime %v -> %v",
			pending, e.Pending(), processed, e.Processed, peek, e.PeekTime())
	}
	drain(t, e)
	if want := []int{0, 2, 3}; !equalInts(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
	_, _ = live, reused
}

// A reschedule moves an event without delivering or adding one, keeps its
// payload, and keeps its handle valid.
func TestReschedulePreservesCountsAndHandle(t *testing.T) {
	var kinds []Kind
	var cores []int
	e := NewEngine(func(ev *Event) error {
		kinds = append(kinds, ev.Kind)
		cores = append(cores, ev.Core)
		return nil
	})
	id, err := e.ScheduleCoreRef(2, KindCoreIdle, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(1, KindQuantum); err != nil {
		t.Fatal(err)
	}
	if _, err := step(e); err != nil {
		t.Fatal(err)
	}
	pending, processed := e.Pending(), e.Processed
	mustReschedule(t, e, id, 4)
	mustReschedule(t, e, id, 3)
	if e.Pending() != pending || e.Processed != processed {
		t.Fatalf("Reschedule changed Pending %d -> %d or Processed %d -> %d",
			pending, e.Pending(), processed, e.Processed)
	}
	if e.PeekTime() != 3 {
		t.Fatalf("PeekTime = %v after rescheduling to 3", e.PeekTime())
	}
	if !e.Cancel(id) {
		t.Fatal("the handle went stale after a reschedule")
	}
	mustSchedule(t, e, 5, 0)
	id2, _ := e.ScheduleCoreRef(6, KindCoreIdle, 9, 1)
	mustReschedule(t, e, id2, 5)
	drain(t, e)
	if len(cores) != 3 || cores[2] != 9 || kinds[2] != KindCoreIdle {
		t.Fatalf("delivered kinds %v cores %v; the rescheduled event lost its payload", kinds, cores)
	}
}

// A time before now is an error, and the event stays where it was.
func TestRescheduleBeforeNowIsError(t *testing.T) {
	var got []int
	e := collect(&got)
	mustSchedule(t, e, 3, 0)
	id := mustSchedule(t, e, 8, 1)
	if _, err := step(e); err != nil {
		t.Fatal(err)
	}
	if ok, err := e.Reschedule(id, 2); ok || err == nil {
		t.Fatalf("Reschedule before now = %v, %v; want an error", ok, err)
	}
	if e.PeekTime() != 8 || e.Pending() != 1 {
		t.Fatalf("a refused reschedule moved the event: PeekTime %v, Pending %d", e.PeekTime(), e.Pending())
	}
	mustReschedule(t, e, id, 3) // now itself is legal
	drain(t, e)
	if want := []int{0, 1}; !equalInts(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
}
