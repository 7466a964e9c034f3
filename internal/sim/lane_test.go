package sim

import (
	"math"
	"testing"
)

// laneRecorder returns an engine that records each delivered event's Ref.
func laneRecorder() (*Engine, *[]int) {
	var got []int
	eng := NewEngine(func(e *Event) error {
		got = append(got, e.Ref)
		return nil
	})
	return eng, &got
}

// wantRefs fails the test unless the delivered refs equal want.
func wantRefs(t *testing.T, got []int, want ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered refs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered refs %v, want %v", got, want)
		}
	}
}

// TestLaneTiesHeapOnTimePriorityDecides: at one instant, a lane event and a
// heap event deliver by priority, whichever was issued first.
func TestLaneTiesHeapOnTimePriorityDecides(t *testing.T) {
	eng, got := laneRecorder()
	eng.ScheduleWithPriority(1, KindQuantum, 0, int(KindQuantum)) // heap, priority 1, seq 0
	if err := eng.Post(1, KindArrival, -1, 1); err != nil {       // lane, priority 0, seq 1
		t.Fatal(err)
	}
	if err := eng.Post(2, KindQuantum, -1, 2); err != nil { // lane, priority 1, seq 2
		t.Fatal(err)
	}
	eng.ScheduleWithPriority(2, KindArrival, 3, int(KindArrival)) // heap, priority 0, seq 3
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wantRefs(t, *got, 1, 0, 3, 2)
}

// TestLaneTiesHeapOnTimeAndPrioritySeqDecides: on a tie in time and
// priority, issue order decides across heap and lane.
func TestLaneTiesHeapOnTimeAndPrioritySeqDecides(t *testing.T) {
	eng, got := laneRecorder()
	for i := 0; i < 8; i++ {
		if i%3 == 0 {
			eng.ScheduleWithPriority(1, KindArrival, i, int(KindArrival))
		} else if err := eng.Post(1, KindArrival, -1, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wantRefs(t, *got, 0, 1, 2, 3, 4, 5, 6, 7)
}

// TestPostOutOfOrderRejected: a post before the last pending post (in time,
// or at its instant with a lower priority) or before now is an error, and a
// refused post queues nothing and consumes no seq.
func TestPostOutOfOrderRejected(t *testing.T) {
	eng, got := laneRecorder()
	if err := eng.Post(2, KindQuantum, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Post(1.5, KindQuantum, -1, 99); err == nil {
		t.Fatal("post before the last post accepted")
	}
	if err := eng.Post(2, KindArrival, -1, 99); err == nil {
		t.Fatal("post at the last post's instant with a lower priority accepted")
	}
	if eng.Pending() != 1 {
		t.Fatalf("Pending = %d after refused posts, want 1", eng.Pending())
	}
	// Had a refused post consumed a seq, this heap event would still order
	// after the lane event; it must order by seq right behind it.
	eng.ScheduleWithPriority(2, KindQuantum, 1, int(KindQuantum))
	if err := eng.Post(2, KindQuantum, -1, 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wantRefs(t, *got, 0, 1, 2)
	if err := eng.Post(1, KindArrival, -1, 3); err == nil {
		t.Fatalf("post at 1 before now %v accepted", eng.Now())
	}
	// With the lane drained, any post at or after now is in order.
	if err := eng.Post(2, KindArrival, -1, 3); err != nil {
		t.Fatalf("post at now after the lane drained: %v", err)
	}
}

func TestPostNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaN time did not panic")
		}
	}()
	NewEngine(func(*Event) error { return nil }).Post(math.NaN(), KindArrival, -1, -1)
}

// TestLaneVisibleToQueueAPI: Pending, PeekTime, step, RunUntil and Run all
// see lane events, which count in Processed and carry their payload.
func TestLaneVisibleToQueueAPI(t *testing.T) {
	var last Event
	eng := NewEngine(func(e *Event) error {
		last = *e
		return nil
	})
	for i, at := range []float64{1, 2, 3, 4, 5} {
		if err := eng.Post(at, KindArrival, 10+i, i); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Pending() != 5 || eng.PeekTime() != 1 {
		t.Fatalf("Pending %d PeekTime %v, want 5 and 1", eng.Pending(), eng.PeekTime())
	}
	eng.Schedule(2.5, KindQuantum)
	if eng.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6", eng.Pending())
	}
	ok, err := step(eng)
	if !ok || err != nil || last.Time != 1 || last.Kind != KindArrival || last.Core != 10 || last.Ref != 0 {
		t.Fatalf("step = %v, %v delivering %+v, want the lane event at 1", ok, err, last)
	}
	if err := eng.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 2.5 || eng.Processed != 3 || eng.Pending() != 3 || eng.PeekTime() != 3 {
		t.Fatalf("after RunUntil(3): now %v processed %d pending %d peek %v, want 2.5 3 3 3",
			eng.Now(), eng.Processed, eng.Pending(), eng.PeekTime())
	}
	eng.Schedule(3.5, KindQuantum)
	if eng.PeekTime() != 3 {
		t.Fatalf("PeekTime = %v, want the lane head at 3", eng.PeekTime())
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 5 || eng.Processed != 7 || eng.Pending() != 0 || !math.IsInf(eng.PeekTime(), 1) {
		t.Fatalf("after Run: now %v processed %d pending %d peek %v", eng.Now(), eng.Processed,
			eng.Pending(), eng.PeekTime())
	}
	if ok, err := step(eng); ok || err != nil {
		t.Fatalf("step on an empty queue = %v, %v", ok, err)
	}
}

// TestLaneGrowsPastItsRing: posts interleaved with deliveries wrap the ring
// and grow it while entries are pending, without losing order.
func TestLaneGrowsPastItsRing(t *testing.T) {
	eng, got := laneRecorder()
	next, want := 0, []int{}
	for round := 0; round < 6; round++ {
		for i := 0; i < 50*(round+1); i++ {
			if err := eng.Post(float64(next), KindArrival, -1, next); err != nil {
				t.Fatal(err)
			}
			want = append(want, next)
			next++
		}
		if err := eng.RunUntil(float64(next - 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wantRefs(t, *got, want...)
}
