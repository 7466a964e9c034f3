package job

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDefaults(t *testing.T) {
	j := New(7, 1.0, 1.15, 500)
	if j.ID != 7 || j.Release != 1.0 || j.Deadline != 1.15 || j.Demand != 500 {
		t.Fatalf("constructor lost fields: %v", j)
	}
	if j.Target != 500 {
		t.Fatalf("target should start at demand, got %v", j.Target)
	}
	if j.Core != -1 || j.State != StateWaiting {
		t.Fatalf("job should start waiting and unassigned: %v", j)
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	if err := New(1, 2, 1, 100).Validate(); err == nil {
		t.Error("deadline before release accepted")
	}
	bad := New(1, 0, 1, 100)
	bad.Demand = -5
	if err := bad.Validate(); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestRemaining(t *testing.T) {
	j := New(1, 0, 0.15, 400)
	if j.Remaining() != 400 {
		t.Fatalf("fresh remaining = %v", j.Remaining())
	}
	j.Advance(150)
	if j.Remaining() != 250 {
		t.Fatalf("remaining after 150 = %v", j.Remaining())
	}
	j.SetTarget(200)
	if j.Remaining() != 50 {
		t.Fatalf("remaining after cut to 200 = %v", j.Remaining())
	}
}

func TestSetTargetClamps(t *testing.T) {
	j := New(1, 0, 0.15, 400)
	j.Advance(100)
	j.SetTarget(50) // below processed → clamps up
	if j.Target != 100 {
		t.Fatalf("target below processed should clamp to processed, got %v", j.Target)
	}
	j.SetTarget(900) // above demand → clamps down
	if j.Target != 400 {
		t.Fatalf("target above demand should clamp to demand, got %v", j.Target)
	}
}

func TestCutCount(t *testing.T) {
	j := New(1, 0, 0.15, 400)
	j.SetTarget(300)
	j.SetTarget(200)
	j.SetTarget(250) // raise, not a cut
	if j.CutCount != 2 {
		t.Fatalf("cut count = %d, want 2", j.CutCount)
	}
}

func TestRestoreTarget(t *testing.T) {
	j := New(1, 0, 0.15, 400)
	j.SetTarget(100)
	j.RestoreTarget()
	if j.Target != 400 {
		t.Fatalf("restore target = %v, want 400", j.Target)
	}
}

func TestAdvanceClamps(t *testing.T) {
	j := New(1, 0, 0.15, 400)
	if got := j.Advance(-5); got != 0 {
		t.Fatalf("negative advance applied %v", got)
	}
	if got := j.Advance(350); got != 350 {
		t.Fatalf("advance applied %v, want 350", got)
	}
	if got := j.Advance(100); got != 50 {
		t.Fatalf("overshoot advance applied %v, want 50", got)
	}
	if j.Processed != 400 {
		t.Fatalf("processed = %v, want 400", j.Processed)
	}
}

func TestDone(t *testing.T) {
	j := New(1, 0, 0.15, 400)
	j.SetTarget(200)
	if j.Done() {
		t.Fatal("fresh cut job should not be done")
	}
	j.Advance(200)
	if !j.Done() {
		t.Fatal("job at target should be done")
	}
	if j.Expired(0.1) {
		t.Fatal("job should not be expired before deadline")
	}
	if !j.Expired(0.15) {
		t.Fatal("job should be expired at deadline")
	}
}

func mk(id int, release, deadline, demand float64) *Job {
	return New(id, release, deadline, demand)
}

func TestSortEDF(t *testing.T) {
	jobs := []*Job{
		mk(3, 0.2, 0.40, 100),
		mk(1, 0.0, 0.15, 100),
		mk(2, 0.1, 0.15, 100), // same deadline, later release
		mk(4, 0.3, 0.35, 100),
	}
	SortEDF(jobs)
	order := []int{1, 2, 4, 3}
	for i, want := range order {
		if jobs[i].ID != want {
			t.Fatalf("EDF order = %v at %d, want %v", jobs[i].ID, i, order)
		}
	}
}

func TestFIFO(t *testing.T) {
	var q FIFO
	if q.Len() != 0 {
		t.Fatal("fresh queue not empty")
	}
	for i := 1; i <= 3; i++ {
		q.Push(mk(i, float64(i), float64(i)+1, 100))
	}
	if q.Len() != 3 {
		t.Fatalf("queue len = %d", q.Len())
	}
	got := q.AppendDrain(nil)
	if len(got) != 3 || got[0].ID != 1 || got[2].ID != 3 {
		t.Fatalf("drain order wrong: %v", got)
	}
	if q.Len() != 0 {
		t.Fatal("drain did not empty queue")
	}
}

func TestFIFOPopJob(t *testing.T) {
	var q FIFO
	jobs := make([]*Job, 4)
	for i := range jobs {
		jobs[i] = mk(i+1, 0, 1, float64((i+1)*100))
		q.Push(jobs[i])
	}
	j := q.PopJob(jobs[2])
	if j == nil || j.ID != 3 {
		t.Fatalf("PopJob returned %v", j)
	}
	if q.Len() != 3 {
		t.Fatalf("queue len after pop = %d", q.Len())
	}
	if q.PopJob(jobs[2]) != nil {
		t.Fatal("PopJob should return nil when the job is not queued")
	}
}

func TestFIFOPopBest(t *testing.T) {
	var q FIFO
	if q.PopBest(func(j *Job) float64 { return 0 }) != nil {
		t.Fatal("PopBest on empty queue should return nil")
	}
	q.Push(mk(1, 0, 0.5, 300))
	q.Push(mk(2, 0, 0.2, 500))
	q.Push(mk(3, 0, 0.2, 100))
	// Earliest deadline: job 2 queued before job 3 with equal deadline.
	j := q.PopBest(func(j *Job) float64 { return j.Deadline })
	if j.ID != 2 {
		t.Fatalf("PopBest earliest-deadline = J%d, want J2 (stable tie)", j.ID)
	}
	// Smallest demand among the rest: job 3.
	j = q.PopBest(func(j *Job) float64 { return j.Demand })
	if j.ID != 3 {
		t.Fatalf("PopBest smallest-demand = J%d, want J3", j.ID)
	}
	if q.Len() != 1 {
		t.Fatalf("queue len = %d, want 1", q.Len())
	}
}

// Property: Advance never pushes Processed beyond Demand and always returns
// the applied delta.
func TestAdvanceInvariantProperty(t *testing.T) {
	prop := func(steps []uint16) bool {
		j := New(1, 0, 1, 1000)
		total := 0.0
		for _, s := range steps {
			total += j.Advance(float64(s) / 10)
		}
		return j.Processed <= j.Demand+1e-9 && math.Abs(total-j.Processed) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: SetTarget keeps the invariant Processed <= Target <= Demand.
func TestTargetInvariantProperty(t *testing.T) {
	prop := func(adv, tgt uint16) bool {
		j := New(1, 0, 1, 1000)
		j.Advance(float64(adv % 1001))
		j.SetTarget(float64(tgt % 2000))
		return j.Target >= j.Processed && j.Target <= j.Demand
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	if StateWaiting.String() != "waiting" ||
		StateAssigned.String() != "assigned" ||
		StateFinalized.String() != "finalized" {
		t.Fatal("state strings wrong")
	}
	if State(42).String() != "state(42)" {
		t.Fatal("unknown state string wrong")
	}
}

func TestStringFormat(t *testing.T) {
	j := New(3, 0.5, 0.65, 400)
	s := j.String()
	for _, want := range []string{"J3", "0.500", "0.650", "400", "waiting"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestPeek(t *testing.T) {
	var q FIFO
	if q.Peek() != nil {
		t.Fatal("empty peek should be nil")
	}
	q.Push(mk(1, 0, 1, 100))
	q.Push(mk(2, 0, 1, 100))
	peeked := q.Peek()
	if len(peeked) != 2 || peeked[0].ID != 1 {
		t.Fatalf("peek = %v", peeked)
	}
	if q.Len() != 2 {
		t.Fatal("peek must not consume")
	}
}

func TestSortTieBreakers(t *testing.T) {
	// EDF with equal deadlines AND equal releases breaks by ID.
	jobs := []*Job{mk(9, 0, 1, 100), mk(2, 0, 1, 100)}
	SortEDF(jobs)
	if jobs[0].ID != 2 {
		t.Fatal("EDF ID tie-break wrong")
	}
}

func TestRemainingNeverNegative(t *testing.T) {
	j := New(1, 0, 1, 100)
	j.Advance(100)
	j.Target = 40 // force below processed, bypassing SetTarget
	if j.Remaining() != 0 {
		t.Fatalf("Remaining = %v, want clamp to 0", j.Remaining())
	}
}
