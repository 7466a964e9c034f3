package cluster

import (
	"reflect"
	"testing"
)

// testView builds a fleet view through the same update methods the fleet
// uses: per-machine eligibility, queued work, idleness and capacity.
func testView(eligible []bool, queued []float64, idle []bool, capacity []float64) *View {
	v := newView(len(eligible))
	for m := range eligible {
		setMachine(&v, m, queued[m], idle[m], capacity[m])
		v.setEligible(m, eligible[m])
	}
	return &v
}

// setMachine refreshes one machine's load signals in v.
func setMachine(v *View, m int, queued float64, idle bool, capacity float64) {
	n := 0
	if idle {
		n = 1
	}
	v.set(m, queued, n, capacity)
}

func TestNewDispatcherNames(t *testing.T) {
	for _, name := range Policies() {
		d, err := NewDispatcher(name, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "p2c" {
			if d.Name() != "p2c" {
				t.Fatalf("p2c named %q", d.Name())
			}
		} else if d.Name() != name {
			t.Fatalf("policy %q reports name %q", name, d.Name())
		}
	}
	if _, err := NewDispatcher("oracle", 2, 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if d, _ := NewDispatcher("p2c", 5, 1); d.Name() != "p5c" {
		t.Fatalf("k=5 dispatcher named %q, want p5c", d.Name())
	}
}

func TestRoundRobinSkipsUnreachable(t *testing.T) {
	d, _ := NewDispatcher("rr", 2, 1)
	d.Reset()
	v := testView(
		[]bool{true, false, true},
		[]float64{0, 0, 0},
		[]bool{true, true, true},
		[]float64{1, 1, 1},
	)
	var picks []int
	for i := 0; i < 4; i++ {
		m, _, ok := d.Pick(v)
		if !ok {
			t.Fatal("no pick despite eligible machines")
		}
		picks = append(picks, m)
	}
	if want := []int{0, 2, 0, 2}; !reflect.DeepEqual(picks, want) {
		t.Fatalf("rr picks = %v, want %v", picks, want)
	}
	v.setEligible(0, false)
	v.setEligible(2, false)
	if _, _, ok := d.Pick(v); ok {
		t.Fatal("picked a machine with none eligible")
	}
}

func TestLeastLoadedPicksMinimum(t *testing.T) {
	d, _ := NewDispatcher("least-loaded", 2, 1)
	v := testView(
		[]bool{true, true, true},
		[]float64{5, 2, 9},
		[]bool{false, false, false},
		[]float64{1, 1, 1},
	)
	m, score, ok := d.Pick(v)
	if !ok || m != 1 || score != 2 {
		t.Fatalf("pick = (%d, %v, %v), want machine 1 at load 2", m, score, ok)
	}
	v.setEligible(1, false)
	if m, _, _ := d.Pick(v); m != 0 {
		t.Fatalf("pick = %d with machine 1 unreachable, want 0", m)
	}
}

func TestPowerOfKPrefersIdleAndInvalidatesLazily(t *testing.T) {
	d, _ := NewDispatcher("p2c", 2, 1)
	d.Reset()
	v := testView(
		[]bool{true, true, true},
		[]float64{4, 1, 3},
		[]bool{false, true, false},
		[]float64{1, 1, 1},
	)
	n := d.(idleNotifier)
	n.NoteIdle(1)
	n.NoteIdle(2)
	n.NoteIdle(2) // duplicate must not double-enter the heap

	// Machine 1 is idle and first in the heap.
	if m, _, ok := d.Pick(v); !ok || m != 1 {
		t.Fatalf("pick = %d, want idle machine 1", m)
	}
	// Machine 2's idleness went stale: the pop must re-check the live view
	// and fall through to sampling instead of routing on stale state.
	setMachine(v, 1, 1, false, 1)
	m, _, ok := d.Pick(v)
	if !ok {
		t.Fatal("no pick despite eligible machines")
	}
	if v.HasIdleCore(m) {
		t.Fatalf("sampled pick %d claims idleness the view does not show", m)
	}
}

func TestPowerOfKDeterministicSampling(t *testing.T) {
	v := testView(
		[]bool{true, true, true, true, true},
		[]float64{5, 4, 3, 2, 1},
		[]bool{false, false, false, false, false},
		[]float64{1, 1, 1, 1, 1},
	)
	run := func() []int {
		d, _ := NewDispatcher("p2c", 2, 77)
		d.Reset()
		var picks []int
		for i := 0; i < 16; i++ {
			m, _, ok := d.Pick(v)
			if !ok {
				t.Fatal("no pick")
			}
			picks = append(picks, m)
		}
		return picks
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed sampled differently:\n%v\n%v", a, b)
	}
}

func TestIdealWeighsDegradedCapacity(t *testing.T) {
	d, _ := NewDispatcher("ideal", 2, 1)
	// Machine 0 has less queued work, but machine 1 drains faster: 4/1 = 4
	// vs 6/3 = 2. Only the omniscient baseline sees the capacities.
	v := testView(
		[]bool{true, true},
		[]float64{4, 6},
		[]bool{false, false},
		[]float64{1, 3},
	)
	if m, _, _ := d.Pick(v); m != 1 {
		t.Fatalf("ideal picked %d, want 1 (shorter drain time)", m)
	}
	// A zero-capacity machine (all cores dead but not crashed) is a last
	// resort, never preferred.
	setMachine(v, 0, 4, false, 0)
	if m, _, _ := d.Pick(v); m != 1 {
		t.Fatalf("ideal picked zero-capacity machine %d", m)
	}
}
