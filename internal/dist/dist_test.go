package dist

import (
	"math"
	"testing"
	"testing/quick"

	"goodenough/internal/power"
	"goodenough/internal/rng"
)

func TestEqualShare(t *testing.T) {
	shares := new(Filler).EqualShare(320, 16)
	if len(shares) != 16 {
		t.Fatalf("len = %d", len(shares))
	}
	for _, s := range shares {
		if math.Abs(s-20) > 1e-12 {
			t.Fatalf("share = %v, want 20", s)
		}
	}
	if new(Filler).EqualShare(320, 0) != nil {
		t.Fatal("zero cores should give nil")
	}
	for _, s := range new(Filler).EqualShare(-5, 4) {
		if s != 0 {
			t.Fatal("negative budget should clamp to zero shares")
		}
	}
}

func TestWaterFillAllSatisfied(t *testing.T) {
	alloc := new(Filler).WaterFill(100, []float64{10, 20, 30})
	want := []float64{10, 20, 30}
	for i := range want {
		if math.Abs(alloc[i]-want[i]) > 1e-9 {
			t.Fatalf("alloc = %v, want %v", alloc, want)
		}
	}
}

func TestWaterFillLevel(t *testing.T) {
	// Budget 60 over demands {10, 40, 40}: level fills 10 first, then the
	// remaining 50 splits evenly over the two thirsty cores → 25 each.
	alloc := new(Filler).WaterFill(60, []float64{10, 40, 40})
	want := []float64{10, 25, 25}
	for i := range want {
		if math.Abs(alloc[i]-want[i]) > 1e-9 {
			t.Fatalf("alloc = %v, want %v", alloc, want)
		}
	}
}

func TestWaterFillTightBudget(t *testing.T) {
	// Budget 12 over {10, 40, 40}: step to level 10 needs 30 > 12, so the
	// level is 12/3 = 4 for everyone.
	alloc := new(Filler).WaterFill(12, []float64{10, 40, 40})
	for i, a := range alloc {
		if math.Abs(a-4) > 1e-9 {
			t.Fatalf("alloc[%d] = %v, want 4", i, a)
		}
	}
}

func TestWaterFillPreservesOrderMapping(t *testing.T) {
	// The allocation must map back to the original core indices.
	alloc := new(Filler).WaterFill(60, []float64{40, 10, 40})
	want := []float64{25, 10, 25}
	for i := range want {
		if math.Abs(alloc[i]-want[i]) > 1e-9 {
			t.Fatalf("alloc = %v, want %v", alloc, want)
		}
	}
}

func TestWaterFillEdges(t *testing.T) {
	if len(new(Filler).WaterFill(100, nil)) != 0 {
		t.Fatal("empty demands should give empty allocation")
	}
	for _, a := range new(Filler).WaterFill(0, []float64{5, 5}) {
		if a != 0 {
			t.Fatal("zero budget should allocate nothing")
		}
	}
	// Negative demands clamp to zero.
	alloc := new(Filler).WaterFill(10, []float64{-5, 5})
	if alloc[0] != 0 || math.Abs(alloc[1]-5) > 1e-9 {
		t.Fatalf("negative demand handling wrong: %v", alloc)
	}
}

func TestWaterFillFavorsLowDemands(t *testing.T) {
	// The paper's motivation: low demands are satisfied first.
	alloc := new(Filler).WaterFill(50, []float64{5, 100})
	if math.Abs(alloc[0]-5) > 1e-9 {
		t.Fatalf("low demand not fully satisfied: %v", alloc[0])
	}
	if math.Abs(alloc[1]-45) > 1e-9 {
		t.Fatalf("heavy core should get the rest: %v", alloc[1])
	}
}

func TestDistributeHybridSwitch(t *testing.T) {
	demands := []float64{10, 40, 40}
	light := new(Filler).Distribute(PolicyHybrid, 60, demands, false)
	for _, a := range light {
		if math.Abs(a-20) > 1e-9 {
			t.Fatalf("hybrid light should equal-share: %v", light)
		}
	}
	heavy := new(Filler).Distribute(PolicyHybrid, 60, demands, true)
	if math.Abs(heavy[0]-10) > 1e-9 || math.Abs(heavy[1]-25) > 1e-9 {
		t.Fatalf("hybrid heavy should water-fill: %v", heavy)
	}
}

func TestDistributeDispatch(t *testing.T) {
	demands := []float64{10, 20}
	if a := new(Filler).Distribute(PolicyES, 30, demands, true); math.Abs(a[0]-15) > 1e-9 {
		t.Fatalf("ES dispatch wrong: %v", a)
	}
	if a := new(Filler).Distribute(PolicyWF, 30, demands, false); math.Abs(a[0]-10) > 1e-9 || math.Abs(a[1]-20) > 1e-9 {
		t.Fatalf("WF dispatch wrong: %v", a)
	}
}

func TestDistributeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy did not panic")
		}
	}()
	new(Filler).Distribute(Policy(99), 10, []float64{1}, false)
}

func TestPolicyString(t *testing.T) {
	names := map[Policy]string{
		PolicyES: "equal-sharing", PolicyWF: "water-filling",
		PolicyHybrid: "hybrid",
		Policy(9):    "policy(9)",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

// Property: water-filling never exceeds the budget, never exceeds any
// core's demand, and fully spends the budget whenever total demand >= H.
func TestWaterFillConservationProperty(t *testing.T) {
	r := rng.New(1)
	prop := func(hRaw uint16, n uint8) bool {
		m := 1 + int(n%16)
		h := float64(hRaw%400) + 1
		demands := make([]float64, m)
		total := 0.0
		for i := range demands {
			demands[i] = r.Float64() * 60
			total += demands[i]
		}
		alloc := new(Filler).WaterFill(h, demands)
		sum := 0.0
		for i, a := range alloc {
			if a < -1e-9 || a > demands[i]+1e-9 {
				return false
			}
			sum += a
		}
		if sum > h+1e-6 {
			return false
		}
		if total >= h && math.Abs(sum-h) > 1e-6 {
			return false // should exhaust the budget
		}
		if total < h && math.Abs(sum-total) > 1e-6 {
			return false // should satisfy everyone exactly
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the water level is flat — all cores that did not reach their
// demand receive the same allocation.
func TestWaterFillFlatLevelProperty(t *testing.T) {
	r := rng.New(2)
	prop := func(hRaw uint16) bool {
		m := 8
		h := float64(hRaw%300) + 1
		demands := make([]float64, m)
		for i := range demands {
			demands[i] = r.Float64() * 60
		}
		alloc := new(Filler).WaterFill(h, demands)
		level := -1.0
		for i, a := range alloc {
			if a < demands[i]-1e-6 { // unsatisfied
				if level < 0 {
					level = a
				} else if math.Abs(a-level) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRectifyDiscreteRoundsUpWithinBudget(t *testing.T) {
	m := power.Default()
	ladder, _ := power.NewLadder([]float64{1, 2, 3})
	// Continuous allocation implies speeds {1.2, 1.2}: rounding both up to
	// 2 GHz costs 40 W total.
	alloc := []float64{m.Power(1.2), m.Power(1.2)}
	speeds, draw := new(Filler).RectifyDiscrete(m, ladder, 40, alloc)
	for i, s := range speeds {
		if s != 2 {
			t.Fatalf("speed[%d] = %v, want 2 (round up)", i, s)
		}
		if math.Abs(draw[i]-20) > 1e-9 {
			t.Fatalf("draw[%d] = %v, want 20", i, draw[i])
		}
	}
}

func TestRectifyDiscreteFallsBackDown(t *testing.T) {
	m := power.Default()
	ladder, _ := power.NewLadder([]float64{1, 2, 3})
	// Budget 25 W: first core (lowest alloc) rounds 1.2→2 (20 W), second
	// cannot afford 2 GHz (20 W > 5 left) so it drops to 1 GHz (5 W).
	alloc := []float64{m.Power(1.2), m.Power(1.3)}
	speeds, _ := new(Filler).RectifyDiscrete(m, ladder, 25, alloc)
	if speeds[0] != 2 || speeds[1] != 1 {
		t.Fatalf("speeds = %v, want [2 1]", speeds)
	}
}

func TestRectifyDiscreteLowestFirst(t *testing.T) {
	m := power.Default()
	ladder, _ := power.NewLadder([]float64{1, 2, 3})
	// Paper: start from the LOWEST assigned power. Budget 25 W with
	// allocations implying 1.3 (higher) and 1.2 (lower): the 1.2 core is
	// visited first and gets 2 GHz; the 1.3 core falls to 1 GHz.
	alloc := []float64{m.Power(1.3), m.Power(1.2)}
	speeds, _ := new(Filler).RectifyDiscrete(m, ladder, 25, alloc)
	if speeds[1] != 2 || speeds[0] != 1 {
		t.Fatalf("speeds = %v, want [1 2] (lowest alloc first)", speeds)
	}
}

func TestRectifyDiscreteIdleCoreStaysIdle(t *testing.T) {
	m := power.Default()
	ladder, _ := power.NewLadder([]float64{1, 2})
	speeds, draw := new(Filler).RectifyDiscrete(m, ladder, 100, []float64{0, m.Power(1.5)})
	if speeds[0] != 0 || draw[0] != 0 {
		t.Fatalf("idle core got speed %v", speeds[0])
	}
	if speeds[1] != 2 {
		t.Fatalf("active core speed = %v, want 2", speeds[1])
	}
}

func TestRectifyDiscreteNilLadderIsContinuous(t *testing.T) {
	m := power.Default()
	speeds, draw := new(Filler).RectifyDiscrete(m, nil, 100, []float64{20, 45})
	if math.Abs(speeds[0]-2) > 1e-9 || math.Abs(speeds[1]-3) > 1e-9 {
		t.Fatalf("continuous speeds = %v", speeds)
	}
	if math.Abs(draw[0]-20) > 1e-9 || math.Abs(draw[1]-45) > 1e-9 {
		t.Fatalf("continuous draw = %v", draw)
	}
}

// Property: rectified draw never exceeds the budget.
func TestRectifyBudgetProperty(t *testing.T) {
	m := power.Default()
	ladder, _ := power.UniformLadder(3.2, 16)
	r := rng.New(3)
	prop := func(hRaw uint16) bool {
		h := float64(hRaw%400) + 10
		alloc := new(Filler).WaterFill(h, []float64{
			r.Float64() * 50, r.Float64() * 50, r.Float64() * 50, r.Float64() * 50,
		})
		_, draw := new(Filler).RectifyDiscrete(m, ladder, h, alloc)
		return draw[0]+draw[1]+draw[2]+draw[3] <= h+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWaterFill(b *testing.B) {
	r := rng.New(1)
	demands := make([]float64, 16)
	for i := range demands {
		demands[i] = r.Float64() * 60
	}
	var f Filler
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.WaterFill(320, demands)
	}
}
