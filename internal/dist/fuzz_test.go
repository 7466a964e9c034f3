package dist

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"goodenough/internal/power"
)

// waterFillRef is WaterFill as it was before its insertion sort: the
// (index, demand) pairs sorted with slices.SortStableFunc. The fuzz target
// and TestWaterFillMatchesStableSortRandom check the insertion sort
// against it bit for bit.
func waterFillRef(h float64, demands []float64) []float64 {
	m := len(demands)
	alloc := make([]float64, m)
	if m == 0 || h <= 0 {
		return alloc
	}
	cores := make([]wfPair, 0, m)
	for i, d := range demands {
		if d < 0 {
			d = 0
		}
		cores = append(cores, wfPair{idx: i, demand: d})
	}
	slices.SortStableFunc(cores, func(a, b wfPair) int {
		switch {
		case a.demand < b.demand:
			return -1
		case a.demand > b.demand:
			return 1
		default:
			return 0
		}
	})
	remaining := h
	for i := 0; i < m; i++ {
		prev := 0.0
		if i > 0 {
			prev = cores[i-1].demand
		}
		step := cores[i].demand - prev
		need := step * float64(m-i)
		if need <= remaining {
			remaining -= need
			continue
		}
		level := prev + remaining/float64(m-i)
		for k := i; k < m; k++ {
			alloc[cores[k].idx] = level
		}
		for k := 0; k < i; k++ {
			alloc[cores[k].idx] = cores[k].demand
		}
		return alloc
	}
	for _, c := range cores {
		alloc[c.idx] = c.demand
	}
	return alloc
}

// fuzzDemands decodes one demand per byte on a coarse signed grid (-40 to
// 37.5 W in steps of 2.5), so ties, zeros and negative demands are common.
func fuzzDemands(raw []byte) []float64 {
	demands := make([]float64, len(raw))
	for i, b := range raw {
		demands[i] = float64(int8(b)>>3) * 2.5
	}
	return demands
}

// checkWaterFill runs WaterFill on a Filler whose scratch holds a previous
// call's pairs, and checks it against the reference bit for bit, and for
// conservation and cap-respect (a negative demand counts as zero).
func checkWaterFill(t *testing.T, h float64, demands []float64) {
	t.Helper()
	var f Filler
	stale := slices.Clone(demands)
	slices.Reverse(stale)
	f.WaterFill(h+1, stale) // leave stale scratch behind
	alloc := f.WaterFill(h, demands)
	want := waterFillRef(h, demands)
	if len(alloc) != len(demands) {
		t.Fatalf("allocation length %d != %d", len(alloc), len(demands))
	}
	total, sum := 0.0, 0.0
	for i, a := range alloc {
		if math.Float64bits(a) != math.Float64bits(want[i]) {
			t.Fatalf("core %d: allocation %v, reference %v (h %v, demands %v)", i, a, want[i], h, demands)
		}
		if math.IsNaN(a) {
			t.Fatal("NaN allocation")
		}
		if a < -1e-9 {
			t.Fatalf("negative allocation %v", a)
		}
		d := max(demands[i], 0)
		if a > d+1e-9 {
			t.Fatalf("allocation %v exceeds demand %v", a, demands[i])
		}
		total += d
		sum += a
	}
	if sum > h+1e-6 {
		t.Fatalf("allocated %v of budget %v", sum, h)
	}
	if h > 0 && total >= h && len(demands) > 0 && math.Abs(sum-h) > 1e-6 {
		t.Fatalf("scarce budget not exhausted: %v of %v", sum, h)
	}
	if h > 0 && total < h && math.Abs(sum-total) > 1e-6 {
		t.Fatalf("ample budget should satisfy all: %v vs %v", sum, total)
	}
}

// FuzzWaterFill checks conservation, cap-respect, and bit-identity with
// the stable-sort reference for arbitrary demand vectors (1 to 64 cores,
// with ties, zeros and negative demands) and budgets.
func FuzzWaterFill(f *testing.F) {
	f.Add(uint16(320), []byte{80, 96, 96})
	f.Add(uint16(0), []byte{40})
	f.Add(uint16(1000), []byte{})
	f.Add(uint16(12), []byte{80, 96, 96, 0, 0})
	f.Add(uint16(90), []byte{200, 8, 8, 255, 16, 16, 0, 127, 8})
	f.Fuzz(func(t *testing.T, hRaw uint16, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		checkWaterFill(t, float64(hRaw%4096)/2, fuzzDemands(raw))
	})
}

// TestWaterFillMatchesStableSortRandom replays random inputs on every test
// run, so the reference check does not depend on anyone invoking -fuzz.
func TestWaterFillMatchesStableSortRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		raw := make([]byte, 1+rng.Intn(64))
		for i := range raw {
			raw[i] = byte(rng.Intn(256))
		}
		checkWaterFill(t, float64(rng.Intn(4096))/2, fuzzDemands(raw))
	}
}

// FuzzRectifyDiscrete checks the budget invariant of discrete
// rectification for arbitrary allocations.
func FuzzRectifyDiscrete(f *testing.F) {
	f.Add(uint16(320), []byte{20, 20, 45})
	f.Add(uint16(25), []byte{7, 8})
	f.Fuzz(func(t *testing.T, hRaw uint16, raw []byte) {
		if len(raw) > 32 {
			raw = raw[:32]
		}
		h := float64(hRaw) / 2
		alloc := make([]float64, len(raw))
		for i, b := range raw {
			alloc[i] = float64(b)
		}
		m := powerDefault()
		ladder := defaultLadder()
		speeds, draw := new(Filler).RectifyDiscrete(m, ladder, h, alloc)
		used := 0.0
		for i := range speeds {
			if speeds[i] < 0 {
				t.Fatal("negative rectified speed")
			}
			// Up returns a ladder level unchanged and anything else raised.
			if up, _ := ladder.Up(speeds[i]); speeds[i] > 0 && up != speeds[i] {
				t.Fatalf("speed %v not on the ladder", speeds[i])
			}
			used += draw[i]
		}
		if used > h+1e-6 {
			t.Fatalf("rectified draw %v exceeds budget %v", used, h)
		}
	})
}

func powerDefault() power.Model { return power.Default() }

func defaultLadder() *power.Ladder {
	l, err := power.UniformLadder(3.2, 16)
	if err != nil {
		panic(err)
	}
	return l
}
