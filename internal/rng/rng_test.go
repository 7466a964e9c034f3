package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child must not replay the parent stream.
	p := New(7)
	p.Uint64() // Split consumed one draw
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("child stream mirrors parent at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]int)
	for i := 0; i < 60000; i++ {
		v := r.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn(6) out of range: %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 6; v++ {
		if seen[v] < 8000 || seen[v] > 12000 {
			t.Fatalf("Intn(6) skewed: value %d appeared %d/60000 times", v, seen[v])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(9)
	const rate = 150.0 // paper's default arrival rate regime
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
		sum += v
	}
	mean := sum / n
	want := 1 / rate
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("Exp mean = %v, want ~%v", mean, want)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestUniformRange(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(0.15, 0.5)
		if v < 0.15 || v >= 0.5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	r := New(4)
	if v := r.Uniform(2, 2); v != 2 {
		t.Fatalf("Uniform(2,2) = %v, want 2", v)
	}
}

func TestBoundedParetoRange(t *testing.T) {
	r := New(6)
	for i := 0; i < 100000; i++ {
		v := NewPareto(3, 130, 1000).Sample(r)
		if v < 130 || v > 1000 {
			t.Fatalf("BoundedPareto out of [130,1000]: %v", v)
		}
	}
}

func TestBoundedParetoMeanMatchesPaper(t *testing.T) {
	// The paper states the mean service demand is ~192 processing units for
	// alpha=3, xmin=130, xmax=1000.
	m := BoundedParetoMean(3, 130, 1000)
	if math.Abs(m-192) > 1 {
		t.Fatalf("analytic bounded Pareto mean = %v, paper says ~192", m)
	}
}

func TestBoundedParetoEmpiricalMean(t *testing.T) {
	r := New(8)
	const n = 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += NewPareto(3, 130, 1000).Sample(r)
	}
	mean := sum / n
	want := BoundedParetoMean(3, 130, 1000)
	if math.Abs(mean-want)/want > 0.01 {
		t.Fatalf("empirical mean %v differs from analytic %v", mean, want)
	}
}

func TestBoundedParetoDegenerate(t *testing.T) {
	r := New(1)
	if v := NewPareto(3, 100, 100).Sample(r); v != 100 {
		t.Fatalf("degenerate bounded Pareto = %v, want 100", v)
	}
}

func TestBoundedParetoSkew(t *testing.T) {
	// Pareto with alpha=3 is right-skewed: the median must sit below the
	// mean.
	r := New(10)
	const n = 100001
	vals := make([]float64, n)
	sum := 0.0
	for i := range vals {
		vals[i] = NewPareto(3, 130, 1000).Sample(r)
		sum += vals[i]
	}
	mean := sum / n
	below := 0
	for _, v := range vals {
		if v < mean {
			below++
		}
	}
	if float64(below)/n < 0.55 {
		t.Fatalf("expected right-skewed distribution, only %d/%d below mean", below, n)
	}
}

// Property: BoundedPareto stays within its bounds for arbitrary valid
// parameterizations.
func TestBoundedParetoBoundsProperty(t *testing.T) {
	r := New(15)
	f := func(a, lo, span uint8) bool {
		alpha := 0.5 + float64(a%40)/10 // 0.5 .. 4.4
		xmin := 1 + float64(lo)
		xmax := xmin + float64(span)
		v := NewPareto(alpha, xmin, xmax).Sample(r)
		return v >= xmin && v <= xmax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Exp is non-negative for arbitrary positive rates.
func TestExpNonNegativeProperty(t *testing.T) {
	r := New(16)
	f := func(k uint16) bool {
		rate := 0.001 + float64(k)/100
		return r.Exp(rate) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkBoundedPareto(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += NewPareto(3, 130, 1000).Sample(r)
	}
	_ = sink
}

func TestUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(hi<lo) did not panic")
		}
	}()
	New(1).Uniform(5, 2)
}

func TestBoundedParetoPanics(t *testing.T) {
	cases := [][3]float64{{0, 1, 2}, {1, 0, 2}, {1, 5, 2}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BoundedPareto(%v) did not panic", c)
				}
			}()
			NewPareto(c[0], c[1], c[2]).Sample(New(1))
		}()
	}
}

func TestBoundedParetoMeanAlphaOne(t *testing.T) {
	// The α=1 branch has its own closed form; validate by Monte Carlo.
	want := BoundedParetoMean(1, 100, 1000)
	r := New(20)
	const n = 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += NewPareto(1, 100, 1000).Sample(r)
	}
	got := sum / n
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("alpha=1 mean: analytic %v vs empirical %v", want, got)
	}
}
