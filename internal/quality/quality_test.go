package quality

import (
	"math"
	"testing"
	"testing/quick"
)

// xmax is the paper's saturation volume, which every family in
// allFamilies shares.
const xmax = 1000.0

// allFamilies returns one instance of each quality family with the paper's
// saturation volume.
func allFamilies() []Function {
	return []Function{
		NewExponential(0.003, 1000),
		NewExponential(0.0005, 1000),
		NewExponential(0.009, 1000),
		NewLogarithmic(0.01, 1000),
		NewPowerLaw(0.5, 1000),
		NewLinear(1000),
	}
}

func TestValueBounds(t *testing.T) {
	for _, f := range allFamilies() {
		if got := f.Value(0); got != 0 {
			t.Errorf("%s: Value(0) = %v, want 0", f.Name(), got)
		}
		if got := f.Value(-5); got != 0 {
			t.Errorf("%s: Value(-5) = %v, want 0", f.Name(), got)
		}
		if got := f.Value(xmax); math.Abs(got-1) > 1e-12 {
			t.Errorf("%s: Value(xmax) = %v, want 1", f.Name(), got)
		}
		if got := f.Value(xmax * 10); got != 1 {
			t.Errorf("%s: Value(10*xmax) = %v, want 1 (clamp)", f.Name(), got)
		}
	}
}

func TestValueMonotone(t *testing.T) {
	for _, f := range allFamilies() {
		prev := -1.0
		for x := 0.0; x <= xmax; x += xmax / 500 {
			v := f.Value(x)
			if v < prev-1e-12 {
				t.Fatalf("%s: not monotone at x=%v: %v < %v", f.Name(), x, v, prev)
			}
			prev = v
		}
	}
}

func TestValueConcave(t *testing.T) {
	// Midpoint concavity: f((a+b)/2) >= (f(a)+f(b))/2.
	for _, f := range allFamilies() {
		for a := 0.0; a < xmax; a += xmax / 20 {
			for b := a; b <= xmax; b += xmax / 20 {
				mid := f.Value((a + b) / 2)
				chord := (f.Value(a) + f.Value(b)) / 2
				if mid < chord-1e-9 {
					t.Fatalf("%s: not concave at a=%v b=%v: f(mid)=%v < chord=%v",
						f.Name(), a, b, mid, chord)
				}
			}
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, f := range allFamilies() {
		for q := 0.0; q <= 1.0; q += 0.01 {
			x := f.Inverse(q)
			if x < 0 || x > xmax {
				t.Fatalf("%s: Inverse(%v) = %v out of range", f.Name(), q, x)
			}
			got := f.Value(x)
			if math.Abs(got-q) > 1e-6 {
				t.Fatalf("%s: Value(Inverse(%v)) = %v", f.Name(), q, got)
			}
		}
	}
}

func TestInverseEdges(t *testing.T) {
	for _, f := range allFamilies() {
		if got := f.Inverse(0); got != 0 {
			t.Errorf("%s: Inverse(0) = %v, want 0", f.Name(), got)
		}
		if got := f.Inverse(-1); got != 0 {
			t.Errorf("%s: Inverse(-1) = %v, want 0", f.Name(), got)
		}
		if got := f.Inverse(1); got != xmax {
			t.Errorf("%s: Inverse(1) = %v, want xmax", f.Name(), got)
		}
		if got := f.Inverse(2); got != xmax {
			t.Errorf("%s: Inverse(2) = %v, want xmax (clamp)", f.Name(), got)
		}
	}
}

func TestInverseNumericMatchesClosedForm(t *testing.T) {
	for _, f := range allFamilies() {
		for q := 0.05; q < 1.0; q += 0.05 {
			closed := f.Inverse(q)
			numeric := inverseNumeric(f, q)
			if math.Abs(closed-numeric) > 1e-4*xmax {
				t.Fatalf("%s: inverse mismatch at q=%v: closed=%v numeric=%v",
					f.Name(), q, closed, numeric)
			}
		}
	}
}

// inverseNumeric computes Function.Inverse by bisection on [0, xmax], the
// paper's "binary search on the concave quality function" step of LF
// cutting; the closed-form inverses are checked against it.
func inverseNumeric(f Function, q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= f.Value(xmax) {
		return xmax
	}
	lo, hi := 0.0, xmax
	for i := 0; i < 64 && hi-lo > 1e-9*xmax; i++ {
		mid := (lo + hi) / 2
		if f.Value(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// batch is the batch quality Σf(c_j)/Σf(p_j) as the scheduler's quality
// monitor accumulates it.
func batch(f Function, processed, demand []float64) float64 {
	acc := NewAccumulator(f)
	for i := range demand {
		acc.Add(processed[i], demand[i])
	}
	return acc.Quality()
}

func TestExponentialHalfDemandQuality(t *testing.T) {
	// With c=0.003, xmax=1000: f(500) = (1-e^{-1.5})/(1-e^{-3}) ≈ 0.8187.
	// This is the quantitative heart of the paper: half the work yields
	// ~82% of the quality.
	f := NewExponential(0.003, 1000)
	got := f.Value(500)
	want := (1 - math.Exp(-1.5)) / (1 - math.Exp(-3))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("f(500) = %v, want %v", got, want)
	}
	if got < 0.8 {
		t.Fatalf("f(500) = %v; expected diminishing returns to push it above 0.8", got)
	}
}

func TestConcavityOrdering(t *testing.T) {
	// Fig. 9b: larger c means higher quality for the same volume.
	cs := []float64{0.0005, 0.001, 0.002, 0.003, 0.005, 0.009}
	for x := 100.0; x < 1000; x += 100 {
		prev := -1.0
		for _, c := range cs {
			v := NewExponential(c, 1000).Value(x)
			if v < prev {
				t.Fatalf("quality not increasing in c at x=%v: c=%v gives %v < %v", x, c, v, prev)
			}
			prev = v
		}
	}
}

func TestExponentialMarginalDecreasing(t *testing.T) {
	f := NewExponential(0.003, 1000)
	prev := math.Inf(1)
	for x := 0.0; x <= 1000; x += 50 {
		m := f.Marginal(x)
		if m > prev {
			t.Fatalf("marginal not decreasing at x=%v", x)
		}
		if m < 0 {
			t.Fatalf("negative marginal at x=%v", x)
		}
		prev = m
	}
	if f.Marginal(2000) != 0 {
		t.Fatal("marginal beyond xmax should be 0")
	}
}

func TestExponentialMarginalMatchesDerivative(t *testing.T) {
	f := NewExponential(0.003, 1000)
	for x := 10.0; x < 990; x += 37 {
		h := 1e-4
		numeric := (f.Value(x+h) - f.Value(x-h)) / (2 * h)
		if math.Abs(numeric-f.Marginal(x)) > 1e-6 {
			t.Fatalf("marginal mismatch at x=%v: analytic=%v numeric=%v",
				x, f.Marginal(x), numeric)
		}
	}
}

func TestBatch(t *testing.T) {
	f := NewExponential(0.003, 1000)
	demand := []float64{400, 600, 1000}
	full := batch(f, demand, demand)
	if math.Abs(full-1) > 1e-12 {
		t.Fatalf("fully processed batch quality = %v, want 1", full)
	}
	zero := batch(f, []float64{0, 0, 0}, demand)
	if zero != 0 {
		t.Fatalf("unprocessed batch quality = %v, want 0", zero)
	}
	half := batch(f, []float64{200, 300, 500}, demand)
	if half <= zero || half >= full {
		t.Fatalf("half-processed batch quality = %v, want in (0,1)", half)
	}
	// Concavity: halving every job keeps well over half the quality.
	if half < 0.6 {
		t.Fatalf("diminishing returns should keep half-batch quality high, got %v", half)
	}
}

func TestBatchEdgeCases(t *testing.T) {
	f := NewExponential(0.003, 1000)
	if q := batch(f, nil, nil); q != 1 {
		t.Fatalf("empty batch quality = %v, want 1", q)
	}
	if q := batch(f, []float64{5}, []float64{0}); q != 1 {
		t.Fatalf("zero-demand batch quality = %v, want 1", q)
	}
	// Overshoot clamps to demand.
	if q := batch(f, []float64{900}, []float64{400}); math.Abs(q-1) > 1e-12 {
		t.Fatalf("overshoot batch quality = %v, want 1", q)
	}
}

func TestAccumulator(t *testing.T) {
	f := NewExponential(0.003, 1000)
	acc := NewAccumulator(f)
	if acc.Quality() != 1 {
		t.Fatalf("empty accumulator quality = %v, want 1", acc.Quality())
	}
	acc.Add(400, 400)
	if math.Abs(acc.Quality()-1) > 1e-12 {
		t.Fatalf("fully-served job should keep quality 1, got %v", acc.Quality())
	}
	acc.Add(0, 600)
	q := acc.Quality()
	want := f.Value(400) / (f.Value(400) + f.Value(600))
	if math.Abs(q-want) > 1e-12 {
		t.Fatalf("accumulator quality = %v, want %v", q, want)
	}
}

func TestAccumulatorClamps(t *testing.T) {
	f := NewLinear(100)
	acc := NewAccumulator(f)
	acc.Add(500, 100) // processed beyond demand clamps
	if acc.Quality() != 1 {
		t.Fatalf("clamped overshoot quality = %v, want 1", acc.Quality())
	}
	acc.Add(-5, 100) // negative processed clamps to 0
	if math.Abs(acc.Quality()-0.5) > 1e-12 {
		t.Fatalf("quality = %v, want 0.5", acc.Quality())
	}
	// zero demand ignored
	if a, p := acc.Add(50, 0); a != 0 || p != 0 || math.Abs(acc.Quality()-0.5) > 1e-12 {
		t.Fatalf("zero-demand job should be ignored: terms (%v, %v), quality %v", a, p, acc.Quality())
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	f := NewExponential(0.003, 1000)
	demand := []float64{130, 220, 480, 750, 1000}
	processed := []float64{130, 110, 300, 200, 900}
	acc := NewAccumulator(f)
	num, den := 0.0, 0.0
	for i := range demand {
		acc.Add(processed[i], demand[i])
		num += f.Value(processed[i])
		den += f.Value(demand[i])
	}
	if math.Abs(acc.Quality()-num/den) > 1e-12 {
		t.Fatal("accumulator disagrees with the paper's batch quality")
	}
}

// TestAddKnownMatchesAdd pins the terms AddKnown adds, given f(p), and
// those Add adds to f evaluated at the clamped processed volume and at the
// demand, bit for bit, across the clamping edges.
func TestAddKnownMatchesAdd(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, f := range allFamilies() {
		add, known := NewAccumulator(f), NewAccumulator(f)
		for _, p := range []float64{0, 130, 480, 1000, 1500} {
			for _, c := range []float64{-5, 0, 1e-9, 65, p / 2, p - 1e-9, p, p + 10} {
				wantA, wantP := 0.0, 0.0
				if p > 0 {
					wantA, wantP = f.Value(min(max(c, 0), p)), f.Value(p)
				}
				a1, p1 := add.Add(c, p)
				a2, p2 := known.AddKnown(c, p, f.Value(p))
				if !same(a1, wantA) || !same(p1, wantP) || !same(a2, wantA) || !same(p2, wantP) {
					t.Fatalf("%s c=%v p=%v: Add terms (%v, %v), AddKnown (%v, %v), want (%v, %v)",
						f.Name(), c, p, a1, p1, a2, p2, wantA, wantP)
				}
			}
		}
		if !same(add.Quality(), known.Quality()) {
			t.Fatalf("%s: AddKnown quality %v, Add %v", f.Name(), known.Quality(), add.Quality())
		}
	}
}

// Property: for any valid (c, x) pair, quality stays in [0, 1].
func TestQualityRangeProperty(t *testing.T) {
	f := func(cRaw, xRaw uint16) bool {
		c := 0.0001 + float64(cRaw)/65535*0.01
		x := float64(xRaw) / 65535 * 2000
		q := NewExponential(c, 1000).Value(x)
		return q >= 0 && q <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Inverse is the lower inverse: Value(Inverse(q)) ~= q and
// Inverse(Value(x)) <= x (+tolerance) for all x in range.
func TestInverseLowerBoundProperty(t *testing.T) {
	f := NewExponential(0.003, 1000)
	prop := func(xRaw uint16) bool {
		x := float64(xRaw) / 65535 * 1000
		inv := f.Inverse(f.Value(x))
		return inv <= x+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: batch quality always lies in [0, 1] and is monotone in each
// processed volume.
func TestBatchMonotoneProperty(t *testing.T) {
	f := NewExponential(0.003, 1000)
	prop := func(p1, p2, c1, c2 uint16, bump uint8) bool {
		demand := []float64{130 + float64(p1)/75, 130 + float64(p2)/75}
		proc := []float64{
			math.Min(float64(c1)/65, demand[0]),
			math.Min(float64(c2)/65, demand[1]),
		}
		q := batch(f, proc, demand)
		if q < 0 || q > 1 {
			return false
		}
		more := []float64{math.Min(proc[0]+float64(bump), demand[0]), proc[1]}
		return batch(f, more, demand) >= q-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConstructorsPanic(t *testing.T) {
	cases := []func(){
		func() { NewExponential(0, 1000) },
		func() { NewExponential(0.003, 0) },
		func() { NewLogarithmic(0, 1000) },
		func() { NewPowerLaw(0, 1000) },
		func() { NewPowerLaw(1.5, 1000) },
		func() { NewLinear(0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: constructor did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkExponentialValue(b *testing.B) {
	f := NewExponential(0.003, 1000)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += f.Value(float64(i % 1000))
	}
	_ = sink
}

func BenchmarkExponentialInverse(b *testing.B) {
	f := NewExponential(0.003, 1000)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += f.Inverse(float64(i%1000) / 1000)
	}
	_ = sink
}
