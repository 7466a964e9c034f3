package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortQuantile is the sort-based definition Quantile's selection must
// reproduce: sort a copy, then interpolate linearly between the order
// statistics around rank q·(n-1).
func sortQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// quantileInput decodes a byte string into samples. Most bytes map onto 32
// small values, so inputs are full of duplicates; the top few map onto the
// values ordering can trip on: NaN, ±Inf, -0 and a huge magnitude.
func quantileInput(data []byte) []float64 {
	xs := make([]float64, len(data))
	for i, b := range data {
		switch b {
		case 255:
			xs[i] = math.NaN()
		case 254:
			xs[i] = math.Inf(1)
		case 253:
			xs[i] = math.Inf(-1)
		case 252:
			xs[i] = math.Copysign(0, -1)
		case 251:
			xs[i] = 1e300
		default:
			xs[i] = float64(int(b%32)-8) / 4
		}
	}
	return xs
}

// sameValue reports whether two results agree: equal, or both NaN.
func sameValue(a, b float64) bool {
	return a == b || math.IsNaN(a) && math.IsNaN(b)
}

// checkQuantile compares Quantile with sortQuantile at q, at 0 and 1, and
// at every exact rank r/(n-1) of inputs up to 64 samples, and checks that
// Quantile leaves its input untouched. QuantileInPlace must agree while
// selecting on one slice throughout, as a caller taking several quantiles
// of its samples does, and keep that slice's values.
func checkQuantile(t *testing.T, xs []float64, q float64) {
	t.Helper()
	qs := []float64{q, 0, 1}
	if n := len(xs); n >= 2 && n <= 64 {
		for r := 0; r < n; r++ {
			qs = append(qs, float64(r)/float64(n-1))
		}
	}
	before := slices.Clone(xs)
	inPlace := slices.Clone(xs)
	for _, q := range qs {
		want := sortQuantile(xs, q)
		if got := Quantile(xs, q); !sameValue(got, want) {
			t.Fatalf("Quantile(%v, %v) = %v, sorting gives %v", xs, q, got, want)
		}
		if got := QuantileInPlace(inPlace, q); !sameValue(got, want) {
			t.Fatalf("QuantileInPlace(%v, %v) = %v, sorting gives %v", before, q, got, want)
		}
	}
	for i := range xs {
		if !sameValue(xs[i], before[i]) {
			t.Fatalf("Quantile modified its input at %d: %v -> %v", i, before[i], xs[i])
		}
	}
	sort.Float64s(before)
	sort.Float64s(inPlace)
	for i := range before {
		if !sameValue(before[i], inPlace[i]) {
			t.Fatalf("QuantileInPlace changed the values: sorted %v, want %v", inPlace, before)
		}
	}
}

// FuzzQuantile checks the selection-based Quantile and QuantileInPlace
// against sorting on any byte string as samples and any q in [0, 1].
func FuzzQuantile(f *testing.F) {
	f.Add([]byte{}, 0.5)
	f.Add([]byte{7}, 0.5)                    // n = 1
	f.Add([]byte{9, 3}, 0.25)                // n = 2
	f.Add([]byte{5, 5, 5, 5, 5}, 0.95)       // all equal
	f.Add([]byte{4, 1, 4, 1, 4, 9, 9}, 0.99) // duplicates
	f.Add([]byte{3, 8, 1, 6}, 1.0/3)         // an exact rank
	f.Add([]byte{2, 30, 17}, 0.0)
	f.Add([]byte{2, 30, 17}, 1.0)
	f.Add([]byte{255, 3, 254, 252, 8, 253, 251}, 0.5)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if math.IsNaN(q) || q < 0 || q > 1 {
			q = math.Abs(math.Mod(q, 1))
			if math.IsNaN(q) {
				q = 0.5
			}
		}
		checkQuantile(t, quantileInput(data), q)
	})
}

// TestQuantileMatchesSortRandom replays pseudorandom inputs on every test
// run, small ones and one of the size the fleet summarizes, so the check
// does not depend on anyone invoking -fuzz.
func TestQuantileMatchesSortRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 8, 13, 64, 1000, 100000} {
		trials := 20
		if n > 1000 {
			trials = 2
		}
		for trial := 0; trial < trials; trial++ {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			checkQuantile(t, quantileInput(data), rng.Float64())
		}
	}
	// Continuous values, sorted and reversed inputs, as the fleet's
	// response times come.
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		checkQuantile(t, xs, q)
		slices.Sort(xs)
		checkQuantile(t, xs, q)
		slices.Reverse(xs)
		checkQuantile(t, xs, q)
	}
}
