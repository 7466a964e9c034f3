package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeWeightedConstant(t *testing.T) {
	var w TimeWeighted
	w.Add(2, 10)
	if math.Abs(w.Mean()-2) > 1e-12 || w.Variance() > 1e-12 {
		t.Fatalf("constant signal: mean=%v var=%v", w.Mean(), w.Variance())
	}
	if w.Duration() != 10 {
		t.Fatalf("duration = %v", w.Duration())
	}
}

func TestTimeWeightedMix(t *testing.T) {
	// 1 s at 1 GHz + 3 s at 3 GHz → mean 2.5, E[v²] = (1+27)/4 = 7,
	// var = 7 − 6.25 = 0.75.
	var w TimeWeighted
	w.Add(1, 1)
	w.Add(3, 3)
	if math.Abs(w.Mean()-2.5) > 1e-12 {
		t.Fatalf("mean = %v", w.Mean())
	}
	if math.Abs(w.Variance()-0.75) > 1e-12 {
		t.Fatalf("variance = %v", w.Variance())
	}
}

func TestTimeWeightedIgnoresBadDurations(t *testing.T) {
	var w TimeWeighted
	w.Add(5, 0)
	w.Add(5, -1)
	if w.Duration() != 0 || w.Mean() != 0 {
		t.Fatal("non-positive durations should be ignored")
	}
}

func TestTimeWeightedMerge(t *testing.T) {
	var a, b TimeWeighted
	a.Add(1, 1)
	b.Add(3, 3)
	a.Merge(b)
	if math.Abs(a.Mean()-2.5) > 1e-12 {
		t.Fatalf("merged mean = %v", a.Mean())
	}
	if a.Duration() != 4 {
		t.Fatalf("merged duration = %v", a.Duration())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatal("extreme quantiles wrong")
	}
	if math.Abs(Quantile(xs, 0.5)-2.5) > 1e-12 {
		t.Fatalf("median = %v, want 2.5", Quantile(xs, 0.5))
	}
	// Input must be untouched.
	if xs[0] != 4 {
		t.Fatal("Quantile mutated its input")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 4 {
		t.Fatal("out-of-range q should clamp")
	}
}

func TestMeanVariance(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("degenerate case wrong")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if math.Abs(Mean(xs)-5) > 1e-12 {
		t.Fatalf("mean = %v", Mean(xs))
	}
}

// Property: time-weighted variance is non-negative and zero for constant
// signals.
func TestTimeWeightedNonNegativeProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		var w TimeWeighted
		for _, v := range raw {
			w.Add(float64(v%7), float64(v%5)+0.1)
		}
		return w.Variance() >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
