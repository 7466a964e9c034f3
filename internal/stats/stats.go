// Package stats provides the summary statistics used by the metrics and
// experiment layers: time-weighted moments for speed profiles, and simple
// quantiles.
package stats

import (
	"math"
	"math/bits"
	"slices"
)

// TimeWeighted accumulates the time-weighted mean and variance of a
// piecewise-constant signal, e.g. a core's speed over the run. Samples are
// (value, duration) pairs.
type TimeWeighted struct {
	total float64 // Σ dt
	sum   float64 // Σ v·dt
	sum2  float64 // Σ v²·dt
}

// Add folds in the signal holding value v for dt seconds. Non-positive
// durations are ignored.
func (w *TimeWeighted) Add(v, dt float64) {
	if dt <= 0 {
		return
	}
	w.total += dt
	w.sum += v * dt
	w.sum2 += v * v * dt
}

// Duration returns the accumulated time.
func (w *TimeWeighted) Duration() float64 { return w.total }

// Mean returns the time-weighted mean (0 when no time accumulated).
func (w *TimeWeighted) Mean() float64 {
	if w.total == 0 {
		return 0
	}
	return w.sum / w.total
}

// Variance returns the time-weighted variance.
func (w *TimeWeighted) Variance() float64 {
	if w.total == 0 {
		return 0
	}
	m := w.Mean()
	v := w.sum2/w.total - m*m
	if v < 0 {
		return 0 // float noise
	}
	return v
}

// Merge folds another accumulator in (e.g. combining per-core profiles).
func (w *TimeWeighted) Merge(other TimeWeighted) {
	w.total += other.total
	w.sum += other.sum
	w.sum2 += other.sum2
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between the order statistics around rank q·(n-1), which it
// finds by selection on a copy in O(n) expected time; xs is untouched. NaNs
// order first, as in sort.Float64s. Empty input returns 0.
func Quantile(xs []float64, q float64) float64 {
	return QuantileInPlace(append([]float64(nil), xs...), q)
}

// QuantileInPlace is Quantile selecting on xs itself: it reorders xs, whose
// values stay the same, so a caller done with their order is spared the
// copy.
func QuantileInPlace(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := 0.0
	switch {
	case q >= 1:
		pos = float64(len(xs) - 1)
	case q > 0:
		pos = q * float64(len(xs)-1)
	}
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	nans := 0
	for i, x := range xs {
		if math.IsNaN(x) {
			xs[i], xs[nans] = xs[nans], x
			nans++
		}
	}
	if lo < nans {
		return math.NaN()
	}
	rest := xs[nans:]
	k := lo - nans
	a := selectRank(rest, k)
	if lo == hi {
		return a
	}
	// Selection leaves every value above rank k at or above it, so the next
	// order statistic is the least of them.
	b := slices.Min(rest[k+1:])
	frac := pos - float64(lo)
	return a*(1-frac) + b*frac
}

// selectRank reorders xs, which holds no NaN, so that xs[k] is the value of
// rank k, every value before it is at most it and every value after it at
// least it, and returns xs[k]. It is quickselect with a median-of-three
// pivot and a three-way partition, so runs of equal values cost one pass;
// a range that survives 2·log2(n) rounds is sorted instead, bounding the
// worst case at O(n log n).
func selectRank(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for rounds := 2 * bits.Len(uint(len(xs))); lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(xs[lo : hi+1])
			break
		}
		p := medianOf3(xs[lo], xs[lo+(hi-lo)/2], xs[hi])
		// Partition [lo, hi] into < p, == p and > p: [lo, lt), [lt, gt]
		// and (gt, hi].
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch x := xs[i]; {
			case x < p:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > p:
				xs[gt], xs[i] = x, xs[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// medianOf3 returns the median of three values.
func medianOf3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
