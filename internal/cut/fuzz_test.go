package cut

import (
	"math"
	"math/rand"
	"testing"

	"goodenough/internal/job"
	"goodenough/internal/quality"
)

// FuzzLongestFirst drives the cutting algorithm with arbitrary demand
// multisets, progress states, and targets: it must never panic, never
// break the Processed <= Target <= Demand invariant, never produce NaNs,
// and always land at or above the requested quality. The scheduler's
// Cutter.Cut, run on a copy of the batch, must set every target and cut
// count bit-identical to LongestFirst's.
func FuzzLongestFirst(f *testing.F) {
	f.Add(uint16(900), []byte{100, 200, 50})
	f.Add(uint16(0), []byte{1})
	f.Add(uint16(1000), []byte{255, 255, 255, 255})
	f.Add(uint16(500), []byte{})
	f.Add(uint16(999), []byte{0, 0, 7})
	f.Fuzz(checkLongestFirst)
}

// TestCutMatchesLongestFirstRandom replays random batches on every test
// run, so the checks do not depend on anyone invoking -fuzz.
func TestCutMatchesLongestFirstRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		raw := make([]byte, 1+rng.Intn(64))
		for i := range raw {
			raw[i] = byte(rng.Intn(256))
		}
		checkLongestFirst(t, uint16(rng.Intn(1001)), raw)
	}
}

// checkLongestFirst is FuzzLongestFirst's check of one batch.
func checkLongestFirst(t *testing.T, qRaw uint16, raw []byte) {
	if len(raw) > 64 {
		raw = raw[:64]
	}
	qge := float64(qRaw%1001) / 1000 // 0 .. 1
	fn := quality.NewExponential(0.003, 1000)
	jobs := make([]*job.Job, 0, len(raw))
	twins := make([]*job.Job, 0, len(raw))
	for i, b := range raw {
		demand := float64(b) * 4 // 0 .. 1020
		j := job.New(i, 0, 0.15, demand)
		// Partial progress derived from the same byte, and now and then
		// a target a previous pass cut.
		j.Advance(demand * float64(b%5) / 8)
		if b%3 == 0 {
			j.SetTarget(demand * 0.7)
		}
		jobs = append(jobs, j)
		twin := *j
		twins = append(twins, &twin)
	}
	res := LongestFirst(jobs, fn, qge)
	var c Cutter
	c.Cut(twins, fn, qge)
	for i, j := range jobs {
		if tw := twins[i]; math.Float64bits(tw.Target) != math.Float64bits(j.Target) || tw.CutCount != j.CutCount {
			t.Fatalf("job %d: Cut set target %v (cuts %d), LongestFirst %v (cuts %d)",
				i, tw.Target, tw.CutCount, j.Target, j.CutCount)
		}
	}
	if math.IsNaN(res.Quality) || math.IsNaN(res.WorkRemoved) {
		t.Fatalf("NaN result: %+v", res)
	}
	if res.WorkRemoved < -1e-9 {
		t.Fatalf("negative work removed: %v", res.WorkRemoved)
	}
	if res.Quality < -1e-9 || res.Quality > 1+1e-9 {
		t.Fatalf("quality out of range: %v", res.Quality)
	}
	floorBound := 0.0
	for _, j := range jobs {
		if j.Target < j.Processed-1e-9 || j.Target > j.Demand+1e-9 {
			t.Fatalf("invariant broken: %+v", j)
		}
		floorBound += fn.Value(j.Processed)
	}
	// Quality must reach qge unless floors force it higher is fine;
	// below qge is only possible when... it never is: floors only
	// raise quality. Check with tolerance.
	if len(jobs) > 0 && res.Quality < qge-1e-6 {
		// Zero-demand batches report quality 1 and are exempt.
		total := 0.0
		for _, j := range jobs {
			total += j.Demand
		}
		if total > 0 {
			t.Fatalf("quality %v below target %v", res.Quality, qge)
		}
	}
}
