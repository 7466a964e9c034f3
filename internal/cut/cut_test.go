package cut

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"goodenough/internal/job"
	"goodenough/internal/quality"
	"goodenough/internal/rng"
)

func paperF() quality.Function { return quality.NewExponential(0.003, 1000) }

func mkBatch(demands ...float64) []*job.Job {
	jobs := make([]*job.Job, len(demands))
	for i, d := range demands {
		jobs[i] = job.New(i, 0, 0.150, d)
	}
	return jobs
}

// targetQuality is Σf(Target)/Σf(Demand): the quality the targets would
// achieve if fully executed.
func targetQuality(jobs []*job.Job, f quality.Function) float64 {
	num, den := 0.0, 0.0
	for _, j := range jobs {
		num += f.Value(j.Target)
		den += f.Value(j.Demand)
	}
	return num / den
}

func TestEmptyBatch(t *testing.T) {
	res := LongestFirst(nil, paperF(), 0.9)
	if res.Quality != 1 || res.Cut != 0 {
		t.Fatalf("empty batch result = %+v", res)
	}
}

func TestQGEOneRestores(t *testing.T) {
	jobs := mkBatch(400, 800)
	jobs[0].SetTarget(100)
	res := LongestFirst(jobs, paperF(), 1.0)
	if res.Cut != 0 || res.Quality != 1 {
		t.Fatalf("qge=1 result = %+v", res)
	}
	for _, j := range jobs {
		if j.Target != j.Demand {
			t.Fatalf("qge=1 should restore full targets: %v", j)
		}
	}
}

func TestHitsTargetQualityExactly(t *testing.T) {
	f := paperF()
	for _, qge := range []float64{0.8, 0.9, 0.95, 0.99} {
		jobs := mkBatch(130, 200, 350, 500, 750, 1000)
		res := LongestFirst(jobs, f, qge)
		if math.Abs(res.Quality-qge) > 1e-6 {
			t.Fatalf("qge=%v: achieved %v", qge, res.Quality)
		}
		if got := targetQuality(jobs, f); math.Abs(got-qge) > 1e-6 {
			t.Fatalf("qge=%v: the targets' quality is %v", qge, got)
		}
	}
}

func TestLongestCutFirst(t *testing.T) {
	// Fig. 2 shape: four jobs, cutting starts from the longest.
	f := paperF()
	jobs := mkBatch(1000, 700, 400, 200)
	LongestFirst(jobs, f, 0.9)
	// All cut jobs land at the same level; shorter jobs keep full demand
	// unless the level dips below them.
	levels := make([]float64, len(jobs))
	for i, j := range jobs {
		levels[i] = j.Target
	}
	// The longest job must be cut at least as much (relatively) as any
	// shorter one; in particular its target cannot exceed another job's
	// target + its extra demand.
	if levels[0] > 1000-1e-9 {
		t.Fatal("longest job was not cut at qge=0.9")
	}
	if levels[3] < 200-1e-9 {
		// The shortest should survive a mild 0.9 cut.
		t.Fatalf("shortest job cut unexpectedly: %v", levels[3])
	}
	// Cut jobs share one level.
	var cutLevels []float64
	for i, j := range jobs {
		if j.Target < j.Demand-1e-9 {
			cutLevels = append(cutLevels, levels[i])
		}
	}
	for i := 1; i < len(cutLevels); i++ {
		if math.Abs(cutLevels[i]-cutLevels[0]) > 1e-6 {
			t.Fatalf("cut jobs at different levels: %v", cutLevels)
		}
	}
}

func TestEqualDemandsCutTogether(t *testing.T) {
	f := paperF()
	jobs := mkBatch(600, 600, 600)
	res := LongestFirst(jobs, f, 0.9)
	if res.Cut != 3 {
		t.Fatalf("equal jobs: cut %d of 3", res.Cut)
	}
	for _, j := range jobs {
		if math.Abs(j.Target-jobs[0].Target) > 1e-9 {
			t.Fatal("equal jobs cut to different levels")
		}
	}
	if math.Abs(res.Quality-0.9) > 1e-6 {
		t.Fatalf("quality = %v", res.Quality)
	}
}

func TestSingleJob(t *testing.T) {
	f := paperF()
	jobs := mkBatch(800)
	res := LongestFirst(jobs, f, 0.9)
	want := f.Inverse(0.9 * f.Value(800))
	if math.Abs(jobs[0].Target-want) > 1e-6 {
		t.Fatalf("single job target = %v, want %v", jobs[0].Target, want)
	}
	if math.Abs(res.Quality-0.9) > 1e-6 {
		t.Fatalf("quality = %v", res.Quality)
	}
}

func TestConcavitySavesWork(t *testing.T) {
	// At qge=0.9 with the paper's f, the work removed should be much more
	// than 10% of the total — that asymmetry is the whole point.
	f := paperF()
	jobs := mkBatch(1000, 900, 800, 700, 600, 500)
	total := 0.0
	for _, j := range jobs {
		total += j.Remaining()
	}
	res := LongestFirst(jobs, f, 0.9)
	if res.WorkRemoved < 0.15*total {
		t.Fatalf("only %v of %v work removed at qge=0.9; concavity should buy more",
			res.WorkRemoved, total)
	}
}

func TestProcessedFloor(t *testing.T) {
	f := paperF()
	jobs := mkBatch(1000, 400)
	jobs[0].Advance(950) // almost done: cannot cut below 950
	LongestFirst(jobs, f, 0.5)
	if jobs[0].Target < 950 {
		t.Fatalf("cut below processed volume: %v", jobs[0].Target)
	}
}

func TestRunningJobContinuesWhenRemainingSmaller(t *testing.T) {
	// Paper: if the calculated demand is smaller than the remaining
	// demand, cut; otherwise continue with the remaining demand.
	f := paperF()
	jobs := mkBatch(1000, 1000)
	jobs[0].Advance(300)
	LongestFirst(jobs, f, 0.9)
	// Both jobs' targets computed from original demand; job 0's floor is
	// 300 which is below the cut level, so both share the same level.
	if math.Abs(jobs[0].Target-jobs[1].Target) > 1e-6 {
		t.Fatalf("levels differ: %v vs %v", jobs[0].Target, jobs[1].Target)
	}
}

func TestVeryLowQGECutsToFloor(t *testing.T) {
	f := paperF()
	jobs := mkBatch(500, 300)
	res := LongestFirst(jobs, f, 0.0)
	for _, j := range jobs {
		if j.Target > 1e-9 {
			t.Fatalf("qge=0 should cut to zero, got %v", j.Target)
		}
	}
	if res.Quality > 1e-9 {
		t.Fatalf("qge=0 quality = %v", res.Quality)
	}
}

func TestNegativeQGETreatedAsZero(t *testing.T) {
	jobs := mkBatch(500)
	res := LongestFirst(jobs, paperF(), -3)
	if res.Quality > 1e-9 {
		t.Fatalf("negative qge quality = %v", res.Quality)
	}
}

func TestZeroDemandBatch(t *testing.T) {
	jobs := mkBatch(0, 0)
	res := LongestFirst(jobs, paperF(), 0.9)
	if res.Quality != 1 {
		t.Fatalf("zero-demand batch quality = %v", res.Quality)
	}
}

func TestRestore(t *testing.T) {
	jobs := mkBatch(500, 800)
	LongestFirst(jobs, paperF(), 0.7)
	Restore(jobs)
	for _, j := range jobs {
		if j.Target != j.Demand {
			t.Fatalf("restore failed: %v", j)
		}
	}
}

func TestIdempotent(t *testing.T) {
	// Re-cutting an already-cut batch at the same qge must not change the
	// result (the pass restores targets before recomputing).
	f := paperF()
	jobs := mkBatch(130, 200, 350, 500, 750, 1000)
	LongestFirst(jobs, f, 0.9)
	first := make([]float64, len(jobs))
	for i, j := range jobs {
		first[i] = j.Target
	}
	LongestFirst(jobs, f, 0.9)
	for i, j := range jobs {
		if math.Abs(j.Target-first[i]) > 1e-9 {
			t.Fatalf("second pass moved job %d: %v -> %v", i, first[i], j.Target)
		}
	}
}

// Property: the achieved quality is always >= qge (within tolerance) unless
// processed floors force it higher, and never exceeds 1.
func TestQualityTargetProperty(t *testing.T) {
	f := paperF()
	r := rng.New(1)
	prop := func(qRaw uint8, nRaw uint8) bool {
		qge := 0.05 + float64(qRaw%90)/100 // 0.05 .. 0.94
		n := 1 + int(nRaw%10)
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = job.New(i, 0, 0.15, 130+r.Float64()*870)
		}
		res := LongestFirst(jobs, f, qge)
		return res.Quality >= qge-1e-6 && res.Quality <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: invariants Processed <= Target <= Demand always hold after a
// cutting pass, even with partial progress.
func TestTargetInvariantProperty(t *testing.T) {
	f := paperF()
	r := rng.New(2)
	prop := func(qRaw uint8) bool {
		qge := float64(qRaw%101) / 100
		jobs := make([]*job.Job, 5)
		for i := range jobs {
			jobs[i] = job.New(i, 0, 0.15, 130+r.Float64()*870)
			jobs[i].Advance(r.Float64() * jobs[i].Demand)
		}
		LongestFirst(jobs, f, qge)
		for _, j := range jobs {
			if j.Target < j.Processed-1e-9 || j.Target > j.Demand+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: LF removes at least as much work as any-other-job-first removal
// achieving the same quality would — approximated by checking LF's removed
// work against a proportional cut achieving the same quality.
func TestLFBeatsProportionalCut(t *testing.T) {
	f := paperF()
	r := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(8)
		demands := make([]float64, n)
		jobs := make([]*job.Job, n)
		for i := range jobs {
			demands[i] = 130 + r.Float64()*870
			jobs[i] = job.New(i, 0, 0.15, demands[i])
		}
		res := LongestFirst(jobs, f, 0.9)

		// Proportional cut: scale all jobs by the factor that achieves
		// quality exactly 0.9 (found by bisection).
		den := 0.0
		for _, d := range demands {
			den += f.Value(d)
		}
		lo, hi := 0.0, 1.0
		for iter := 0; iter < 60; iter++ {
			mid := (lo + hi) / 2
			num := 0.0
			for _, d := range demands {
				num += f.Value(mid * d)
			}
			if num/den < 0.9 {
				lo = mid
			} else {
				hi = mid
			}
		}
		propRemoved := 0.0
		for _, d := range demands {
			propRemoved += d * (1 - hi)
		}
		if res.WorkRemoved < propRemoved-1e-6 {
			t.Fatalf("trial %d: LF removed %v, proportional removed %v — LF should win",
				trial, res.WorkRemoved, propRemoved)
		}
	}
}

// TestQualityMatchesPerJobEvaluation pins the reported quality bit for bit
// to evaluating f at every job's final target, summed longest first (ties in
// input order) over Σf(demand) summed in input order. Some jobs carry
// processed volumes, so floors bind on part of the cut group.
func TestQualityMatchesPerJobEvaluation(t *testing.T) {
	r := rng.New(5)
	for _, f := range []quality.Function{paperF(), quality.NewLogarithmic(0.01, 1000)} {
		for trial := 0; trial < 300; trial++ {
			jobs := make([]*job.Job, 1+r.Intn(24))
			for i := range jobs {
				jobs[i] = job.New(i, 0, 0.15, float64(130+10*r.Intn(88)))
				if r.Intn(3) == 0 {
					jobs[i].Processed = r.Uniform(0, jobs[i].Demand)
				}
			}
			qge := r.Uniform(0.3, 0.99)
			res := LongestFirst(jobs, f, qge)
			fullQ := 0.0
			for _, j := range jobs {
				fullQ += f.Value(j.Demand)
			}
			byDemand := slices.Clone(jobs)
			slices.SortStableFunc(byDemand, func(a, b *job.Job) int { return cmp.Compare(b.Demand, a.Demand) })
			achieved := 0.0
			for _, j := range byDemand {
				achieved += f.Value(j.Target)
			}
			if want := achieved / fullQ; math.Float64bits(res.Quality) != math.Float64bits(want) {
				t.Fatalf("%s trial %d: quality %v, per-job evaluation %v", f.Name(), trial, res.Quality, want)
			}
		}
	}
}

// TestStoredFDemandMatchesEvaluation pins LF cutting on jobs carrying the
// f(p_j) a machine stored when queuing them to the same targets and the same
// Result, bit for bit, as on identical jobs with nothing stored.
func TestStoredFDemandMatchesEvaluation(t *testing.T) {
	r := rng.New(11)
	for _, f := range []quality.Function{paperF(), quality.NewPowerLaw(0.5, 1000)} {
		for trial := 0; trial < 300; trial++ {
			bare := make([]*job.Job, 1+r.Intn(24))
			stored := make([]*job.Job, len(bare))
			for i := range bare {
				bare[i] = job.New(i, 0, 0.15, float64(130+10*r.Intn(88)))
				if r.Intn(3) == 0 {
					bare[i].Processed = r.Uniform(0, bare[i].Demand)
				}
				c := *bare[i]
				c.FDemand = f.Value(c.Demand)
				stored[i] = &c
			}
			qge := r.Uniform(0.3, 0.99)
			want := LongestFirst(bare, f, qge)
			got := LongestFirst(stored, f, qge)
			if got != want {
				t.Fatalf("%s trial %d: stored f(p) result %+v, evaluated %+v", f.Name(), trial, got, want)
			}
			for i := range bare {
				if math.Float64bits(stored[i].Target) != math.Float64bits(bare[i].Target) {
					t.Fatalf("%s trial %d job %d: stored f(p) target %v, evaluated %v",
						f.Name(), trial, i, stored[i].Target, bare[i].Target)
				}
			}
		}
	}
}

func BenchmarkLongestFirst(b *testing.B) {
	f := paperF()
	r := rng.New(1)
	base := make([]float64, 64)
	for i := range base {
		base[i] = 130 + r.Float64()*870
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := make([]*job.Job, len(base))
		for k, d := range base {
			jobs[k] = job.New(k, 0, 0.15, d)
		}
		LongestFirst(jobs, f, 0.9)
	}
}
