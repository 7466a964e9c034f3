package qopt

import (
	"math"
	"testing"

	"goodenough/internal/job"
	"goodenough/internal/power"
	"goodenough/internal/quality"
	"goodenough/internal/rng"
	"goodenough/internal/yds"
)

func paperF() quality.Function { return quality.NewExponential(0.003, 1000) }

func mkJob(id int, deadline, demand float64) *job.Job {
	return job.New(id, 0, deadline, demand)
}

// allocate runs AllocateEDF on an EDF-sorted copy of jobs, setting their
// targets in place, and returns the total work scheduled.
func allocate(now float64, jobs []*job.Job, rate float64) float64 {
	sorted := append([]*job.Job(nil), jobs...)
	job.SortEDF(sorted)
	total, _ := AllocateEDF(now, sorted, rate, nil)
	return total
}

// bestQuality returns the batch quality Σf(Target)/Σf(Demand) that the
// current targets would achieve.
func bestQuality(jobs []*job.Job, f quality.Function) float64 {
	num, den := 0.0, 0.0
	for _, j := range jobs {
		if j.Demand <= 0 {
			continue
		}
		num += f.Value(j.Target)
		den += f.Value(j.Demand)
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// feasible verifies the EDF prefix-capacity constraints for the current
// targets.
func feasible(now float64, jobs []*job.Job, rate float64) bool {
	sorted := append([]*job.Job(nil), jobs...)
	job.SortEDF(sorted)
	cum := 0.0
	for _, j := range sorted {
		cum += j.Target - j.Processed
		w := j.Deadline - now
		if w < 0 {
			w = 0
		}
		if cum > rate*w+1e-6 {
			return false
		}
	}
	return true
}

func TestAmpleCapacityKeepsFullDemands(t *testing.T) {
	jobs := []*job.Job{mkJob(1, 0.15, 200), mkJob(2, 0.15, 300)}
	total := allocate(0, jobs, 100000)
	if math.Abs(total-500) > 1e-6 {
		t.Fatalf("allocated %v, want 500", total)
	}
	for _, j := range jobs {
		if j.Target != j.Demand {
			t.Fatalf("ample capacity should keep full demand: %v", j)
		}
	}
}

func TestZeroRatePinsTargets(t *testing.T) {
	jobs := []*job.Job{mkJob(1, 0.15, 200)}
	jobs[0].Advance(50)
	total := allocate(0, jobs, 0)
	if total != 0 {
		t.Fatalf("allocated %v at zero rate", total)
	}
	if jobs[0].Target != 50 {
		t.Fatalf("target = %v, want pinned at processed 50", jobs[0].Target)
	}
}

func TestEmpty(t *testing.T) {
	if allocate(0, nil, 1000) != 0 {
		t.Fatal("empty allocation should be 0")
	}
}

func TestSingleJobCappedByCapacity(t *testing.T) {
	// 1000-unit job, 150 ms window, 2000 u/s → only 300 units fit.
	jobs := []*job.Job{mkJob(1, 0.15, 1000)}
	total := allocate(0, jobs, 2000)
	if math.Abs(total-300) > 1e-6 {
		t.Fatalf("allocated %v, want 300", total)
	}
	if math.Abs(jobs[0].Target-300) > 1e-6 {
		t.Fatalf("target = %v, want 300", jobs[0].Target)
	}
}

func TestLevelFillEqualDeadlines(t *testing.T) {
	// Same deadline, equal concave f: capacity splits to equalize volumes.
	// Budget 400 over jobs of demand 500 and 300 → level 200 each? No:
	// level L with min(L,500)+min(L,300) = 400 → L = 200.
	jobs := []*job.Job{mkJob(1, 0.2, 500), mkJob(2, 0.2, 300)}
	allocate(0, jobs, 2000) // budget = 2000·0.2 = 400 units
	if math.Abs(jobs[0].Target-200) > 1e-5 || math.Abs(jobs[1].Target-200) > 1e-5 {
		t.Fatalf("targets = %v, %v, want 200 each", jobs[0].Target, jobs[1].Target)
	}
}

func TestLevelCapsAtShortJob(t *testing.T) {
	// Budget 700: level fill min(L,500)+min(L,300)=700 → L=400 with the
	// short job capped at 300.
	jobs := []*job.Job{mkJob(1, 0.35, 500), mkJob(2, 0.35, 300)}
	allocate(0, jobs, 2000)
	if math.Abs(jobs[0].Target-400) > 1e-5 {
		t.Fatalf("long job target = %v, want 400", jobs[0].Target)
	}
	if math.Abs(jobs[1].Target-300) > 1e-5 {
		t.Fatalf("short job target = %v, want 300 (capped)", jobs[1].Target)
	}
}

func TestBindingPrefixSplitsLevels(t *testing.T) {
	// Job 1: 500 units due at 0.1 s; job 2: 500 units due at 0.5 s.
	// Rate 1000 u/s: prefix budget for job 1 is 100 units — binding.
	// Optimum: c1 = 100; job 2 gets min(500, 500−100+100... budget at k=2
	// is 500, minus 100 used → 400.
	jobs := []*job.Job{mkJob(1, 0.1, 500), mkJob(2, 0.5, 500)}
	allocate(0, jobs, 1000)
	if math.Abs(jobs[0].Target-100) > 1e-5 {
		t.Fatalf("bound job target = %v, want 100", jobs[0].Target)
	}
	if math.Abs(jobs[1].Target-400) > 1e-5 {
		t.Fatalf("later job target = %v, want 400", jobs[1].Target)
	}
	if !feasible(0, jobs, 1000) {
		t.Fatal("allocation infeasible")
	}
}

func TestLevelsNonDecreasingAlongEDF(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(6)
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = mkJob(i, 0.05+r.Float64()*0.4, 130+r.Float64()*870)
		}
		rate := 500 + r.Float64()*3000
		allocate(0, jobs, rate)
		job.SortEDF(jobs)
		if !feasible(0, jobs, rate) {
			t.Fatalf("trial %d: infeasible allocation", trial)
		}
		// Effective level of a job = Target unless capped by Demand.
		// Levels (for uncapped jobs) must be non-decreasing.
		prev := -1.0
		for _, j := range jobs {
			if j.Target < j.Demand-1e-6 { // uncapped
				if j.Target < prev-1e-5 {
					t.Fatalf("trial %d: level decreased along EDF: %v after %v",
						trial, j.Target, prev)
				}
				prev = j.Target
			}
		}
	}
}

func TestMatchesBruteForceOnSmallInstances(t *testing.T) {
	f := paperF()
	r := rng.New(2)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(2) // 2 or 3 jobs
		deadlines := make([]float64, n)
		demands := make([]float64, n)
		for i := range deadlines {
			deadlines[i] = 0.05 + r.Float64()*0.3
			demands[i] = 100 + r.Float64()*500
		}
		rate := 500 + r.Float64()*2500

		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = mkJob(i, deadlines[i], demands[i])
		}
		allocate(0, jobs, rate)
		got := 0.0
		for _, j := range jobs {
			got += f.Value(j.Target)
		}

		// Brute force on a grid.
		fresh := make([]*job.Job, n)
		for i := range fresh {
			fresh[i] = mkJob(i, deadlines[i], demands[i])
		}
		job.SortEDF(fresh)
		const steps = 60
		best := -1.0
		var walk func(k int, cum float64, acc float64)
		walk = func(k int, cum float64, acc float64) {
			if k == n {
				if acc > best {
					best = acc
				}
				return
			}
			j := fresh[k]
			budget := rate * j.Deadline
			for s := 0; s <= steps; s++ {
				c := j.Demand * float64(s) / steps
				if cum+c > budget+1e-9 {
					break
				}
				walk(k+1, cum+c, acc+f.Value(c))
			}
		}
		walk(0, 0, 0)

		// The grid undershoots the continuum optimum slightly; Allocate
		// must never fall below the grid best by more than grid error.
		if got < best-0.02 {
			t.Fatalf("trial %d: Allocate quality %v < brute force %v", trial, got, best)
		}
	}
}

func TestExpiredJobGetsNothingNew(t *testing.T) {
	jobs := []*job.Job{mkJob(1, 0.1, 500), mkJob(2, 0.5, 500)}
	jobs[0].Advance(40)
	allocate(0.2, jobs, 1000) // job 1 expired at t=0.2
	if jobs[0].Target > 40+1e-9 {
		t.Fatalf("expired job target raised to %v", jobs[0].Target)
	}
	if jobs[1].Target <= 0 {
		t.Fatal("live job starved")
	}
}

func TestProcessedFloorsRespected(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(5)
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = mkJob(i, 0.05+r.Float64()*0.4, 130+r.Float64()*870)
			jobs[i].Advance(r.Float64() * jobs[i].Demand * 0.8)
		}
		allocate(0, jobs, 100+r.Float64()*2000)
		for _, j := range jobs {
			if j.Target < j.Processed-1e-9 || j.Target > j.Demand+1e-9 {
				t.Fatalf("trial %d: target %v outside [%v, %v]",
					trial, j.Target, j.Processed, j.Demand)
			}
		}
	}
}

func TestAllocatedWorkMatchesReturn(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(6)
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = mkJob(i, 0.05+r.Float64()*0.4, 130+r.Float64()*870)
		}
		total := allocate(0, jobs, 200+r.Float64()*3000)
		sum := 0.0
		for _, j := range jobs {
			sum += j.Target - j.Processed
		}
		if math.Abs(total-sum) > 1e-6 {
			t.Fatalf("trial %d: returned %v but targets sum to %v", trial, total, sum)
		}
	}
}

func TestMoreCapacityNeverHurtsQuality(t *testing.T) {
	r := rng.New(5)
	f := paperF()
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(5)
		mk := func() []*job.Job {
			jobs := make([]*job.Job, n)
			for i := range jobs {
				jobs[i] = mkJob(i, 0.05+float64(i)*0.07, 130+float64((trial*31+i*97)%870))
			}
			return jobs
		}
		rate := 300 + r.Float64()*2000
		a := mk()
		allocate(0, a, rate)
		b := mk()
		allocate(0, b, rate*1.5)
		if bestQuality(b, f) < bestQuality(a, f)-1e-9 {
			t.Fatalf("trial %d: more capacity lowered quality", trial)
		}
	}
}

func TestBestQualityEdges(t *testing.T) {
	if bestQuality(nil, paperF()) != 1 {
		t.Fatal("empty bestQuality should be 1")
	}
}

func BenchmarkAllocate(b *testing.B) {
	r := rng.New(1)
	deadlines := make([]float64, 32)
	demands := make([]float64, 32)
	for i := range deadlines {
		deadlines[i] = 0.05 + r.Float64()*0.4
		demands[i] = 130 + r.Float64()*870
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := make([]*job.Job, 32)
		for k := range jobs {
			jobs[k] = mkJob(k, deadlines[k], demands[k])
		}
		allocate(0, jobs, 2000)
	}
}

func TestEqualMarginalAtOptimum(t *testing.T) {
	// KKT check: at the optimum, all jobs that are neither at their demand
	// cap nor pinned by a binding prefix constraint share (approximately)
	// the same marginal quality f'(c).
	f := quality.NewExponential(0.003, 1000)
	jobs := []*job.Job{
		mkJob(1, 0.30, 800),
		mkJob(2, 0.30, 900),
		mkJob(3, 0.30, 1000),
	}
	// One shared deadline → a single budget constraint; no caps bind at
	// this rate.
	allocate(0, jobs, 3000) // budget = 900 units over 2700 demanded
	m1 := f.Marginal(jobs[0].Target)
	for _, j := range jobs[1:] {
		if math.Abs(f.Marginal(j.Target)-m1) > 1e-6 {
			t.Fatalf("marginals differ at optimum: %v vs %v",
				f.Marginal(j.Target), m1)
		}
	}
}

// TestExactLevelRunsAtCapSpeed: fresh 1000-unit jobs due in 125 ms whose
// shared budget binds must get exactly budget/jobs each, so the capped plan
// runs at exactly the granted speed. A level that stops short plans a
// fresh, slightly lower speed on every replan. Bisection over [0, 1000]
// happens to hit 125 exactly, but not 100.
func TestExactLevelRunsAtCapSpeed(t *testing.T) {
	for _, tc := range []struct {
		jobs         int
		speed, level float64
	}{
		{2, 2, 125},   // 2000 u/s: budget 250 over two jobs
		{3, 2.4, 100}, // 2400 u/s: budget 300 over three jobs
	} {
		jobs := make([]*job.Job, tc.jobs)
		for i := range jobs {
			jobs[i] = mkJob(i, 0.125, 1000)
		}
		total, _ := AllocateEDF(0, jobs, power.Rate(tc.speed), nil)
		if want := tc.level * float64(tc.jobs); total != want {
			t.Fatalf("%d jobs at %v GHz: allocated %v, want %v", tc.jobs, tc.speed, total, want)
		}
		for _, j := range jobs {
			if j.Target != tc.level {
				t.Fatalf("%d jobs at %v GHz: target %v, want %v", tc.jobs, tc.speed, j.Target, tc.level)
			}
		}
		for _, a := range yds.AppendPlanCommonRelease(nil, 0, jobs, tc.speed) {
			if a.Speed != tc.speed {
				t.Fatalf("%d jobs: job %d planned at %v GHz, want exactly %v", tc.jobs, a.Job.ID, a.Speed, tc.speed)
			}
		}
	}
}

// FuzzAllocateEDF checks AllocateEDF against the bisection reference on
// instances of 1–32 jobs with staggered, tied and already-past deadlines,
// fresh, partial and complete progress, and rates from tiny to huge.
func FuzzAllocateEDF(f *testing.F) {
	f.Add(uint64(1), uint8(3), int8(3), 0.0)
	f.Add(uint64(2), uint8(4), int8(3), 0.05)
	f.Add(uint64(3), uint8(32), int8(2), 0.1)
	f.Add(uint64(4), uint8(1), int8(-6), 0.0)
	f.Add(uint64(5), uint8(16), int8(9), 0.2)
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, rateExp int8, now float64) {
		if math.IsNaN(now) || math.IsInf(now, 0) {
			t.Skip()
		}
		now = math.Mod(math.Abs(now), 0.5)
		n := 1 + int(size)%32
		r := rng.New(seed)
		rate := math.Pow(10, float64(int(rateExp)%10)) * (0.5 + r.Float64())
		mk := func() []*job.Job {
			r := rng.New(seed ^ 0x9e3779b97f4a7c15)
			jobs := make([]*job.Job, n)
			for i := range jobs {
				deadline := r.Float64() * 0.6
				if i > 0 && r.Intn(4) == 0 {
					deadline = jobs[r.Intn(i)].Deadline // tie
				}
				demand := r.Uniform(130, 1000)
				switch r.Intn(8) {
				case 0:
					demand = 0
				case 1:
					demand = math.Pow(10, r.Uniform(-3, 6))
				}
				jobs[i] = mkJob(i, deadline, demand)
				switch r.Intn(4) {
				case 0:
					jobs[i].Advance(demand) // complete
				case 1:
					jobs[i].Advance(r.Float64() * demand)
				}
			}
			job.SortEDF(jobs)
			return jobs
		}
		got, want := mk(), mk()
		total, _ := AllocateEDF(now, got, rate, nil)
		bisectAllocateEDF(now, want, rate)

		maxDemand := 0.0
		for _, j := range got {
			maxDemand = math.Max(maxDemand, j.Demand)
		}
		tol := 2e-9 * math.Max(1, maxDemand)
		sum, cum := 0.0, 0.0
		for i, j := range got {
			if math.Abs(j.Target-want[i].Target) > tol {
				t.Fatalf("job %d: target %v, reference %v (tolerance %v)", j.ID, j.Target, want[i].Target, tol)
			}
			if j.Target < j.Processed || j.Target > j.Demand {
				t.Fatalf("job %d: target %v outside [%v, %v]", j.ID, j.Target, j.Processed, j.Demand)
			}
			sum += j.Target - j.Processed
			cum += j.Target - j.Processed
			if limit := rate * math.Max(0, j.Deadline-now); cum > limit+tol {
				t.Fatalf("prefix through job %d needs %v, capacity %v", j.ID, cum, limit)
			}
		}
		if math.Abs(total-sum) > tol {
			t.Fatalf("returned %v, targets sum to %v", total, sum)
		}
	})
}

// BenchmarkAllocateEDFSmall times AllocateEDF on 2–4-job instances whose
// capacity binds, the sizes GE sends from a core's step-6 cut.
func BenchmarkAllocateEDFSmall(b *testing.B) {
	r := rng.New(1)
	type instance struct {
		jobs []*job.Job
		rate float64
	}
	var set []instance
	for len(set) < 64 {
		n := 2 + r.Intn(3)
		jobs := make([]*job.Job, n)
		for k := range jobs {
			jobs[k] = mkJob(k, 0.02+r.Float64()*0.13, rng.NewPareto(3, 130, 1000).Sample(r))
			if r.Intn(2) == 0 {
				jobs[k].Advance(r.Float64() * jobs[k].Demand / 2)
			}
		}
		job.SortEDF(jobs)
		peak := yds.PeakSpeedEDF(0, jobs)
		set = append(set, instance{jobs, power.Rate(peak) * (0.4 + 0.5*r.Float64())})
	}
	var scratch []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := set[i%len(set)]
		for _, j := range in.jobs {
			j.RestoreTarget()
		}
		_, scratch = AllocateEDF(0, in.jobs, in.rate, scratch)
	}
}

// bisectAllocateEDF is the reference for AllocateEDF: the same
// min-level-prefix recursion, with each prefix's fill level found by
// bisection on the work function instead of solved exactly. The bisection
// stops within 1e-12·max(1, max demand) below the true level.
func bisectAllocateEDF(now float64, sorted []*job.Job, rate float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if rate <= 0 {
		for _, j := range sorted {
			j.SetTarget(j.Processed)
		}
		return 0
	}

	// Prefix budgets in units of *additional* work.
	budgets := make([]float64, len(sorted))
	for k, j := range sorted {
		w := j.Deadline - now
		if w < 0 {
			w = 0
		}
		budgets[k] = rate * w
	}
	// Budgets are non-decreasing by EDF order; enforce against float noise.
	for k := 1; k < len(budgets); k++ {
		if budgets[k] < budgets[k-1] {
			budgets[k] = budgets[k-1]
		}
	}

	total := 0.0
	bisectSegment(sorted, budgets, &total)
	return total
}

// bisectSegment fixes the minimum-level prefix and repeats on the suffix.
func bisectSegment(jobs []*job.Job, budgets []float64, total *float64) {
	for len(jobs) > 0 {
		bestK := -1
		bestLevel := math.Inf(1)
		for k := range jobs {
			level := bisectFillLevel(jobs[:k+1], budgets[k])
			// Prefer the longest prefix among equal levels so segments are
			// maximal (mirrors YDS taking the whole critical group).
			if level < bestLevel-1e-12 || (level <= bestLevel+1e-12 && k > bestK && level != math.Inf(1)) {
				bestLevel = level
				bestK = k
			}
		}
		if bestK < 0 || math.IsInf(bestLevel, 1) {
			// Every prefix can afford full demands: no constraint binds.
			for _, j := range jobs {
				*total += j.Demand - math.Min(j.Demand, j.Processed)
				j.SetTarget(j.Demand)
			}
			return
		}
		// Fix the first segment at its level.
		used := 0.0
		for _, j := range jobs[:bestK+1] {
			c := clampLevel(j, bestLevel)
			used += c - math.Min(c, j.Processed)
			j.SetTarget(c)
		}
		*total += used
		// Recurse on the suffix with the used budget deducted.
		jobs = jobs[bestK+1:]
		budgets = budgets[bestK+1:]
		for i := range budgets {
			budgets[i] -= used
			if budgets[i] < 0 {
				budgets[i] = 0
			}
		}
	}
}

// bisectFillLevel finds the common level L such that raising every job to
// clampLevel(L) consumes exactly `budget` additional work. If the full
// demands fit within the budget it returns +Inf (no level binds).
func bisectFillLevel(jobs []*job.Job, budget float64) float64 {
	need := 0.0
	maxDemand := 0.0
	for _, j := range jobs {
		if j.Demand > j.Processed {
			need += j.Demand - j.Processed
		}
		if j.Demand > maxDemand {
			maxDemand = j.Demand
		}
	}
	if need <= budget+1e-12 {
		return math.Inf(1)
	}
	lo, hi := 0.0, maxDemand
	for i := 0; i < 64 && hi-lo > 1e-12*math.Max(maxDemand, 1); i++ {
		mid := (lo + hi) / 2
		if bisectWorkAtLevel(jobs, mid) > budget {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// bisectWorkAtLevel is the additional work required to raise every job to
// the given level (respecting floors and caps).
func bisectWorkAtLevel(jobs []*job.Job, level float64) float64 {
	w := 0.0
	for _, j := range jobs {
		c := clampLevel(j, level)
		if c > j.Processed {
			w += c - j.Processed
		}
	}
	return w
}
