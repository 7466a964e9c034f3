package yds

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"goodenough/internal/job"
	"goodenough/internal/power"
	"goodenough/internal/rng"
)

func mkJob(id int, release, deadline, demand float64) *job.Job {
	return job.New(id, release, deadline, demand)
}

// edf returns a copy of jobs in EDF order, as the scheduler keeps them.
func edf(jobs []*job.Job) []*job.Job {
	sorted := append([]*job.Job(nil), jobs...)
	job.SortEDF(sorted)
	return sorted
}

func planEDF(now float64, jobs []*job.Job, speedCap float64) []Assignment {
	return AppendPlanCommonRelease(nil, now, edf(jobs), speedCap)
}

func peakEDF(now float64, jobs []*job.Job) float64 { return PeakSpeedEDF(now, edf(jobs)) }

// planEnergy is the dynamic energy of the plan executed as laid out.
func planEnergy(m power.Model, plan []Assignment) float64 {
	e := 0.0
	for _, a := range plan {
		e += m.Energy(a.Speed, a.End-a.Start)
	}
	return e
}

// feasible reports whether the plan finishes every job's remaining target
// by its deadline, within tol seconds.
func feasible(plan []Assignment, tol float64) bool {
	for _, a := range plan {
		if a.Job.Remaining() > 0 && a.End > a.Job.Deadline+tol {
			return false
		}
	}
	return true
}

func TestPeakSpeedEmpty(t *testing.T) {
	if peakEDF(0, nil) != 0 {
		t.Fatal("peak speed of empty set should be 0")
	}
}

func TestPeakSpeedSingle(t *testing.T) {
	// 300 units due in 150 ms → 2000 units/s → 2 GHz.
	j := mkJob(1, 0, 0.150, 300)
	if got := peakEDF(0, []*job.Job{j}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("peak speed = %v GHz, want 2", got)
	}
}

func TestPeakSpeedPrefix(t *testing.T) {
	// Two jobs: 100 units by 0.1 s, then 300 more by 0.4 s.
	// Prefix intensities: 1000 u/s and 400/0.4 = 1000 u/s → 1 GHz.
	jobs := []*job.Job{mkJob(1, 0, 0.1, 100), mkJob(2, 0, 0.4, 300)}
	if got := peakEDF(0, jobs); math.Abs(got-1) > 1e-9 {
		t.Fatalf("peak speed = %v GHz, want 1", got)
	}
	// Make the first job dominant: 300 by 0.1 → 3 GHz.
	jobs[0] = mkJob(1, 0, 0.1, 300)
	if got := peakEDF(0, jobs); math.Abs(got-3) > 1e-9 {
		t.Fatalf("peak speed = %v GHz, want 3", got)
	}
}

func TestPeakSpeedExpired(t *testing.T) {
	j := mkJob(1, 0, 0.1, 100)
	if !math.IsInf(peakEDF(0.2, []*job.Job{j}), 1) {
		t.Fatal("expired job with work should give infinite peak speed")
	}
}

func TestPlanTwoJobsClosedForm(t *testing.T) {
	// Case 1: first job is the bottleneck.
	// w1=400 by d1=0.1 (4 GHz), w2=100 by d2=0.4.
	// YDS: job1 at 4 GHz on [0, 0.1], job2 at 100/(0.3·1000)=0.333 GHz.
	jobs := []*job.Job{mkJob(1, 0, 0.1, 400), mkJob(2, 0, 0.4, 100)}
	plan := planEDF(0, jobs, 0)
	if len(plan) != 2 {
		t.Fatalf("plan length = %d", len(plan))
	}
	if math.Abs(plan[0].Speed-4) > 1e-9 {
		t.Fatalf("job1 speed = %v, want 4", plan[0].Speed)
	}
	if math.Abs(plan[1].Speed-100.0/300) > 1e-9 {
		t.Fatalf("job2 speed = %v, want %v", plan[1].Speed, 100.0/300)
	}
	if math.Abs(plan[1].Start-0.1) > 1e-9 || math.Abs(plan[1].End-0.4) > 1e-9 {
		t.Fatalf("job2 window = [%v, %v], want [0.1, 0.4]", plan[1].Start, plan[1].End)
	}

	// Case 2: pooled: w1=100 by 0.1, w2=700 by 0.4 → both at
	// (100+700)/0.4 = 2000 u/s = 2 GHz.
	jobs = []*job.Job{mkJob(1, 0, 0.1, 100), mkJob(2, 0, 0.4, 700)}
	plan = planEDF(0, jobs, 0)
	for _, a := range plan {
		if math.Abs(a.Speed-2) > 1e-9 {
			t.Fatalf("pooled speed = %v, want 2", a.Speed)
		}
	}
	if !feasible(plan, 1e-9) {
		t.Fatal("pooled plan infeasible")
	}
}

func TestPlanFeasibleAndOrdered(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(8)
		jobs := make([]*job.Job, n)
		for i := range jobs {
			d := 0.05 + r.Float64()*0.5
			jobs[i] = mkJob(i, 0, d, 130+r.Float64()*870)
		}
		plan := planEDF(0, jobs, 0)
		if len(plan) != n {
			t.Fatalf("trial %d: plan covers %d of %d jobs", trial, len(plan), n)
		}
		if !feasible(plan, 1e-6) {
			t.Fatalf("trial %d: uncapped YDS plan infeasible", trial)
		}
		// Windows must be contiguous and non-overlapping in EDF order.
		for i := 1; i < len(plan); i++ {
			if plan[i].Start < plan[i-1].End-1e-9 {
				t.Fatalf("trial %d: overlapping windows", trial)
			}
			if plan[i].Job.Deadline < plan[i-1].Job.Deadline {
				t.Fatalf("trial %d: not EDF ordered", trial)
			}
		}
		// Group speeds must be non-increasing (YDS common-release shape).
		for i := 1; i < len(plan); i++ {
			if plan[i].Speed > plan[i-1].Speed+1e-9 {
				t.Fatalf("trial %d: speeds increased over time: %v then %v",
					trial, plan[i-1].Speed, plan[i].Speed)
			}
		}
	}
}

func TestPlanFirstGroupMatchesPeakSpeed(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(6)
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = mkJob(i, 0, 0.05+r.Float64()*0.4, 130+r.Float64()*870)
		}
		plan := planEDF(0, jobs, 0)
		peak := peakEDF(0, jobs)
		if math.Abs(plan[0].Speed-peak) > 1e-6 {
			t.Fatalf("trial %d: first group speed %v != peak %v", trial, plan[0].Speed, peak)
		}
	}
}

func TestPlanOptimalityAgainstJitteredFeasiblePlans(t *testing.T) {
	// YDS is optimal over all feasible schedules; any feasible alternative
	// must cost at least as much. Scaling every YDS speed up by >= 1 stays
	// feasible, so those alternatives bound the optimum from above.
	m := power.Default()
	r := rng.New(3)
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(5)
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = mkJob(i, 0, 0.05+r.Float64()*0.4, 130+r.Float64()*870)
		}
		plan := planEDF(0, jobs, 0)
		opt := planEnergy(m, plan)
		for k := 0; k < 10; k++ {
			alt := make([]Assignment, len(plan))
			tcur := 0.0
			for i, a := range plan {
				sp := a.Speed * (1 + r.Float64())
				dur := 0.0
				if sp > 0 {
					dur = a.Job.Remaining() / power.Rate(sp)
				}
				alt[i] = Assignment{Job: a.Job, Speed: sp, Start: tcur, End: tcur + dur}
				tcur += dur
			}
			if !feasible(alt, 1e-9) {
				t.Fatalf("trial %d: sped-up plan lost feasibility", trial)
			}
			if e := planEnergy(m, alt); e < opt-1e-6 {
				t.Fatalf("trial %d: alternative beat YDS: %v < %v", trial, e, opt)
			}
		}
	}
}

func TestPlanRespectsCap(t *testing.T) {
	jobs := []*job.Job{mkJob(1, 0, 0.1, 400), mkJob(2, 0, 0.4, 100)}
	plan := planEDF(0, jobs, 1.5)
	for _, a := range plan {
		if a.Speed > 1.5+1e-12 {
			t.Fatalf("cap violated: %v", a.Speed)
		}
	}
	// 400 units at 1.5 GHz takes 0.267 s > 0.1 s deadline: plan overruns,
	// which the machine converts into quality loss.
	if feasible(plan, 1e-9) {
		t.Fatal("capped plan should be infeasible for this instance")
	}
}

func TestPlanZeroWork(t *testing.T) {
	j := mkJob(1, 0, 0.1, 100)
	j.Advance(100)
	plan := planEDF(0, []*job.Job{j}, 0)
	if len(plan) != 1 || plan[0].Speed != 0 || plan[0].Start != plan[0].End {
		t.Fatalf("zero-work plan = %+v", plan)
	}
}

func TestPlanExpiredJob(t *testing.T) {
	// A job whose deadline passed still gets an assignment (the machine
	// finalizes it); the plan must not crash or stall.
	jobs := []*job.Job{mkJob(1, 0, 0.1, 100), mkJob(2, 0, 0.5, 200)}
	plan := planEDF(0.2, jobs, 2)
	if len(plan) != 2 {
		t.Fatalf("plan length = %d, want 2", len(plan))
	}
	for _, a := range plan {
		if a.Speed > 2+1e-12 {
			t.Fatalf("cap violated for expired-job plan: %v", a.Speed)
		}
	}
}

func TestPlanEmpty(t *testing.T) {
	if planEDF(0, nil, 0) != nil {
		t.Fatal("empty plan should be nil")
	}
}

func TestPlanEnergyKnownValue(t *testing.T) {
	// One job: 300 units in 150 ms → 2 GHz → 20 W → 3 J over 0.15 s.
	m := power.Default()
	plan := planEDF(0, []*job.Job{mkJob(1, 0, 0.150, 300)}, 0)
	if got := planEnergy(m, plan); math.Abs(got-3) > 1e-9 {
		t.Fatalf("energy = %v J, want 3", got)
	}
}

func TestGroupsGeneralCommonReleaseMatchesPlan(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(6)
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = mkJob(i, 0, 0.05+r.Float64()*0.4, 130+r.Float64()*870)
		}
		plan := planEDF(0, jobs, 0)
		groups := GroupsGeneral(jobs)
		// Per-job speeds must agree between the two algorithms.
		bySpeed := map[int]float64{}
		for _, g := range groups {
			for _, id := range g.JobIDs {
				bySpeed[id] = g.Speed
			}
		}
		for _, a := range plan {
			if math.Abs(bySpeed[a.Job.ID]-a.Speed) > 1e-6 {
				t.Fatalf("trial %d: job %d speed %v (general) vs %v (common)",
					trial, a.Job.ID, bySpeed[a.Job.ID], a.Speed)
			}
		}
		// And so must total energy.
		m := power.Default()
		if d := math.Abs(GroupsEnergy(m, jobs, groups) - planEnergy(m, plan)); d > 1e-6 {
			t.Fatalf("trial %d: energy mismatch %v", trial, d)
		}
	}
}

func TestGroupsGeneralStaggeredReleases(t *testing.T) {
	// Two disjoint unit-time windows each holding 1000 units → both jobs
	// at 1 GHz in separate critical intervals.
	jobs := []*job.Job{mkJob(1, 0, 1, 1000), mkJob(2, 1, 2, 1000)}
	groups := GroupsGeneral(jobs)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	for _, g := range groups {
		if math.Abs(g.Speed-1) > 1e-9 {
			t.Fatalf("group speed = %v, want 1", g.Speed)
		}
	}
}

func TestGroupsGeneralOverlap(t *testing.T) {
	// Classic YDS example: a heavy job spanning [0,2] and a spike in [0.9,1.1].
	// The spike interval [0.9,1.1] has intensity 400/0.2 = 2000 u/s = 2 GHz;
	// after compression the heavy job has 1.8 s for 1800 units → 1 GHz.
	jobs := []*job.Job{mkJob(1, 0, 2, 1800), mkJob(2, 0.9, 1.1, 400)}
	groups := GroupsGeneral(jobs)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if math.Abs(groups[0].Speed-2) > 1e-9 || groups[0].JobIDs[0] != 2 {
		t.Fatalf("first group = %+v, want spike at 2 GHz", groups[0])
	}
	if math.Abs(groups[1].Speed-1) > 1e-9 {
		t.Fatalf("second group speed = %v, want 1", groups[1].Speed)
	}
}

func TestGroupsGeneralExtractionOrderFastestFirst(t *testing.T) {
	r := rng.New(6)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(5)
		jobs := make([]*job.Job, n)
		for i := range jobs {
			rel := r.Float64() * 0.5
			jobs[i] = mkJob(i, rel, rel+0.05+r.Float64()*0.4, 130+r.Float64()*870)
		}
		groups := GroupsGeneral(jobs)
		speeds := make([]float64, len(groups))
		for i, g := range groups {
			speeds[i] = g.Speed
		}
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(speeds))) {
			t.Fatalf("trial %d: group speeds not non-increasing: %v", trial, speeds)
		}
		// Every job appears exactly once.
		seen := map[int]bool{}
		for _, g := range groups {
			for _, id := range g.JobIDs {
				if seen[id] {
					t.Fatalf("trial %d: job %d in two groups", trial, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("trial %d: %d of %d jobs grouped", trial, len(seen), n)
		}
	}
}

func TestGroupsGeneralSkipsFinishedJobs(t *testing.T) {
	j := mkJob(1, 0, 1, 100)
	j.Advance(100)
	if groups := GroupsGeneral([]*job.Job{j}); len(groups) != 0 {
		t.Fatalf("finished job produced groups: %+v", groups)
	}
}

// Property: adding work never lowers the peak speed.
func TestPeakSpeedMonotoneProperty(t *testing.T) {
	prop := func(w1, w2, extra uint16) bool {
		j1 := mkJob(1, 0, 0.15, float64(w1%1000)+1)
		j2 := mkJob(2, 0, 0.30, float64(w2%1000)+1)
		base := peakEDF(0, []*job.Job{j1, j2})
		j2b := mkJob(2, 0, 0.30, float64(w2%1000)+1+float64(extra%500))
		grown := peakEDF(0, []*job.Job{j1, j2b})
		return grown >= base-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: total planned work equals total remaining work (nothing lost or
// invented by the planner).
func TestPlanConservesWorkProperty(t *testing.T) {
	r := rng.New(7)
	prop := func(seed uint16) bool {
		n := 1 + int(seed%6)
		jobs := make([]*job.Job, n)
		total := 0.0
		for i := range jobs {
			jobs[i] = mkJob(i, 0, 0.05+r.Float64()*0.4, 130+r.Float64()*870)
			total += jobs[i].Remaining()
		}
		plan := planEDF(0, jobs, 0)
		planned := 0.0
		for _, a := range plan {
			planned += power.Rate(a.Speed) * (a.End - a.Start)
		}
		return math.Abs(planned-total) < 1e-6*math.Max(total, 1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPlanCommonRelease(b *testing.B) {
	r := rng.New(1)
	jobs := make([]*job.Job, 32)
	for i := range jobs {
		jobs[i] = mkJob(i, 0, 0.05+r.Float64()*0.4, 130+r.Float64()*870)
	}
	sorted := edf(jobs)
	var plan []Assignment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan = AppendPlanCommonRelease(plan[:0], 0, sorted, 0)
	}
}

func BenchmarkGroupsGeneral(b *testing.B) {
	r := rng.New(1)
	jobs := make([]*job.Job, 16)
	for i := range jobs {
		rel := r.Float64() * 0.5
		jobs[i] = mkJob(i, rel, rel+0.05+r.Float64()*0.4, 130+r.Float64()*870)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GroupsGeneral(jobs)
	}
}
