package yds_test

import (
	"fmt"

	"goodenough/internal/job"
	"goodenough/internal/power"
	"goodenough/internal/yds"
)

// ExampleAppendPlanCommonRelease computes the minimal-energy speed schedule
// for two jobs available now, in EDF order: a tight one (400 units due in
// 100 ms) and a relaxed one (100 units due in 400 ms). YDS runs the tight
// job fast, then drops to a crawl for the relaxed one — spending 4x the
// power for only a quarter of the time.
func ExampleAppendPlanCommonRelease() {
	jobs := []*job.Job{
		job.New(1, 0, 0.100, 400),
		job.New(2, 0, 0.400, 100),
	}
	energy := 0.0
	for _, a := range yds.AppendPlanCommonRelease(nil, 0, jobs, 0) {
		fmt.Printf("J%d: %.3f GHz on [%.2f, %.2f]\n", a.Job.ID, a.Speed, a.Start, a.End)
		energy += power.Default().Energy(a.Speed, a.End-a.Start)
	}
	fmt.Printf("energy: %.2f J\n", energy)
	// Output:
	// J1: 4.000 GHz on [0.00, 0.10]
	// J2: 0.333 GHz on [0.10, 0.40]
	// energy: 8.17 J
}

// ExampleGroupsGeneral runs the textbook YDS critical-interval algorithm on
// staggered releases: a background job spanning two seconds plus a spike in
// the middle. The spike forms its own fast critical group.
func ExampleGroupsGeneral() {
	jobs := []*job.Job{
		job.New(1, 0, 2, 1800),
		job.New(2, 0.9, 1.1, 400),
	}
	for _, g := range yds.GroupsGeneral(jobs) {
		fmt.Printf("jobs %v at %.0f GHz\n", g.JobIDs, g.Speed)
	}
	// Output:
	// jobs [2] at 2 GHz
	// jobs [1] at 1 GHz
}
