package machine

import (
	"math"
	"strings"
	"testing"

	"goodenough/internal/job"
	"goodenough/internal/power"
)

func model() power.Model { return power.Default() }

// NewCore returns an idle core starting its clock at 0, outside any server.
func NewCore(index int) *Core { return &Core{Index: index} }

func bind(j *job.Job, core int) *job.Job {
	j.Core = core
	j.State = job.StateAssigned
	return j
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(0, model()); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewServer(4, power.Model{A: -1, Beta: 2}); err == nil {
		t.Error("invalid model accepted")
	}
	s, err := NewServer(16, model())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cores) != 16 {
		t.Fatalf("M = %d", len(s.Cores))
	}
}

// A server's cores share one backing array, so construction allocates as
// much for 64 cores as for one, and every core still knows its index.
func TestNewServerAllocatesCoresOnce(t *testing.T) {
	build := func(m int) func() {
		return func() {
			if _, err := NewServer(m, model()); err != nil {
				t.Fatal(err)
			}
		}
	}
	one, many := testing.AllocsPerRun(20, build(1)), testing.AllocsPerRun(20, build(64))
	if many != one {
		t.Fatalf("NewServer allocates %v times for 64 cores, %v for one", many, one)
	}
	s, err := NewServer(16, model())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range s.Cores {
		if c.Index != i || !c.Idle() || !c.Healthy() {
			t.Fatalf("core %d: index %d, idle %v, healthy %v", i, c.Index, c.Idle(), c.Healthy())
		}
	}
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	c := NewCore(0)
	j := bind(job.New(1, 0, 0.150, 300), 0)
	// 300 units at 2 GHz (2000 u/s) takes 0.15 s exactly.
	if err := c.SetPlan([]Entry{{Job: j, Speed: 2}}); err != nil {
		t.Fatal(err)
	}
	var finals []Reason
	c.Advance(model(), 0.2, func(_ *job.Job, r Reason) { finals = append(finals, r) })
	if len(finals) != 1 || finals[0] != ReasonCompleted {
		t.Fatalf("finalizations = %v", finals)
	}
	if math.Abs(j.Processed-300) > 1e-6 {
		t.Fatalf("processed = %v", j.Processed)
	}
	if j.State != job.StateFinalized {
		t.Fatalf("state = %v", j.State)
	}
	// Energy: 20 W for 0.15 s = 3 J.
	if math.Abs(c.Energy()-3) > 1e-9 {
		t.Fatalf("energy = %v, want 3", c.Energy())
	}
	if c.Completed() != 1 || c.Expired() != 0 {
		t.Fatalf("counters = %d/%d", c.Completed(), c.Expired())
	}
}

func TestDeadlineTruncation(t *testing.T) {
	c := NewCore(0)
	j := bind(job.New(1, 0, 0.1, 1000), 0)
	// 1 GHz can process only 100 units before the 0.1 s deadline.
	c.SetPlan([]Entry{{Job: j, Speed: 1}})
	var reason Reason
	c.Advance(model(), 0.5, func(_ *job.Job, r Reason) { reason = r })
	if reason != ReasonExpired {
		t.Fatalf("reason = %v, want expired", reason)
	}
	if math.Abs(j.Processed-100) > 1e-6 {
		t.Fatalf("processed = %v, want 100 (truncated at deadline)", j.Processed)
	}
	// The core must not burn energy past the deadline: 5 W · 0.1 s.
	if math.Abs(c.Energy()-0.5) > 1e-9 {
		t.Fatalf("energy = %v, want 0.5", c.Energy())
	}
}

func TestSequentialEDFExecution(t *testing.T) {
	c := NewCore(0)
	j1 := bind(job.New(1, 0, 0.1, 100), 0)
	j2 := bind(job.New(2, 0, 0.4, 300), 0)
	c.SetPlan([]Entry{{Job: j1, Speed: 1}, {Job: j2, Speed: 1}})
	order := []int{}
	c.Advance(model(), 1.0, func(j *job.Job, r Reason) {
		order = append(order, j.ID)
		if r != ReasonCompleted {
			t.Fatalf("job %d reason %v", j.ID, r)
		}
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("completion order = %v", order)
	}
	// j1 runs [0, 0.1], j2 runs [0.1, 0.4]; both at 1 GHz → 5 W · 0.4 s.
	if math.Abs(c.Energy()-2) > 1e-9 {
		t.Fatalf("energy = %v, want 2", c.Energy())
	}
}

func TestCutTargetCompletesEarly(t *testing.T) {
	c := NewCore(0)
	j := bind(job.New(1, 0, 0.15, 1000), 0)
	j.SetTarget(200) // AES cut
	c.SetPlan([]Entry{{Job: j, Speed: 2}})
	var reason Reason
	c.Advance(model(), 0.15, func(_ *job.Job, r Reason) { reason = r })
	if reason != ReasonCompleted {
		t.Fatalf("cut job reason = %v, want completed", reason)
	}
	if math.Abs(j.Processed-200) > 1e-6 {
		t.Fatalf("processed = %v, want the 200-unit target", j.Processed)
	}
	// Runs 0.1 s at 2 GHz then idles: energy = 20·0.1 = 2 J.
	if math.Abs(c.Energy()-2) > 1e-9 {
		t.Fatalf("energy = %v, want 2", c.Energy())
	}
}

func TestPartialAdvanceResumes(t *testing.T) {
	c := NewCore(0)
	j := bind(job.New(1, 0, 0.5, 400), 0)
	c.SetPlan([]Entry{{Job: j, Speed: 1}})
	c.Advance(model(), 0.1, nil)
	if math.Abs(j.Processed-100) > 1e-6 {
		t.Fatalf("processed after 0.1 s = %v", j.Processed)
	}
	if c.now != 0.1 {
		t.Fatalf("clock = %v", c.now)
	}
	done := false
	c.Advance(model(), 0.5, func(_ *job.Job, r Reason) { done = r == ReasonCompleted })
	if !done {
		t.Fatal("job did not complete on resume")
	}
	if math.Abs(j.Processed-400) > 1e-6 {
		t.Fatalf("processed = %v", j.Processed)
	}
}

func TestReplanMidFlight(t *testing.T) {
	// The scheduler may change speed mid-job (e.g. compensation).
	c := NewCore(0)
	j := bind(job.New(1, 0, 1.0, 1000), 0)
	c.SetPlan([]Entry{{Job: j, Speed: 1}})
	c.Advance(model(), 0.2, nil) // 200 units done
	c.SetPlan([]Entry{{Job: j, Speed: 2}})
	c.Advance(model(), 0.6, nil) // 0.4 s at 2 GHz = 800 units → done
	if !j.Done() {
		t.Fatalf("job not done after replan: %v", j.Processed)
	}
	// Energy = 5·0.2 + 20·0.4 = 9 J.
	if math.Abs(c.Energy()-9) > 1e-9 {
		t.Fatalf("energy = %v, want 9", c.Energy())
	}
}

func TestZeroSpeedJobExpiresQuietly(t *testing.T) {
	c := NewCore(0)
	j := bind(job.New(1, 0, 0.1, 100), 0)
	c.SetPlan([]Entry{{Job: j, Speed: 0}})
	var reason Reason
	fired := false
	c.Advance(model(), 0.5, func(_ *job.Job, r Reason) { reason, fired = r, true })
	if !fired || reason != ReasonExpired {
		t.Fatalf("zero-speed job should expire: fired=%v reason=%v", fired, reason)
	}
	if c.Energy() != 0 {
		t.Fatalf("idle core consumed energy %v", c.Energy())
	}
	if j.Processed != 0 {
		t.Fatalf("zero-speed job processed %v", j.Processed)
	}
}

func TestIdleProfileAccounting(t *testing.T) {
	c := NewCore(0)
	j := bind(job.New(1, 0, 0.5, 200), 0)
	c.SetPlan([]Entry{{Job: j, Speed: 2}}) // busy 0.1 s
	c.Advance(model(), 1.0, nil)
	busy := c.BusyProfile()
	if math.Abs(busy.Duration()-0.1) > 1e-9 {
		t.Fatalf("busy duration = %v, want 0.1", busy.Duration())
	}
	if math.Abs(busy.Mean()-2) > 1e-9 {
		t.Fatalf("busy mean speed = %v, want 2", busy.Mean())
	}
}

func TestSetPlanRejectsForeignJobs(t *testing.T) {
	c := NewCore(0)
	j := bind(job.New(1, 0, 0.1, 100), 3)
	if err := c.SetPlan([]Entry{{Job: j, Speed: 1}}); err == nil {
		t.Fatal("foreign job accepted")
	}
	j2 := bind(job.New(2, 0, 0.1, 100), 0)
	if err := c.SetPlan([]Entry{{Job: j2, Speed: -1}}); err == nil {
		t.Fatal("negative speed accepted")
	}
}

func TestProjectedIdle(t *testing.T) {
	c := NewCore(0)
	j1 := bind(job.New(1, 0, 0.1, 100), 0)  // 1 GHz → finishes at 0.1
	j2 := bind(job.New(2, 0, 0.4, 300), 0)  // 1 GHz → finishes at 0.4
	j3 := bind(job.New(3, 0, 0.45, 900), 0) // 1 GHz → truncated at 0.45
	c.SetPlan([]Entry{{Job: j1, Speed: 1}, {Job: j2, Speed: 1}, {Job: j3, Speed: 1}})
	if got := c.ProjectedIdle(0); math.Abs(got-0.45) > 1e-9 {
		t.Fatalf("projected idle = %v, want 0.45", got)
	}
	empty := NewCore(1)
	if got := empty.ProjectedIdle(2.5); got != 2.5 {
		t.Fatalf("empty projected idle = %v, want now", got)
	}
}

func TestServerAdvanceAggregates(t *testing.T) {
	s, _ := NewServer(2, model())
	j1 := bind(job.New(1, 0, 0.2, 200), 0)
	j2 := bind(job.New(2, 0, 0.2, 400), 1)
	s.Cores[0].SetPlan([]Entry{{Job: j1, Speed: 1}})
	s.Cores[1].SetPlan([]Entry{{Job: j2, Speed: 2}})
	count := 0
	s.Advance(0.2, func(*job.Job, Reason) { count++ })
	if count != 2 {
		t.Fatalf("finalized %d, want 2", count)
	}
	// Energy: 5·0.2 + 20·0.2 = 5 J.
	if math.Abs(s.Energy()-5) > 1e-9 {
		t.Fatalf("server energy = %v, want 5", s.Energy())
	}
	if s.Completed() != 2 || s.Expired() != 0 {
		t.Fatalf("counters = %d/%d", s.Completed(), s.Expired())
	}
	if s.Now() != 0.2 {
		t.Fatalf("server clock = %v", s.Now())
	}
}

func TestServerAdvanceBackwardsErrors(t *testing.T) {
	s, _ := NewServer(1, model())
	if err := s.Advance(1, nil); err != nil {
		t.Fatalf("forward advance: %v", err)
	}
	err := s.Advance(0.5, nil)
	if err == nil {
		t.Fatal("backwards advance did not error")
	}
	if !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("error %q does not mention backwards", err)
	}
}

func TestLoads(t *testing.T) {
	s, _ := NewServer(2, model())
	j1 := bind(job.New(1, 0, 1, 300), 0)
	j1.SetTarget(200)
	j2 := bind(job.New(2, 0, 1, 500), 1)
	s.Cores[0].SetPlan([]Entry{{Job: j1, Speed: 1}})
	s.Cores[1].SetPlan([]Entry{{Job: j2, Speed: 1}})
	loads := s.AppendLoads(nil)
	if math.Abs(loads[0]-200) > 1e-9 || math.Abs(loads[1]-500) > 1e-9 {
		t.Fatalf("loads = %v", loads)
	}
	if math.Abs(s.TotalLoad()-700) > 1e-9 {
		t.Fatalf("total load = %v", s.TotalLoad())
	}
}

func TestWorkEnergyConservation(t *testing.T) {
	// Total processed work must equal Σ rate·busytime, and energy must
	// equal Σ P(s)·dt — cross-check via profiles on a multi-job plan.
	c := NewCore(0)
	jobs := []*job.Job{
		bind(job.New(1, 0, 0.10, 150), 0),
		bind(job.New(2, 0, 0.25, 250), 0),
		bind(job.New(3, 0, 0.30, 900), 0), // will truncate
	}
	entries := []Entry{
		{Job: jobs[0], Speed: 1.5},
		{Job: jobs[1], Speed: 1.0},
		{Job: jobs[2], Speed: 2.0},
	}
	c.SetPlan(entries)
	c.Advance(model(), 0.5, nil)
	processed := 0.0
	for _, j := range jobs {
		processed += j.Processed
	}
	busy := c.BusyProfile()
	workFromProfile := busy.Mean() * busy.Duration() * power.UnitsPerGHz
	if math.Abs(processed-workFromProfile) > 1e-6 {
		t.Fatalf("work conservation broken: processed=%v profile=%v", processed, workFromProfile)
	}
	if c.Energy() <= 0 {
		t.Fatal("no energy recorded")
	}
}

func TestAdvanceZeroWidthWindow(t *testing.T) {
	c := NewCore(0)
	j := bind(job.New(1, 0, 0.5, 100), 0)
	c.SetPlan([]Entry{{Job: j, Speed: 1}})
	c.Advance(model(), 0, nil) // no time passes
	if j.Processed != 0 || c.now != 0 {
		t.Fatalf("zero-width advance did work: %v", j.Processed)
	}
}

func TestReasonString(t *testing.T) {
	if ReasonCompleted.String() != "completed" || ReasonExpired.String() != "expired" {
		t.Fatal("reason strings wrong")
	}
}

func BenchmarkCoreAdvance(b *testing.B) {
	m := model()
	for i := 0; i < b.N; i++ {
		c := NewCore(0)
		entries := make([]Entry, 16)
		for k := range entries {
			j := bind(job.New(k, 0, 0.15+float64(k)*0.01, 200), 0)
			entries[k] = Entry{Job: j, Speed: 2}
		}
		c.SetPlan(entries)
		c.Advance(m, 1.0, nil)
	}
}

func TestDropExpired(t *testing.T) {
	c := NewCore(0)
	j1 := bind(job.New(1, 0, 0.1, 100), 0)
	j2 := bind(job.New(2, 0, 0.5, 100), 0)
	j3 := bind(job.New(3, 0, 0.2, 100), 0)
	c.SetPlan([]Entry{{Job: j1, Speed: 1}, {Job: j3, Speed: 1}, {Job: j2, Speed: 1}})
	var dropped []int
	n := c.DropExpired(0.3, func(j *job.Job, r Reason) {
		if r != ReasonExpired {
			t.Fatalf("drop reason = %v", r)
		}
		dropped = append(dropped, j.ID)
	})
	if n != 2 || len(dropped) != 2 {
		t.Fatalf("dropped %d jobs (%v), want 2", n, dropped)
	}
	if len(c.entries) != 1 || c.Queue()[0].ID != 2 {
		t.Fatalf("queue after drop = %v", c.Queue())
	}
	if c.Expired() != 2 {
		t.Fatalf("expired counter = %d", c.Expired())
	}
	if j1.State != job.StateFinalized || j3.State != job.StateFinalized {
		t.Fatal("dropped jobs not finalized")
	}
}

func TestDropExpiredKeepsDoneJobs(t *testing.T) {
	// A job that reached its cut target before its (passed) deadline is a
	// completion, not an expiry: DropExpired must leave it for Advance to
	// finalize as completed.
	c := NewCore(0)
	j := bind(job.New(1, 0, 0.1, 100), 0)
	j.SetTarget(50)
	j.Advance(50)
	c.SetPlan([]Entry{{Job: j, Speed: 1}})
	if n := c.DropExpired(0.3, nil); n != 0 {
		t.Fatalf("done job dropped as expired")
	}
	var reason Reason
	c.Advance(power.Default(), 0.4, func(_ *job.Job, r Reason) { reason = r })
	if reason != ReasonCompleted {
		t.Fatalf("done job finalized as %v", reason)
	}
}

func TestDropExpiredNilCallback(t *testing.T) {
	c := NewCore(0)
	j := bind(job.New(1, 0, 0.1, 100), 0)
	c.SetPlan([]Entry{{Job: j, Speed: 1}})
	if n := c.DropExpired(1.0, nil); n != 1 {
		t.Fatalf("dropped %d, want 1", n)
	}
}

func TestCurrentSpeed(t *testing.T) {
	c := NewCore(0)
	if c.CurrentSpeed() != 0 {
		t.Fatal("idle core should report speed 0")
	}
	j := bind(job.New(1, 0, 0.5, 100), 0)
	c.SetPlan([]Entry{{Job: j, Speed: 1.7}})
	if c.CurrentSpeed() != 1.7 {
		t.Fatalf("current speed = %v", c.CurrentSpeed())
	}
	c.Advance(model(), 0.5, nil)
	if c.CurrentSpeed() != 0 {
		t.Fatal("drained core should report speed 0")
	}
}

func TestProjectedIdleZeroSpeedEntry(t *testing.T) {
	// Zero-speed entries idle until their deadline.
	c := NewCore(0)
	j := bind(job.New(1, 0, 0.4, 100), 0)
	c.SetPlan([]Entry{{Job: j, Speed: 0}})
	if got := c.ProjectedIdle(0.1); got != 0.4 {
		t.Fatalf("projected idle = %v, want the doomed job's deadline", got)
	}
}

func TestProjectedIdleSkipsDoneAndExpired(t *testing.T) {
	c := NewCore(0)
	done := bind(job.New(1, 0, 0.5, 100), 0)
	done.Advance(100)
	late := bind(job.New(2, 0, 0.05, 100), 0)
	live := bind(job.New(3, 0, 0.6, 100), 0)
	c.SetPlan([]Entry{{Job: done, Speed: 1}, {Job: late, Speed: 1}, {Job: live, Speed: 1}})
	// At t=0.1 the done job takes no time, the late job drops instantly,
	// the live one needs 0.1 s.
	if got := c.ProjectedIdle(0.1); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("projected idle = %v, want 0.2", got)
	}
}

func TestHeterogeneousServer(t *testing.T) {
	models := []power.Model{
		{A: 5, Beta: 2},
		{A: 2, Beta: 2, MaxSpeed: 1.6},
	}
	s, err := NewHeterogeneousServer(models)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cores) != 2 {
		t.Fatalf("M = %d", len(s.Cores))
	}
	if s.Models[1].A != 2 {
		t.Fatalf("core 1 model = %+v", s.Models[1])
	}
	// Same speed, different clusters → different energy.
	j0 := bind(job.New(1, 0, 1, 1000), 0)
	j1 := bind(job.New(2, 0, 1, 1000), 1)
	s.Cores[0].SetPlan([]Entry{{Job: j0, Speed: 1}})
	s.Cores[1].SetPlan([]Entry{{Job: j1, Speed: 1}})
	s.Advance(1, nil)
	e0, e1 := s.Cores[0].Energy(), s.Cores[1].Energy()
	if math.Abs(e0-5) > 1e-9 || math.Abs(e1-2) > 1e-9 {
		t.Fatalf("cluster energies = %v, %v; want 5 and 2 J", e0, e1)
	}
}

func TestHeterogeneousServerValidation(t *testing.T) {
	if _, err := NewHeterogeneousServer(nil); err == nil {
		t.Error("empty model list accepted")
	}
	if _, err := NewHeterogeneousServer([]power.Model{{A: -1, Beta: 2}}); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestCoreFailOrphansQueueAndTracksDowntime(t *testing.T) {
	c := NewCore(0)
	j1 := bind(job.New(1, 0, 1, 100), 0)
	j2 := bind(job.New(2, 0, 1, 100), 0)
	if err := c.SetPlan([]Entry{{Job: j1, Speed: 1}, {Job: j2, Speed: 1}}); err != nil {
		t.Fatal(err)
	}
	orphans := c.Fail(0.5)
	if len(orphans) != 2 || orphans[0].Job != j1 || orphans[1].Job != j2 {
		t.Fatalf("orphans = %v", orphans)
	}
	if c.Healthy() || !c.Idle() {
		t.Fatal("failed core should be unhealthy and idle")
	}
	if c.Failures() != 1 {
		t.Fatalf("failures = %d", c.Failures())
	}
	// Double-fail is a no-op.
	if again := c.Fail(0.6); again != nil {
		t.Fatalf("second Fail returned %v", again)
	}
	if c.Failures() != 1 {
		t.Fatalf("failures after double-fail = %d", c.Failures())
	}
	// A dead core accepts a plan (the verify layer flags the policy bug)
	// but executes none of it.
	if err := c.SetPlan([]Entry{{Job: j1, Speed: 1}}); err != nil {
		t.Fatalf("SetPlan on failed core: %v", err)
	}
	c.Advance(model(), 10, func(*job.Job, Reason) { t.Fatal("dead core finalized a job") })
	if j1.Processed != 0 {
		t.Fatalf("dead core processed %v units", j1.Processed)
	}
	c.SetPlan(nil)
	if got := c.DownTime(1.5); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("open-interval downtime = %v, want 1", got)
	}
	c.Recover(2.0)
	if !c.Healthy() {
		t.Fatal("recovered core not healthy")
	}
	if got := c.DownTime(5); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("closed downtime = %v, want 1.5", got)
	}
}

func TestFailedCoreExecutesNothing(t *testing.T) {
	s, _ := NewServer(1, model())
	c := s.Cores[0]
	c.Fail(0)
	if err := s.Advance(1, nil); err != nil {
		t.Fatal(err)
	}
	if c.Energy() != 0 {
		t.Fatalf("dead core consumed %v J", c.Energy())
	}
	if got := c.busy.Duration(); got != 0 {
		t.Fatalf("dead core ran for %v s", got)
	}
}

func TestStuckCoreOverridesPlanSpeeds(t *testing.T) {
	c := NewCore(0)
	j := bind(job.New(1, 0, 10, 1000), 0)
	c.SetStuck(2)
	if c.StuckSpeed() != 2 {
		t.Fatalf("stuck speed = %v", c.StuckSpeed())
	}
	if err := c.SetPlan([]Entry{{Job: j, Speed: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := c.CurrentSpeed(); got != 2 {
		t.Fatalf("stuck core speed = %v, want wedged 2", got)
	}
	c.SetStuck(0) // free again: existing entries keep their wedged speed
	if c.StuckSpeed() != 0 {
		t.Fatal("stuck speed not cleared")
	}
}

func TestServerBudgetAndSurvivingCapacity(t *testing.T) {
	s, _ := NewServer(4, model())
	s.SetBudget(40)
	if s.Budget() != 40 {
		t.Fatalf("budget = %v", s.Budget())
	}
	if got := s.SurvivingCapacity(); got != 1 {
		t.Fatalf("capacity before time passes = %v, want 1", got)
	}
	if err := s.Advance(1, nil); err != nil { // 4 healthy core-seconds
		t.Fatal(err)
	}
	s.Cores[1].Fail(1)
	s.Cores[2].Fail(1)
	if got := s.Healthy(); got != 2 {
		t.Fatalf("healthy = %d", got)
	}
	if err := s.Advance(2, nil); err != nil { // + 2 healthy core-seconds
		t.Fatal(err)
	}
	// (4 + 2) alive core-seconds over 2 s * 4 cores = 0.75.
	if got := s.SurvivingCapacity(); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("surviving capacity = %v, want 0.75", got)
	}
	if got := s.Failures(); got != 2 {
		t.Fatalf("server failures = %d", got)
	}
}
