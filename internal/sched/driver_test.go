package sched

import (
	"testing"

	"goodenough/internal/job"
	"goodenough/internal/machine"
	"goodenough/internal/obs"
	"goodenough/internal/quality"
	"goodenough/internal/rng"
	"goodenough/internal/sim"
)

// pinPolicy records every invocation and plans each waiting job alone on an
// idle healthy core at a fixed speed; a zero speed plans nothing, so every
// job waits until it expires.
type pinPolicy struct {
	speed float64
	calls []pinCall
}

// pinCall is one recorded invocation: the trigger, the trigger time and the
// machine clock the policy saw.
type pinCall struct {
	trig       Trigger
	now, clock float64
}

func (p *pinPolicy) Name() string { return "pin" }
func (p *pinPolicy) Reset()       {}
func (p *pinPolicy) Schedule(ctx *Context) {
	p.calls = append(p.calls, pinCall{ctx.Trigger, ctx.Now, ctx.Server.Now()})
	if p.speed <= 0 {
		return
	}
	for _, c := range ctx.Server.Cores {
		waiting := ctx.Waiting.Peek()
		if len(waiting) == 0 {
			return
		}
		if !c.Idle() || !c.Healthy() {
			continue
		}
		j := ctx.Waiting.PopJob(waiting[0])
		j.Core = c.Index
		j.State = job.StateAssigned
		c.SetPlan([]machine.Entry{{Job: j, Speed: p.speed}})
	}
}

// testFleet is a set of drivers sharing one bare engine, which delivers
// each driver's idle and expiry wakeups to it; the test drives arrivals at
// chosen instants.
type testFleet struct {
	t      *testing.T
	cfg    Config
	engine *sim.Engine
	d      []*Driver
}

func newTestFleet(t *testing.T, cfg Config, policies ...Policy) *testFleet {
	t.Helper()
	f := &testFleet{t: t, cfg: cfg}
	f.engine = sim.NewEngine(func(e *sim.Event) error {
		d := f.d[max(e.Ref, 0)]
		switch e.Kind {
		case sim.KindCoreIdle:
			_, err := d.Wake(e.Time, e.Core)
			return err
		case sim.KindDeadline:
			return d.OnDeadline(e.Time)
		}
		return nil
	})
	for i, p := range policies {
		index := i
		if len(policies) == 1 {
			index = -1
		}
		d, err := NewDriver(&f.cfg, p, index, f.engine)
		if err != nil {
			t.Fatal(err)
		}
		f.d = append(f.d, d)
	}
	return f
}

// arrive delivers the engine's events due before now, then a job arriving
// at now on machine m.
func (f *testFleet) arrive(m int, now float64, j *job.Job) {
	f.t.Helper()
	if err := f.engine.RunUntil(now); err != nil {
		f.t.Fatal(err)
	}
	if err := f.d[m].Enqueue(now, j); err != nil {
		f.t.Fatal(err)
	}
	if err := f.d[m].OnArrival(now); err != nil {
		f.t.Fatal(err)
	}
}

// expiryLog records the queue expiries a driver reports.
type expiryLog []obs.Event

func (l *expiryLog) Observe(e obs.Event) {
	if e.Type == obs.EventJobExpire && e.Core == -1 {
		*l = append(*l, e)
	}
}

// TestOneExpiryWakeupPerMachine queues jobs with random windows on two
// machines whose policy plans nothing, so every pending event is an expiry
// wakeup. The engine must never hold more than one per machine, and every
// job must still expire exactly at its own deadline.
func TestOneExpiryWakeupPerMachine(t *testing.T) {
	cfg := Defaults()
	cfg.CounterTrigger = 1000
	f := newTestFleet(t, cfg, &pinPolicy{}, &pinPolicy{})
	var logs [2]expiryLog
	for m, d := range f.d {
		d.SetObserver(&logs[m])
	}
	src := rng.New(5)
	var jobs []*job.Job
	maxWaiting := 0
	for i := 0; i < 400; i++ {
		now := 0.002 * float64(i)
		j := job.New(i, now, now+src.Uniform(0.15, 0.5), 300)
		jobs = append(jobs, j)
		f.arrive(i%2, now, j)
		waiting := 0
		for _, d := range f.d {
			waiting += d.Waiting().Len()
			maxWaiting = max(maxWaiting, d.Waiting().Len())
		}
		if n := f.engine.Pending(); n > len(f.d) || n > waiting {
			t.Fatalf("t=%v: engine holds %d events for %d machines and %d waiting jobs",
				now, n, len(f.d), waiting)
		}
	}
	if maxWaiting < 50 {
		t.Fatalf("at most %d jobs waited at once; the check is vacuous", maxWaiting)
	}
	if err := f.engine.Run(); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.State != job.StateFinalized || j.Finish != j.Deadline {
			t.Fatalf("job %d: state %v finish %v, want finalized at its deadline %v",
				j.ID, j.State, j.Finish, j.Deadline)
		}
	}
	for m, log := range logs {
		if len(log) != len(jobs)/2 {
			t.Fatalf("machine %d reported %d expiries, want %d", m, len(log), len(jobs)/2)
		}
		for _, e := range log {
			if j := jobs[e.Job]; e.Time != j.Deadline {
				t.Fatalf("machine %d: job %d expiry reported at %v, deadline %v", m, j.ID, e.Time, j.Deadline)
			}
		}
	}
}

// TestWaitingJobExpiresAtDeadline queues one job that nothing will run and
// schedules nothing else: the expiry wakeup alone must finalize it at its
// deadline, without advancing the cores.
func TestWaitingJobExpiresAtDeadline(t *testing.T) {
	f := newTestFleet(t, Defaults(), &pinPolicy{})
	d := f.d[0]
	var log expiryLog
	d.SetObserver(&log)
	j := job.New(7, 0.25, 0.4, 300)
	if err := f.engine.RunUntil(0.25); err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(0.25, j); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if f.engine.Processed != 1 || f.engine.Now() != j.Deadline {
		t.Fatalf("engine delivered %d events, last at %v; want one expiry wakeup at %v",
			f.engine.Processed, f.engine.Now(), j.Deadline)
	}
	if j.State != job.StateFinalized || j.Finish != j.Deadline {
		t.Fatalf("job state %v finish %v, want finalized at %v", j.State, j.Finish, j.Deadline)
	}
	if len(log) != 1 || log[0].Time != j.Deadline || log[0].Job != j.ID {
		t.Fatalf("expiry events %+v, want one for job %d at %v", log, j.ID, j.Deadline)
	}
	if d.QueueExpired() != 1 || d.Waiting().Len() != 0 || len(d.Finals()) != 1 {
		t.Fatalf("queue expired %d, waiting %d, finals %d; want 1, 0, 1",
			d.QueueExpired(), d.Waiting().Len(), len(d.Finals()))
	}
	if now := d.Server().Now(); now != 0 {
		t.Fatalf("expiry advanced the machine to %v", now)
	}
}

// busyMachine returns a two-core machine whose cores are both planned at
// 2 GHz, from jobs arriving at 0 and 0.01 (each drains 0.1 s after it
// lands), so neither an idle core nor a due wakeup exists before 0.1. With
// the queue emptied by the policy, the engine holds only the two idle
// wakeups: the expiry wakeup was disarmed.
func busyMachine(t *testing.T, counter int) (*testFleet, *pinPolicy) {
	t.Helper()
	cfg := Defaults()
	cfg.Cores = 2
	cfg.CounterTrigger = counter
	p := &pinPolicy{speed: 2}
	f := newTestFleet(t, cfg, p)
	f.arrive(0, 0, job.New(0, 0, 0.15, 200))
	f.arrive(0, 0.01, job.New(1, 0.01, 0.16, 200))
	if len(p.calls) != 2 || f.d[0].IdleCores() != 0 || f.engine.Pending() != 2 {
		t.Fatalf("setup: %d calls, %d idle cores, %d pending events; want 2, 0 and 2",
			len(p.calls), f.d[0].IdleCores(), f.engine.Pending())
	}
	return f, p
}

// TestTriggerFreeArrivalLeavesMachine checks that an arrival that can fire
// no trigger only queues the job: the cores stay where they were.
func TestTriggerFreeArrivalLeavesMachine(t *testing.T) {
	f, p := busyMachine(t, 8)
	d := f.d[0]
	before := d.Server().Now()
	for i, at := range []float64{0.02, 0.05, 0.09} {
		f.arrive(0, at, job.New(2+i, at, at+0.15, 200))
	}
	if now := d.Server().Now(); now != before {
		t.Fatalf("trigger-free arrivals moved the machine clock %v -> %v", before, now)
	}
	if len(p.calls) != 2 || d.Waiting().Len() != 3 {
		t.Fatalf("%d policy calls, %d waiting; want 2 and 3", len(p.calls), d.Waiting().Len())
	}
}

// TestArrivalTriggersSettle checks the three ways an arrival may fire a
// trigger. Each must settle the machine to the arrival instant before the
// policy runs.
func TestArrivalTriggersSettle(t *testing.T) {
	last := func(t *testing.T, p *pinPolicy, trig Trigger, at float64) {
		t.Helper()
		c := p.calls[len(p.calls)-1]
		if c.trig != trig || c.now != at || c.clock != at {
			t.Fatalf("last call %+v, want trigger %v at %v on a machine settled to %v", c, trig, at, at)
		}
	}

	t.Run("counter", func(t *testing.T) {
		f, p := busyMachine(t, 3)
		f.arrive(0, 0.02, job.New(2, 0.02, 0.17, 200))
		f.arrive(0, 0.03, job.New(3, 0.03, 0.18, 200))
		if len(p.calls) != 2 {
			t.Fatalf("below the threshold the policy ran %d times, want 2", len(p.calls))
		}
		f.arrive(0, 0.04, job.New(4, 0.04, 0.19, 200))
		last(t, p, TriggerCounter, 0.04)
	})

	t.Run("idle core", func(t *testing.T) {
		cfg := Defaults()
		cfg.Cores = 2
		p := &pinPolicy{speed: 2}
		f := newTestFleet(t, cfg, p)
		f.arrive(0, 0, job.New(0, 0, 0.15, 200))
		f.arrive(0, 0.02, job.New(1, 0.02, 0.17, 200))
		last(t, p, TriggerIdleCore, 0.02)
	})

	t.Run("drain within epsilon", func(t *testing.T) {
		cfg := Defaults()
		cfg.Cores = 1
		p := &pinPolicy{speed: 2}
		f := newTestFleet(t, cfg, p)
		f.arrive(0, 0, job.New(0, 0, 0.15, 200))
		// The core drains at 0.1 and its wakeup is armed rearmEpsilon
		// later; an arrival at the drain instant comes first.
		drain := f.d[0].Server().Cores[0].ProjectedIdle(0)
		f.arrive(0, drain, job.New(1, drain, drain+0.15, 200))
		last(t, p, TriggerIdleCore, drain)
	})
}

// A replan that moves a core's drain reschedules its armed idle wakeup in
// place, keeping the handle; a wakeup the owner already delivered without
// passing it to Wake is replaced by a fresh one.
func TestRearmIdleReschedulesOrReplaces(t *testing.T) {
	cfg := Defaults()
	cfg.Cores = 1
	var woke []float64
	engine := sim.NewEngine(func(e *sim.Event) error {
		if e.Kind == sim.KindCoreIdle {
			woke = append(woke, e.Time) // delivered, but not passed to Wake
		}
		return nil
	})
	d, err := NewDriver(&cfg, &pinPolicy{speed: 1}, -1, engine)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(0, job.New(0, 0, 10, 500)); err != nil {
		t.Fatal(err)
	}
	if err := d.Invoke(0, TriggerCounter); err != nil {
		t.Fatal(err)
	}
	armed := d.idle[0]
	if armed.id == 0 || engine.Pending() != 1 {
		t.Fatalf("idle wakeup %+v, %d pending; want one idle wakeup armed", armed, engine.Pending())
	}

	// A wedged DVFS at twice the speed halves the drain.
	d.Server().Cores[0].SetStuck(2)
	if err := d.Invoke(0.1, TriggerFault); err != nil {
		t.Fatal(err)
	}
	moved := d.idle[0]
	if moved.id != armed.id || moved.at >= armed.at || engine.Pending() != 1 {
		t.Fatalf("after the replan: wakeup %+v (was %+v), %d pending; want the same handle, earlier, alone",
			moved, armed, engine.Pending())
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 1 || woke[0] != moved.at {
		t.Fatalf("idle wakeups delivered at %v, want one at %v", woke, moved.at)
	}

	// The delivered wakeup is still armed in the driver: the next replan
	// must schedule a fresh one.
	now := engine.Now()
	if err := d.Enqueue(now, job.New(1, now, now+10, 500)); err != nil {
		t.Fatal(err)
	}
	if err := d.Invoke(now, TriggerCounter); err != nil {
		t.Fatal(err)
	}
	fresh := d.idle[0]
	if fresh.id == 0 || fresh.id == moved.id || fresh.at <= now {
		t.Fatalf("after a delivered wakeup: %+v (delivered %+v); want a fresh wakeup after %v", fresh, moved, now)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 2 || woke[1] != fresh.at {
		t.Fatalf("idle wakeups delivered at %v, want a second at %v", woke, fresh.at)
	}
}

// TestEnqueueStoresFDemand queues a job that is served and one that expires
// unplanned, each carrying a stale f(p_j) as a job re-routed from another
// machine might. Enqueue must overwrite it with f(p_j), and each
// finalization record must carry, bit for bit, the terms Accumulator.Add
// computes from scratch.
func TestEnqueueStoresFDemand(t *testing.T) {
	cfg := Defaults()
	f := newTestFleet(t, cfg, &pinPolicy{speed: 2}, &pinPolicy{})
	jobs := []*job.Job{job.New(1, 0, 0.15, 300), job.New(2, 0, 0.15, 900)}
	for m, j := range jobs {
		j.FDemand = 0.5
		f.arrive(m, 0, j)
		if want := cfg.Quality.Value(j.Demand); j.FDemand != want {
			t.Fatalf("job %d: stored f(p) %v after Enqueue, want %v", j.ID, j.FDemand, want)
		}
	}
	if err := f.engine.Run(); err != nil {
		t.Fatal(err)
	}
	for m, d := range f.d {
		if _, err := d.Settle(1); err != nil {
			t.Fatal(err)
		}
		recs := d.Finals()
		if len(recs) != 1 || recs[0].Job != jobs[m] {
			t.Fatalf("machine %d: finals %+v, want one for job %d", m, recs, jobs[m].ID)
		}
		j := jobs[m]
		achieved, possible := quality.NewAccumulator(cfg.Quality).Add(j.Processed, j.Demand)
		if recs[0].Achieved != achieved || recs[0].Possible != possible {
			t.Fatalf("machine %d: record terms (%v, %v), Add computes (%v, %v)",
				m, recs[0].Achieved, recs[0].Possible, achieved, possible)
		}
	}
	if jobs[0].Processed != jobs[0].Demand || jobs[1].Processed != 0 {
		t.Fatalf("processed %v and %v; want one job served in full and one not at all",
			jobs[0].Processed, jobs[1].Processed)
	}
}
