package verify

import (
	"strings"
	"testing"

	"goodenough/internal/core"
	"goodenough/internal/dist"
	"goodenough/internal/faults"
	"goodenough/internal/job"
	"goodenough/internal/machine"
	"goodenough/internal/power"
	"goodenough/internal/quality"
	"goodenough/internal/sched"
	"goodenough/internal/workload"
)

func shortSpec(rate float64, seed uint64) workload.Spec {
	s := workload.DefaultSpec(rate, seed)
	s.Duration = 15
	return s
}

// runChecked executes a full simulation under the invariant checker.
func runChecked(t *testing.T, cfg sched.Config, p sched.Policy, spec workload.Spec) *Checker {
	t.Helper()
	ck := Wrap(p)
	r, err := sched.NewRunner(cfg, ck, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return ck
}

func TestGEUpholdsAllInvariants(t *testing.T) {
	for _, rate := range []float64{100, 154, 210} {
		ck := runChecked(t, sched.Defaults(), core.NewGE(0.9), shortSpec(rate, 1))
		if !ck.Ok() {
			t.Fatalf("rate %v: GE violated invariants:\n%v", rate, ck.Violations()[0])
		}
	}
}

func TestEveryPolicyUpholdsInvariants(t *testing.T) {
	policies := []func() sched.Policy{
		func() sched.Policy { return core.NewBE() },
		func() sched.Policy { return core.NewOQ(0.9) },
		func() sched.Policy { return core.NewNoComp(0.9) },
		func() sched.Policy { return core.NewFixedDist(0.9, dist.PolicyES) },
		func() sched.Policy { return core.NewFixedDist(0.9, dist.PolicyWF) },
		func() sched.Policy { return core.NewBEP(200) },
		func() sched.Policy { return core.NewBES(1.8) },
		func() sched.Policy { return sched.NewFCFS() },
		func() sched.Policy { return sched.NewFDFS() },
		func() sched.Policy { return sched.NewLJF() },
		func() sched.Policy { return sched.NewSJF() },
	}
	for _, mk := range policies {
		p := mk()
		ck := runChecked(t, sched.Defaults(), p, shortSpec(180, 2))
		if !ck.Ok() {
			t.Fatalf("%s violated invariants:\n%v", p.Name(), ck.Violations()[0])
		}
	}
}

func TestDiscreteModeUpholdsInvariants(t *testing.T) {
	cfg := sched.Defaults()
	ladder, err := power.UniformLadder(3.2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ladder = ladder
	ck := runChecked(t, cfg, core.NewGE(0.9), shortSpec(170, 3))
	if !ck.Ok() {
		t.Fatalf("discrete GE violated invariants:\n%v", ck.Violations()[0])
	}
}

func TestTinyBudgetUpholdsInvariants(t *testing.T) {
	cfg := sched.Defaults()
	cfg.PowerBudget = 40 // starved machine
	ck := runChecked(t, cfg, core.NewGE(0.9), shortSpec(150, 4))
	if !ck.Ok() {
		t.Fatalf("starved GE violated invariants:\n%v", ck.Violations()[0])
	}
}

// rogueMigrator deliberately re-binds a queued job to another core to prove
// the checker catches migration.
type rogueMigrator struct {
	inner sched.Policy
	done  bool
}

func (r *rogueMigrator) Name() string { return "rogue" }
func (r *rogueMigrator) Reset()       { r.inner.Reset() }
func (r *rogueMigrator) Schedule(ctx *sched.Context) {
	r.inner.Schedule(ctx)
	if r.done {
		return
	}
	// Move the first planned job we find onto the next core.
	for _, c := range ctx.Server.Cores {
		q := c.Queue()
		if len(q) == 0 {
			continue
		}
		j := q[0]
		next := (c.Index + 1) % len(ctx.Server.Cores)
		j.Core = next
		ctx.Server.Cores[next].SetPlan([]machine.Entry{{Job: j, Speed: 1}})
		r.done = true
		return
	}
}

func TestCheckerCatchesMigration(t *testing.T) {
	ck := Wrap(&rogueMigrator{inner: core.NewGE(0.9)})
	r, err := sched.NewRunner(sched.Defaults(), ck, shortSpec(150, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if ck.Ok() {
		t.Fatal("checker missed a deliberate migration")
	}
	found := false
	for _, v := range ck.Violations() {
		if v.Rule == "no-migration" || v.Rule == "binding" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations lack migration rule: %v", ck.Violations())
	}
}

// rogueSpeeder plans a speed beyond the whole-budget cap.
type rogueSpeeder struct{ inner sched.Policy }

func (r *rogueSpeeder) Name() string { return "speeder" }
func (r *rogueSpeeder) Reset()       { r.inner.Reset() }
func (r *rogueSpeeder) Schedule(ctx *sched.Context) {
	r.inner.Schedule(ctx)
	for _, c := range ctx.Server.Cores {
		q := c.Queue()
		if len(q) > 0 {
			entries := make([]machine.Entry, len(q))
			for i, j := range q {
				entries[i] = machine.Entry{Job: j, Speed: 100} // absurd
			}
			c.SetPlan(entries)
			return
		}
	}
}

func TestCheckerCatchesOverspeed(t *testing.T) {
	ck := Wrap(&rogueSpeeder{inner: core.NewBE()})
	r, _ := sched.NewRunner(sched.Defaults(), ck, shortSpec(120, 6))
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	rules := map[string]bool{}
	for _, v := range ck.Violations() {
		rules[v.Rule] = true
	}
	if !rules["speed-cap"] && !rules["power-budget"] {
		t.Fatalf("checker missed overspeed: %v", ck.Violations())
	}
}

func TestViolationLimit(t *testing.T) {
	ck := Wrap(&rogueSpeeder{inner: core.NewBE()})
	ck.Limit = 5
	r, _ := sched.NewRunner(sched.Defaults(), ck, shortSpec(200, 7))
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ck.Violations()) > 5 {
		t.Fatalf("limit ignored: %d violations recorded", len(ck.Violations()))
	}
}

func TestCheckerResetClearsState(t *testing.T) {
	ck := Wrap(&rogueSpeeder{inner: core.NewBE()})
	r, _ := sched.NewRunner(sched.Defaults(), ck, shortSpec(120, 8))
	r.Run()
	if ck.Ok() {
		t.Fatal("expected violations before reset")
	}
	ck.Reset()
	if !ck.Ok() {
		t.Fatal("reset did not clear violations")
	}
}

func TestCheckerNamePassthrough(t *testing.T) {
	ck := Wrap(core.NewGE(0.9))
	if ck.Name() != "GE" {
		t.Fatalf("name = %q", ck.Name())
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Time: 1.5, Rule: "edf-order", Detail: "x"}
	s := v.String()
	if !strings.Contains(s, "edf-order") || !strings.Contains(s, "1.5") {
		t.Fatalf("violation string = %q", s)
	}
}

// targetTamperer sets an out-of-range target to prove target-range fires.
type targetTamperer struct{ inner sched.Policy }

func (r *targetTamperer) Name() string { return "tamper" }
func (r *targetTamperer) Reset()       { r.inner.Reset() }
func (r *targetTamperer) Schedule(ctx *sched.Context) {
	r.inner.Schedule(ctx)
	for _, c := range ctx.Server.Cores {
		for _, j := range c.Queue() {
			j.Target = j.Demand + 500 // bypass SetTarget clamps
			return
		}
	}
}

func TestCheckerCatchesBadTargets(t *testing.T) {
	ck := Wrap(&targetTamperer{inner: core.NewGE(0.9)})
	r, _ := sched.NewRunner(sched.Defaults(), ck, shortSpec(150, 9))
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range ck.Violations() {
		if v.Rule == "target-range" {
			found = true
		}
	}
	if !found {
		t.Fatalf("checker missed the tampered target: %v", ck.Violations())
	}
}

func TestHeterogeneousMachineUpholdsInvariants(t *testing.T) {
	cfg := sched.Defaults()
	models := make([]power.Model, cfg.Cores)
	for i := range models {
		if i < cfg.Cores/2 {
			models[i] = power.Model{A: 5, Beta: 2} // big
		} else {
			models[i] = power.Model{A: 2, Beta: 2, MaxSpeed: 1.6} // little
		}
	}
	cfg.PerCoreModels = models
	ck := runChecked(t, cfg, core.NewGE(0.9), shortSpec(160, 10))
	if !ck.Ok() {
		t.Fatalf("heterogeneous GE violated invariants:\n%v", ck.Violations()[0])
	}
}

// faultyConfig builds a Defaults config with a representative mixed fault
// schedule: two mid-run core failures (one transient), a facility budget
// cap window, and a stuck-DVFS window.
func faultyConfig(t *testing.T) sched.Config {
	t.Helper()
	cfg := sched.Defaults()
	fs, err := faults.New(faults.Cores, []faults.Spec{
		{At: 3, Kind: faults.CoreFail, Target: 2},
		{At: 4, Kind: faults.CoreFail, Target: 5, Duration: 5},
		{At: 6, Kind: faults.BudgetCap, Value: 160, Duration: 4},
		{At: 2, Kind: faults.SpeedStuck, Target: 9, Value: 1.0, Duration: 6},
	}, cfg.Cores, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fs
	return cfg
}

func TestGEUpholdsInvariantsUnderFaults(t *testing.T) {
	for _, rate := range []float64{120, 180} {
		ck := runChecked(t, faultyConfig(t), core.NewGE(0.9), shortSpec(rate, 11))
		if !ck.Ok() {
			t.Fatalf("rate %v: GE under faults violated invariants:\n%v",
				rate, ck.Violations()[0])
		}
	}
}

func TestBaselinesUpholdInvariantsUnderFaults(t *testing.T) {
	for _, mk := range []func() sched.Policy{
		func() sched.Policy { return sched.NewFCFS() },
		func() sched.Policy { return core.NewBE() },
	} {
		p := mk()
		ck := runChecked(t, faultyConfig(t), p, shortSpec(150, 12))
		if !ck.Ok() {
			t.Fatalf("%s under faults violated invariants:\n%v", p.Name(), ck.Violations()[0])
		}
	}
}

// deadCorePlanner plans a waiting job onto a core it knows is failed.
type deadCorePlanner struct{ inner sched.Policy }

func (r *deadCorePlanner) Name() string { return "dead-core-planner" }
func (r *deadCorePlanner) Reset()       { r.inner.Reset() }
func (r *deadCorePlanner) Schedule(ctx *sched.Context) {
	r.inner.Schedule(ctx)
	var dead *machine.Core
	for _, c := range ctx.Server.Cores {
		if !c.Healthy() {
			dead = c
			break
		}
	}
	if dead == nil {
		return
	}
	// Steal a planned job from a healthy core and re-bind it to the dead
	// one (with the requeue counter bumped so only dead-core can fire).
	for _, c := range ctx.Server.Cores {
		q := c.Queue()
		if !c.Healthy() || len(q) == 0 {
			continue
		}
		j := q[len(q)-1]
		rest := make([]machine.Entry, 0, len(q)-1)
		for _, jj := range q[:len(q)-1] {
			rest = append(rest, machine.Entry{Job: jj, Speed: 1})
		}
		c.SetPlan(rest)
		j.Core = dead.Index
		j.Requeues++
		dead.SetPlan([]machine.Entry{{Job: j, Speed: 1}})
		return
	}
}

func TestCheckerCatchesDeadCorePlan(t *testing.T) {
	ck := Wrap(&deadCorePlanner{inner: core.NewGE(0.9)})
	r, err := sched.NewRunner(faultyConfig(t), ck, shortSpec(150, 13))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range ck.Violations() {
		if v.Rule == "dead-core" {
			found = true
		}
	}
	if !found {
		t.Fatalf("checker missed the dead-core plan: %v", ck.Violations())
	}
}

// sanctionedMover migrates one job but increments its requeue counter, as
// the runner's failure path would — the checker must accept the re-binding.
type sanctionedMover struct {
	inner sched.Policy
	done  bool
}

func (r *sanctionedMover) Name() string { return "sanctioned-mover" }
func (r *sanctionedMover) Reset()       { r.inner.Reset() }
func (r *sanctionedMover) Schedule(ctx *sched.Context) {
	r.inner.Schedule(ctx)
	if r.done || ctx.Now < 1 {
		return // let the checker learn some bindings first
	}
	for _, c := range ctx.Server.Cores {
		q := c.Queue()
		if len(q) == 0 {
			continue
		}
		j := q[0]
		rest := make([]machine.Entry, 0, len(q)-1)
		for _, jj := range q[1:] {
			rest = append(rest, machine.Entry{Job: jj, Speed: 1})
		}
		c.SetPlan(rest)
		next := (c.Index + 1) % len(ctx.Server.Cores)
		j.Core = next
		j.Requeues++ // the audit trail a core failure would have written
		nq := ctx.Server.Cores[next].Queue()
		entries := make([]machine.Entry, 0, len(nq)+1)
		for _, jj := range nq {
			entries = append(entries, machine.Entry{Job: jj, Speed: 1})
		}
		entries = append(entries, machine.Entry{Job: j, Speed: 1})
		ctx.Server.Cores[next].SetPlan(entries)
		r.done = true
		return
	}
}

func TestCheckerAcceptsRequeueSanctionedMove(t *testing.T) {
	ck := Wrap(&sanctionedMover{inner: core.NewGE(0.9)})
	r, err := sched.NewRunner(sched.Defaults(), ck, shortSpec(150, 14))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for _, v := range ck.Violations() {
		if v.Rule == "no-migration" {
			t.Fatalf("requeue-sanctioned move flagged as migration: %v", v)
		}
	}
}

// capIgnorer sizes speeds off the nominal budget even while a facility cap
// is active, so the checker's power-budget rule (against the *current* cap)
// must fire.
type capIgnorer struct{ inner sched.Policy }

func (r *capIgnorer) Name() string { return "cap-ignorer" }
func (r *capIgnorer) Reset()       { r.inner.Reset() }
func (r *capIgnorer) Schedule(ctx *sched.Context) {
	r.inner.Schedule(ctx)
	if ctx.Budget >= ctx.Cfg.PowerBudget {
		return // no cap active; behave
	}
	share := ctx.Cfg.PowerBudget / float64(len(ctx.Server.Cores))
	for _, c := range ctx.Server.Cores {
		q := c.Queue()
		if !c.Healthy() || len(q) == 0 {
			continue
		}
		speed := ctx.Cfg.ModelFor(c.Index).Speed(share)
		entries := make([]machine.Entry, len(q))
		for i, j := range q {
			entries[i] = machine.Entry{Job: j, Speed: speed}
		}
		c.SetPlan(entries)
	}
}

func TestCheckerEnforcesCurrentCap(t *testing.T) {
	cfg := sched.Defaults()
	fs, err := faults.New(faults.Cores, []faults.Spec{
		{At: 2, Kind: faults.BudgetCap, Value: 40},
	}, cfg.Cores, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fs
	ck := Wrap(&capIgnorer{inner: core.NewBE()})
	r, err := sched.NewRunner(cfg, ck, shortSpec(200, 15))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	rules := map[string]bool{}
	for _, v := range ck.Violations() {
		rules[v.Rule] = true
	}
	if !rules["power-budget"] && !rules["speed-cap"] {
		t.Fatalf("checker missed the ignored cap: %v", ck.Violations())
	}
}

// TestCheckerCatchesStaleMachine hands the checker a trigger whose machine
// was never advanced to the trigger time and whose waiting queue still holds
// an expired job: both halves of the settled rule must fire.
func TestCheckerCatchesStaleMachine(t *testing.T) {
	cfg := sched.Defaults()
	server, err := machine.NewServer(cfg.Cores, cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	var waiting job.FIFO
	waiting.Push(job.New(1, 0, 0.5, 200))
	ck := Wrap(sched.NewFCFS())
	ck.Schedule(&sched.Context{Now: 1, Cfg: &cfg, Budget: cfg.PowerBudget,
		Server: server, Waiting: &waiting, Monitor: quality.NewAccumulator(cfg.Quality)})
	var got []string
	for _, v := range ck.Violations() {
		if v.Rule == "settled" {
			got = append(got, v.Detail)
		}
	}
	if len(got) != 2 {
		t.Fatalf("settled violations = %q, want the stale clock and the expired job", got)
	}
}
