package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"goodenough/internal/cut"
	"goodenough/internal/dist"
	"goodenough/internal/job"
	"goodenough/internal/machine"
	"goodenough/internal/obs"
	"goodenough/internal/power"
	"goodenough/internal/qopt"
	"goodenough/internal/quality"
	"goodenough/internal/sched"
	"goodenough/internal/workload"
	"goodenough/internal/yds"
)

func shortSpec(rate float64, seed uint64) workload.Spec {
	s := workload.DefaultSpec(rate, seed)
	s.Duration = 30
	return s
}

func run(t *testing.T, cfg sched.Config, p sched.Policy, spec workload.Spec) sched.Result {
	t.Helper()
	r, err := sched.NewRunner(cfg, p, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGEHoldsTargetQuality(t *testing.T) {
	// Pre-overload, GE must sit at ~Q_GE (Fig. 3a).
	for _, rate := range []float64{100, 130, 154} {
		res := run(t, sched.Defaults(), NewGE(0.9), shortSpec(rate, 1))
		if res.Quality < 0.88 {
			t.Fatalf("rate %v: GE quality %v below target band", rate, res.Quality)
		}
		if res.Quality > 0.96 {
			t.Fatalf("rate %v: GE quality %v — cutting is not engaging", rate, res.Quality)
		}
	}
}

func TestGESavesEnergyVersusBE(t *testing.T) {
	// The headline: GE spends materially less energy than BE while meeting
	// Q_GE (paper: up to 23.9%).
	for _, rate := range []float64{100, 130, 154} {
		ge := run(t, sched.Defaults(), NewGE(0.9), shortSpec(rate, 2))
		be := run(t, sched.Defaults(), NewBE(), shortSpec(rate, 2))
		if ge.Energy >= be.Energy {
			t.Fatalf("rate %v: GE energy %v not below BE %v", rate, ge.Energy, be.Energy)
		}
		saving := 1 - ge.Energy/be.Energy
		if saving < 0.05 {
			t.Fatalf("rate %v: GE saving only %.1f%%", rate, saving*100)
		}
		if be.Quality < ge.Quality {
			t.Fatalf("rate %v: BE quality %v below GE %v", rate, be.Quality, ge.Quality)
		}
	}
}

func TestBEQualityNearOne(t *testing.T) {
	res := run(t, sched.Defaults(), NewBE(), shortSpec(100, 3))
	if res.Quality < 0.99 {
		t.Fatalf("BE light-load quality = %v, want ~1", res.Quality)
	}
	// BE never LF-cuts, but Quality-OPT may trim a few jobs in arrival
	// bursts where even Water-Filling cannot power every core fully.
	if frac := float64(res.CutJobs) / float64(res.Jobs); frac > 0.05 {
		t.Fatalf("BE cut %.1f%% of jobs; only rare burst trims are expected", frac*100)
	}
}

func TestAESFractionDeclinesWithLoad(t *testing.T) {
	// Fig. 1: high AES share at light load, near zero past overload.
	light := run(t, sched.Defaults(), NewGE(0.9), shortSpec(100, 4))
	heavy := run(t, sched.Defaults(), NewGE(0.9), shortSpec(220, 4))
	if light.AESFraction < 0.5 {
		t.Fatalf("light-load AES fraction = %v, want > 0.5", light.AESFraction)
	}
	if heavy.AESFraction > 0.3 {
		t.Fatalf("overload AES fraction = %v, want small", heavy.AESFraction)
	}
	if heavy.AESFraction >= light.AESFraction {
		t.Fatal("AES fraction should decline with load")
	}
}

func TestCompensationLiftsQuality(t *testing.T) {
	// Fig. 5: without compensation quality sags under load; with it, GE
	// holds the target at slightly higher energy.
	rate := 175.0
	comp := run(t, sched.Defaults(), NewGE(0.9), shortSpec(rate, 5))
	nocomp := run(t, sched.Defaults(), NewNoComp(0.9), shortSpec(rate, 5))
	if comp.Quality <= nocomp.Quality {
		t.Fatalf("compensation did not lift quality: %v vs %v", comp.Quality, nocomp.Quality)
	}
	if comp.Energy < nocomp.Energy {
		t.Fatalf("compensation should cost energy: %v vs %v", comp.Energy, nocomp.Energy)
	}
}

func TestNoCompNeverSwitches(t *testing.T) {
	res := run(t, sched.Defaults(), NewNoComp(0.9), shortSpec(200, 6))
	if res.ModeSwitches != 0 {
		t.Fatalf("no-comp recorded %d mode switches", res.ModeSwitches)
	}
	if res.AESFraction < 0.99 {
		t.Fatalf("no-comp AES fraction = %v, want ~1", res.AESFraction)
	}
}

func TestESLowerSpeedVarianceThanWFLightLoad(t *testing.T) {
	// Fig. 6b: under light load ES keeps core speeds tight while WF (with
	// compensation switching) thrashes.
	rate := 110.0
	es := run(t, sched.Defaults(), NewFixedDist(0.9, dist.PolicyES), shortSpec(rate, 7))
	wf := run(t, sched.Defaults(), NewFixedDist(0.9, dist.PolicyWF), shortSpec(rate, 7))
	if es.SpeedVariance >= wf.SpeedVariance {
		t.Fatalf("ES variance %v should be below WF %v at light load",
			es.SpeedVariance, wf.SpeedVariance)
	}
}

func TestESSavesEnergyAtLightLoadSameQuality(t *testing.T) {
	// Fig. 7: at light load ES matches WF's quality with less energy.
	rate := 110.0
	es := run(t, sched.Defaults(), NewFixedDist(0.9, dist.PolicyES), shortSpec(rate, 8))
	wf := run(t, sched.Defaults(), NewFixedDist(0.9, dist.PolicyWF), shortSpec(rate, 8))
	if math.Abs(es.Quality-wf.Quality) > 0.03 {
		t.Fatalf("light-load quality gap too large: ES %v WF %v", es.Quality, wf.Quality)
	}
	if es.Energy >= wf.Energy {
		t.Fatalf("ES energy %v should undercut WF %v at light load", es.Energy, wf.Energy)
	}
}

func TestWFBetterQualityAtHeavyLoad(t *testing.T) {
	// Fig. 7a: under heavy (pre-overload-ish) load WF exploits the budget
	// where ES strands power on light cores.
	rate := 185.0
	es := run(t, sched.Defaults(), NewFixedDist(0.9, dist.PolicyES), shortSpec(rate, 9))
	wf := run(t, sched.Defaults(), NewFixedDist(0.9, dist.PolicyWF), shortSpec(rate, 9))
	if wf.Quality < es.Quality-0.005 {
		t.Fatalf("WF quality %v should not trail ES %v at heavy load", wf.Quality, es.Quality)
	}
}

func TestOQOverProvisionsAtLightLoad(t *testing.T) {
	// OQ targets Q_GE+0.02 without compensation: more quality and more
	// energy than GE when the system keeps up.
	rate := 120.0
	ge := run(t, sched.Defaults(), NewGE(0.9), shortSpec(rate, 10))
	oq := run(t, sched.Defaults(), NewOQ(0.9), shortSpec(rate, 10))
	if oq.Quality <= ge.Quality-0.01 {
		t.Fatalf("OQ quality %v should be at or above GE %v pre-overload", oq.Quality, ge.Quality)
	}
	// At light load the two are close in energy (GE's compensation churn
	// roughly offsets OQ's higher target); OQ must not be dramatically
	// cheaper, or its "over-qualified" premise would be violated.
	if oq.Energy < ge.Energy*0.9 {
		t.Fatalf("OQ energy %v far below GE %v", oq.Energy, ge.Energy)
	}
}

func TestGEBeatsOQUnderOverload(t *testing.T) {
	// Fig. 3a: OQ "cannot satisfy the quality demand when the workload is
	// heavy" because it never compensates.
	rate := 185.0
	ge := run(t, sched.Defaults(), NewGE(0.9), shortSpec(rate, 11))
	oq := run(t, sched.Defaults(), NewOQ(0.9), shortSpec(rate, 11))
	if ge.Quality < oq.Quality-0.005 {
		t.Fatalf("GE quality %v should match or beat OQ %v under load", ge.Quality, oq.Quality)
	}
}

func TestBEPReducedBudget(t *testing.T) {
	// BE-P with a lower budget must use no more energy than plain BE.
	rate := 150.0
	be := run(t, sched.Defaults(), NewBE(), shortSpec(rate, 12))
	bep := run(t, sched.Defaults(), NewBEP(200), shortSpec(rate, 12))
	if bep.Energy > be.Energy+1e-6 {
		t.Fatalf("BE-P energy %v exceeds BE %v", bep.Energy, be.Energy)
	}
	if bep.Quality > be.Quality+1e-9 {
		t.Fatalf("BE-P quality %v exceeds BE %v", bep.Quality, be.Quality)
	}
}

func TestBESSpeedCap(t *testing.T) {
	rate := 150.0
	bes := run(t, sched.Defaults(), NewBES(1.5), shortSpec(rate, 13))
	if bes.AvgSpeed > 1.5+1e-6 {
		t.Fatalf("BE-S average speed %v exceeds the 1.5 GHz cap", bes.AvgSpeed)
	}
	be := run(t, sched.Defaults(), NewBE(), shortSpec(rate, 13))
	if bes.Quality > be.Quality+1e-9 {
		t.Fatalf("capped BE-S quality %v above BE %v", bes.Quality, be.Quality)
	}
}

func TestHigherBudgetHelpsUnderLoad(t *testing.T) {
	// Fig. 10: more budget → better quality under heavy load; energy rises
	// with budget until saturation.
	rate := 200.0
	cfg80 := sched.Defaults()
	cfg80.PowerBudget = 80
	cfg480 := sched.Defaults()
	cfg480.PowerBudget = 480
	lo := run(t, cfg80, NewGE(0.9), shortSpec(rate, 14))
	hi := run(t, cfg480, NewGE(0.9), shortSpec(rate, 14))
	if hi.Quality <= lo.Quality {
		t.Fatalf("bigger budget should raise overloaded quality: %v vs %v", hi.Quality, lo.Quality)
	}
	if hi.Energy <= lo.Energy {
		t.Fatalf("bigger budget should spend more energy under overload: %v vs %v",
			hi.Energy, lo.Energy)
	}
}

func TestMoreCoresHelp(t *testing.T) {
	// Fig. 11: with the same budget, more cores raise quality and lower
	// energy (convexity of the power curve).
	rate := 150.0
	cfg2 := sched.Defaults()
	cfg2.Cores = 2
	cfg32 := sched.Defaults()
	cfg32.Cores = 32
	small := run(t, cfg2, NewGE(0.9), shortSpec(rate, 15))
	big := run(t, cfg32, NewGE(0.9), shortSpec(rate, 15))
	if big.Quality <= small.Quality {
		t.Fatalf("more cores should raise quality: %v (32) vs %v (2)", big.Quality, small.Quality)
	}
	if big.Energy >= small.Energy {
		t.Fatalf("more cores should lower energy: %v (32) vs %v (2)", big.Energy, small.Energy)
	}
}

func TestConcavityHelpsQualityUnderLoad(t *testing.T) {
	// Fig. 9a: a more concave quality function (larger c) yields higher
	// measured quality at the same load.
	rate := 200.0
	mkCfg := func(c float64) sched.Config {
		cfg := sched.Defaults()
		cfg.Quality = qualityExp(c)
		return cfg
	}
	low := run(t, mkCfg(0.0005), NewGE(0.9), shortSpec(rate, 16))
	high := run(t, mkCfg(0.009), NewGE(0.9), shortSpec(rate, 16))
	if high.Quality <= low.Quality {
		t.Fatalf("larger c should raise quality: c=0.009 → %v vs c=0.0005 → %v",
			high.Quality, low.Quality)
	}
}

func TestDiscreteSpeedScaling(t *testing.T) {
	// Fig. 12: discrete scaling stays close to continuous on both axes.
	rate := 150.0
	cont := run(t, sched.Defaults(), NewGE(0.9), shortSpec(rate, 17))
	cfgD := sched.Defaults()
	ladder, err := power.UniformLadder(3.2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfgD.Ladder = ladder
	disc := run(t, cfgD, NewGE(0.9), shortSpec(rate, 17))
	if math.Abs(disc.Quality-cont.Quality) > 0.05 {
		t.Fatalf("discrete quality %v too far from continuous %v", disc.Quality, cont.Quality)
	}
	if disc.Energy <= 0 {
		t.Fatal("discrete run recorded no energy")
	}
	ratio := disc.Energy / cont.Energy
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("discrete energy ratio %v out of plausible band", ratio)
	}
}

func TestGEDeterminism(t *testing.T) {
	a := run(t, sched.Defaults(), NewGE(0.9), shortSpec(154, 18))
	b := run(t, sched.Defaults(), NewGE(0.9), shortSpec(154, 18))
	if a.Quality != b.Quality || a.Energy != b.Energy || a.AESFraction != b.AESFraction {
		t.Fatalf("GE runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestAllJobsAccountedGE(t *testing.T) {
	res := run(t, sched.Defaults(), NewGE(0.9), shortSpec(200, 19))
	if int64(res.Jobs) != res.Completed+res.Expired {
		t.Fatalf("%d jobs vs %d completed + %d expired", res.Jobs, res.Completed, res.Expired)
	}
}

func TestModeSwitchesHappen(t *testing.T) {
	// Near the knee GE should alternate AES/BQ (the compensation policy in
	// action).
	res := run(t, sched.Defaults(), NewGE(0.9), shortSpec(160, 20))
	if res.ModeSwitches == 0 {
		t.Fatal("GE never exercised the compensation switch near the knee")
	}
}

func TestWindowedMonitor(t *testing.T) {
	// The windowed-monitor extension must run and stay in the quality band.
	p := New("GE-windowed", Options{
		Target: 0.9, Compensation: true, Dist: dist.PolicyHybrid, MonitorWindow: 5,
	})
	res := run(t, sched.Defaults(), p, shortSpec(154, 21))
	if res.Quality < 0.85 {
		t.Fatalf("windowed monitor quality = %v", res.Quality)
	}
}

func TestGEReset(t *testing.T) {
	p := NewGE(0.9)
	spec := shortSpec(150, 22)
	r1, _ := sched.NewRunner(sched.Defaults(), p, spec)
	a, err := r1.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Re-using the same policy object must reproduce the run exactly
	// (Reset clears the C-RR cursor and mode latch).
	r2, _ := sched.NewRunner(sched.Defaults(), p, spec)
	b, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Quality != b.Quality || a.Energy != b.Energy {
		t.Fatalf("policy reuse diverged: %+v vs %+v", a, b)
	}
}

func TestInAESAccessor(t *testing.T) {
	if !NewGE(0.9).inAES {
		t.Fatal("GE should start in AES mode")
	}
	if NewBE().inAES {
		t.Fatal("BE must never be in AES mode")
	}
}

func TestConstructorNames(t *testing.T) {
	cases := map[string]*GE{
		"GE": NewGE(0.9), "OQ": NewOQ(0.9), "BE": NewBE(),
		"GE-NoComp": NewNoComp(0.9), "BE-P": NewBEP(100), "BE-S": NewBES(2),
		"GE-equal-sharing": NewFixedDist(0.9, dist.PolicyES),
		"GE-water-filling": NewFixedDist(0.9, dist.PolicyWF),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("name = %q, want %q", p.Name(), want)
		}
	}
}

func TestOQTargetClamped(t *testing.T) {
	oq := NewOQ(0.995)
	if oq.opts.Target > 1 {
		t.Fatalf("OQ target %v exceeds 1", oq.opts.Target)
	}
}

// qualityExp builds the paper's quality function with the given concavity.
func qualityExp(c float64) quality.Function { return quality.NewExponential(c, 1000) }

func TestGlobalCutMatchesTargetToo(t *testing.T) {
	p := New("GE-global", Options{
		Target: 0.9, Compensation: true, Dist: dist.PolicyHybrid, GlobalCut: true,
	})
	res := run(t, sched.Defaults(), p, shortSpec(140, 30))
	if res.Quality < 0.88 || res.Quality > 0.96 {
		t.Fatalf("global-cut quality = %v, want ~0.9", res.Quality)
	}
}

func TestGlobalCutVsPerCore(t *testing.T) {
	// Global cutting sees the whole demand population, so its level is
	// uniform across cores; per-core cutting adapts to each core's batch.
	// Both must hold the target; energies should be within a few percent.
	perCore := run(t, sched.Defaults(), NewGE(0.9), shortSpec(130, 31))
	global := run(t, sched.Defaults(), New("GE-global", Options{
		Target: 0.9, Compensation: true, Dist: dist.PolicyHybrid, GlobalCut: true,
	}), shortSpec(130, 31))
	if global.Quality < 0.88 {
		t.Fatalf("global quality = %v", global.Quality)
	}
	ratio := global.Energy / perCore.Energy
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("global/per-core energy ratio = %v; expected close agreement", ratio)
	}
}

func TestZeroTargetCutsEverything(t *testing.T) {
	// Target 0 cuts every job to its floor: all jobs "complete" with zero
	// work, quality collapses to ~0, and energy is near zero. This also
	// exercises the zero-demand Water-Filling path (cores ask for no
	// power).
	p := New("GE-zero", Options{Target: 0, Dist: dist.PolicyWF})
	res := run(t, sched.Defaults(), p, shortSpec(120, 40))
	if res.Quality > 0.01 {
		t.Fatalf("target-0 quality = %v, want ~0", res.Quality)
	}
	if int64(res.Jobs) != res.Completed+res.Expired {
		t.Fatalf("accounting broken: %+v", res)
	}
	// Energy should be negligible compared to a real run.
	ref := run(t, sched.Defaults(), NewGE(0.9), shortSpec(120, 40))
	if res.Energy > ref.Energy*0.05 {
		t.Fatalf("target-0 energy %v should be tiny vs %v", res.Energy, ref.Energy)
	}
}

func TestVeryLowBudget(t *testing.T) {
	cfg := sched.Defaults()
	cfg.PowerBudget = 1 // one watt for the whole machine
	res := run(t, cfg, NewGE(0.9), shortSpec(100, 41))
	if int64(res.Jobs) != res.Completed+res.Expired {
		t.Fatalf("accounting broken on starved machine: %+v", res)
	}
	if res.Energy > 1*res.SimTime {
		t.Fatalf("energy %v exceeds the 1 W envelope", res.Energy)
	}
}

func TestSingleCoreMachine(t *testing.T) {
	cfg := sched.Defaults()
	cfg.Cores = 1
	cfg.PowerBudget = 20
	res := run(t, cfg, NewGE(0.9), shortSpec(12, 42))
	// One 2 GHz-max core at λ=12 (≈2300 u/s offered vs 2000 capacity) is
	// nearly saturated but must still function.
	if res.Quality <= 0.5 {
		t.Fatalf("single-core quality = %v", res.Quality)
	}
}

func TestGEModeEnergySplit(t *testing.T) {
	// Near the knee GE alternates modes; both buckets must be populated
	// and sum to the total.
	res := run(t, sched.Defaults(), NewGE(0.9), shortSpec(160, 43))
	if res.AESEnergy <= 0 || res.BQEnergy <= 0 {
		t.Fatalf("mode energy split degenerate: AES %v BQ %v", res.AESEnergy, res.BQEnergy)
	}
	if math.Abs(res.AESEnergy+res.BQEnergy-res.Energy) > 1e-6*res.Energy {
		t.Fatalf("split %v + %v != %v", res.AESEnergy, res.BQEnergy, res.Energy)
	}
}

// --- one-pass planning against the two-pass reference ---

// refSchedule is GE.Schedule as it was before step 5 kept each core's EDF
// order and uncapped peak for step 6: step 5 takes each core's peak from a
// sorted copy of its jobs, and step 6 copies, sorts and takes the peak
// again. It cuts with cut.LongestFirst and distributes with the stand-alone
// dist functions, which set the same targets and allocations as the
// scheduler's reused Cutter and Filler.
func refSchedule(g *GE, ctx *sched.Context) {
	cfg := ctx.Cfg
	now := ctx.Now
	model := cfg.Model

	for _, c := range ctx.Server.Cores {
		c.DropExpired(now, ctx.Finalize)
	}
	var eligible []int
	for _, c := range ctx.Server.Cores {
		if c.Healthy() {
			eligible = append(eligible, c.Index)
		}
	}
	batch := ctx.Waiting.AppendDrain(nil)
	if len(batch) > 0 {
		if len(eligible) == 0 {
			for _, j := range batch {
				ctx.Waiting.Push(j)
			}
			batch = nil
		} else {
			g.opts.Assigner.Assign(batch, eligible, ctx.Server.AppendLoads(nil))
			if ctx.Observer != nil {
				for _, j := range batch {
					ctx.Observer.Observe(obs.Event{Time: now, Type: obs.EventJobAssign,
						Core: j.Core, Job: j.ID, Value: j.Remaining(), Aux: j.Deadline})
				}
			}
		}
	}
	perCore := make([][]*job.Job, cfg.Cores)
	for _, c := range ctx.Server.Cores {
		perCore[c.Index] = c.AppendQueue(perCore[c.Index])
	}
	for _, j := range batch {
		perCore[j.Core] = append(perCore[j.Core], j)
	}

	g.decideMode(ctx)
	ctx.SetMode(g.inAES)

	if g.opts.GlobalCut {
		var all []*job.Job
		for i := range perCore {
			all = append(all, perCore[i]...)
		}
		if g.inAES {
			before := g.snapTargets(ctx, all)
			cut.LongestFirst(all, cfg.Quality, g.opts.Target)
			emitCuts(ctx, now, all, before)
		} else {
			cut.Restore(all)
		}
	} else {
		for i := range perCore {
			if len(perCore[i]) == 0 {
				continue
			}
			if g.inAES {
				before := g.snapTargets(ctx, perCore[i])
				cut.LongestFirst(perCore[i], cfg.Quality, g.opts.Target)
				emitCuts(ctx, now, perCore[i], before)
			} else {
				cut.Restore(perCore[i])
			}
		}
	}

	budget := ctx.Budget
	if budget <= 0 {
		budget = cfg.PowerBudget
	}
	if g.opts.BudgetOverride > 0 && g.opts.BudgetOverride < budget {
		budget = g.opts.BudgetOverride
	}
	demands := make([]float64, cfg.Cores)
	peaks := make([]float64, cfg.Cores)
	stuckDraw := 0.0
	for i := range perCore {
		coreModel := cfg.ModelFor(i)
		core := ctx.Server.Cores[i]
		if !core.Healthy() {
			continue
		}
		if s := core.StuckSpeed(); s > 0 {
			if len(perCore[i]) > 0 {
				stuckDraw += coreModel.Power(s)
			}
			peaks[i] = s
			continue
		}
		maxSpeed := coreModel.Speed(budget)
		if g.opts.SpeedCap > 0 && g.opts.SpeedCap < maxSpeed {
			maxSpeed = g.opts.SpeedCap
		}
		peak := refPeakSpeed(now, perCore[i])
		if peak > maxSpeed {
			peak = maxSpeed
		}
		peaks[i] = peak
		demands[i] = coreModel.Power(peak)
	}
	var free []int
	for _, i := range eligible {
		if ctx.Server.Cores[i].StuckSpeed() <= 0 {
			free = append(free, i)
		}
	}
	distributable := budget - stuckDraw
	if distributable < 0 {
		distributable = 0
	}
	heavy := ctx.ArrivalRate >= cfg.CriticalLoad
	if g.opts.Dist == dist.PolicyHybrid && (!g.heavySet || heavy != g.lastHeavy) {
		obs.Emit(ctx.Observer, obs.Event{Time: now, Type: obs.EventDistSwitch,
			Core: -1, Job: -1, Value: ctx.ArrivalRate, Flag: heavy})
	}
	g.lastHeavy, g.heavySet = heavy, true
	compact := make([]float64, len(free))
	for k, i := range free {
		compact[k] = demands[i]
	}
	compactAlloc := new(dist.Filler).Distribute(g.opts.Dist, distributable, compact, heavy)
	alloc := make([]float64, cfg.Cores)
	for k, i := range free {
		alloc[i] = compactAlloc[k]
	}
	var discSpeeds []float64
	if cfg.Ladder != nil {
		chosen := make([]float64, cfg.Cores)
		for i := range chosen {
			s := model.Speed(alloc[i])
			if peaks[i] < s {
				s = peaks[i]
			}
			chosen[i] = model.Power(s)
		}
		discSpeeds, _ = new(dist.Filler).RectifyDiscrete(model, cfg.Ladder, budget, chosen)
	}

	for i, c := range ctx.Server.Cores {
		jobs := perCore[i]
		if !c.Healthy() || len(jobs) == 0 {
			c.SetPlan(nil)
			continue
		}
		speedCap := cfg.ModelFor(i).Speed(alloc[i])
		if g.opts.SpeedCap > 0 && g.opts.SpeedCap < speedCap {
			speedCap = g.opts.SpeedCap
		}
		if cfg.Ladder != nil {
			speedCap = discSpeeds[i]
		}
		if s := c.StuckSpeed(); s > 0 {
			speedCap = s
		}
		edf := append([]*job.Job(nil), jobs...)
		job.SortEDF(edf)
		var entries []machine.Entry
		if speedCap <= 0 {
			for _, j := range edf {
				entries = append(entries, machine.Entry{Job: j, Speed: 0})
			}
			c.SetPlan(entries)
			continue
		}
		if yds.PeakSpeedEDF(now, edf) > speedCap*(1+1e-9) {
			before := g.snapTargets(ctx, jobs)
			qopt.AllocateEDF(now, edf, power.Rate(speedCap), nil)
			emitCuts(ctx, now, jobs, before)
		}
		if cfg.Ladder != nil {
			for _, j := range edf {
				entries = append(entries, machine.Entry{Job: j, Speed: speedCap})
			}
		} else {
			for _, a := range yds.AppendPlanCommonRelease(nil, now, edf, speedCap) {
				entries = append(entries, machine.Entry{Job: a.Job, Speed: a.Speed})
			}
		}
		c.SetPlan(entries)
	}
}

// refPeakSpeed is the YDS peak of a sorted copy of jobs, 0 for none.
func refPeakSpeed(now float64, jobs []*job.Job) float64 {
	if len(jobs) == 0 {
		return 0
	}
	edf := append([]*job.Job(nil), jobs...)
	job.SortEDF(edf)
	return yds.PeakSpeedEDF(now, edf)
}

// eventLog records every event it observes.
type eventLog []obs.Event

func (l *eventLog) Observe(e obs.Event) { *l = append(*l, e) }

// planMachine is one random machine at a trigger: a GE family member, a
// server whose cores hold plans in random (not EDF) order at random speeds,
// and a waiting queue. newPlanMachine builds the same machine, with fresh
// jobs, for the same seed.
type planMachine struct {
	g      *GE
	cfg    sched.Config
	server *machine.Server
	wait   job.FIFO
	acc    *quality.Accumulator
	jobs   []*job.Job // by ID
	log    eventLog   // the cores' events, and the policy's while observed
	fin    []string   // finalizations, in order
	rng    *rand.Rand // draws the jobs added between triggers
	budget float64
	rate   float64
}

func newPlanMachine(seed int64) *planMachine {
	rng := rand.New(rand.NewSource(seed))
	pm := &planMachine{cfg: sched.Defaults(), rng: rng}
	cfg := &pm.cfg
	cfg.Cores = 1 + rng.Intn(16)
	cfg.PowerBudget = 20 + 400*rng.Float64()
	switch rng.Intn(3) {
	case 0:
		ladder, err := power.UniformLadder(3.2, 16)
		if err != nil {
			panic(err)
		}
		cfg.Ladder = ladder
	case 1:
		for i := 0; i < cfg.Cores; i++ {
			cfg.PerCoreModels = append(cfg.PerCoreModels, power.Model{A: float64(3 + rng.Intn(6)), Beta: 2})
		}
	}
	switch rng.Intn(8) {
	case 0:
		pm.g = NewGE(0.9)
	case 1:
		pm.g = NewOQ(0.9)
	case 2:
		pm.g = NewBE()
	case 3:
		pm.g = NewBES(0.6 + 2.4*rng.Float64())
	case 4:
		pm.g = NewBEP(cfg.PowerBudget * (0.2 + 0.8*rng.Float64()))
	case 5:
		pm.g = New("GE-global", Options{Target: 0.9, Compensation: true, Dist: dist.PolicyHybrid, GlobalCut: true})
	case 6:
		pm.g = NewFixedDist(0.9, dist.PolicyWF)
	default:
		pm.g = New("GE-prop", Options{Target: 0.85, Dist: dist.PolicyProportional, SpeedCap: 2.5})
	}
	var err error
	if cfg.Heterogeneous() {
		pm.server, err = machine.NewHeterogeneousServer(cfg.PerCoreModels)
	} else {
		pm.server, err = machine.NewServer(cfg.Cores, cfg.Model)
	}
	if err != nil {
		panic(err)
	}
	pm.server.SetBudget(cfg.PowerBudget)
	pm.server.SetObserver(&pm.log)

	const now = 10.0
	failed, stuck := -1, -1
	if cfg.Cores > 1 && rng.Intn(2) == 0 {
		failed = rng.Intn(cfg.Cores)
	}
	if rng.Intn(2) == 0 {
		stuck = rng.Intn(cfg.Cores)
	}
	for i, c := range pm.server.Cores {
		var entries []machine.Entry
		for n := rng.Intn(6); n > 0; n-- {
			j := pm.newJob(now)
			j.Core, j.State = i, job.StateAssigned
			j.Advance(j.Demand * 0.5 * rng.Float64())
			if rng.Intn(3) == 0 {
				j.SetTarget(j.Processed + (j.Demand-j.Processed)*rng.Float64())
			}
			entries = append(entries, machine.Entry{Job: j, Speed: 0.5 + 2.5*rng.Float64()})
		}
		if err := c.SetPlan(entries); err != nil {
			panic(err)
		}
	}
	if failed >= 0 {
		pm.server.Cores[failed].Fail(now - 1)
	}
	if stuck >= 0 && stuck != failed {
		pm.server.Cores[stuck].SetStuck(0.3 + 2.5*rng.Float64())
	}
	for n := rng.Intn(40); n > 0; n-- {
		pm.wait.Push(pm.newJob(now))
	}
	pm.acc = quality.NewAccumulator(cfg.Quality)
	for n := 0; n < 20; n++ {
		d := 130 + 870*rng.Float64()
		pm.acc.Add(d*(0.7+0.3*rng.Float64()), d)
	}
	pm.budget = cfg.PowerBudget
	if rng.Intn(4) == 0 {
		pm.budget *= 0.3 + 0.7*rng.Float64() // a facility cap
	}
	pm.rate = cfg.CriticalLoad * (0.5 + rng.Float64())
	return pm
}

// newJob draws a job released within the last 0.2 s, with a random window
// (some already expired) and, now and then, a demand tied with others.
func (pm *planMachine) newJob(now float64) *job.Job {
	rng := pm.rng
	release := now - 0.2*rng.Float64()
	demand := 130 + 870*rng.Float64()
	if rng.Intn(6) == 0 {
		demand = float64(130 + 200*rng.Intn(3))
	}
	j := job.New(len(pm.jobs), release, release+0.02+0.3*rng.Float64(), demand)
	pm.jobs = append(pm.jobs, j)
	return j
}

// trigger runs one scheduling pass at now, through GE.Schedule or the
// two-pass reference.
func (pm *planMachine) trigger(now float64, observe, reference bool) {
	ctx := &sched.Context{Now: now, Cfg: &pm.cfg, Budget: pm.budget, Server: pm.server,
		Waiting: &pm.wait, Monitor: pm.acc, ArrivalRate: pm.rate, Finalize: pm.finalize}
	if observe {
		ctx.Observer = &pm.log
	}
	if reference {
		refSchedule(pm.g, ctx)
	} else {
		pm.g.Schedule(ctx)
	}
}

// finalize records a job leaving a core.
func (pm *planMachine) finalize(j *job.Job, r machine.Reason) {
	pm.fin = append(pm.fin, fmt.Sprintf("%d:%v@%v", j.ID, r, j.Finish))
}

// samePlans reports the first difference between two machines' jobs,
// plans, finalizations and event logs, bit for bit.
func samePlans(a, b *planMachine, now float64) error {
	if len(a.jobs) != len(b.jobs) {
		return fmt.Errorf("%d jobs vs %d", len(a.jobs), len(b.jobs))
	}
	for i, ja := range a.jobs {
		jb := b.jobs[i]
		if math.Float64bits(ja.Target) != math.Float64bits(jb.Target) ||
			math.Float64bits(ja.Processed) != math.Float64bits(jb.Processed) ||
			math.Float64bits(ja.Finish) != math.Float64bits(jb.Finish) ||
			ja.CutCount != jb.CutCount || ja.Core != jb.Core || ja.State != jb.State {
			return fmt.Errorf("job %d: %v (cuts %d) vs %v (cuts %d)", i, ja, ja.CutCount, jb, jb.CutCount)
		}
	}
	for i, ca := range a.server.Cores {
		cb := b.server.Cores[i]
		qa, qb := ca.Queue(), cb.Queue()
		if len(qa) != len(qb) {
			return fmt.Errorf("core %d plans %d jobs vs %d", i, len(qa), len(qb))
		}
		for k := range qa {
			if qa[k].ID != qb[k].ID {
				return fmt.Errorf("core %d plan position %d: job %d vs %d", i, k, qa[k].ID, qb[k].ID)
			}
		}
		if math.Float64bits(ca.CurrentSpeed()) != math.Float64bits(cb.CurrentSpeed()) ||
			math.Float64bits(ca.ProjectedIdle(now)) != math.Float64bits(cb.ProjectedIdle(now)) {
			return fmt.Errorf("core %d: speed %v, drain %v vs speed %v, drain %v", i,
				ca.CurrentSpeed(), ca.ProjectedIdle(now), cb.CurrentSpeed(), cb.ProjectedIdle(now))
		}
	}
	if math.Float64bits(a.server.Energy()) != math.Float64bits(b.server.Energy()) {
		return fmt.Errorf("energy %v vs %v", a.server.Energy(), b.server.Energy())
	}
	if a.wait.Len() != b.wait.Len() || len(a.fin) != len(b.fin) || len(a.log) != len(b.log) {
		return fmt.Errorf("waiting %d, finalized %d, events %d vs waiting %d, finalized %d, events %d",
			a.wait.Len(), len(a.fin), len(a.log), b.wait.Len(), len(b.fin), len(b.log))
	}
	for i := range a.fin {
		if a.fin[i] != b.fin[i] {
			return fmt.Errorf("finalization %d: %s vs %s", i, a.fin[i], b.fin[i])
		}
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			return fmt.Errorf("event %d: %+v vs %+v", i, a.log[i], b.log[i])
		}
	}
	return nil
}

// TestSchedulePlansMatchTwoPassReference runs GE.Schedule and the two-pass
// reference on identical random machines — random windows (queue order is
// not EDF order), a failed and a stuck core, SpeedCap, BudgetOverride, the
// discrete ladder and heterogeneous cores, global and per-core cutting —
// over two triggers with execution between them, and requires identical
// targets, plans, execution (speeds, energy, finalizations) and, with an
// observer attached, the identical event stream, EventJobCut order
// included.
func TestSchedulePlansMatchTwoPassReference(t *testing.T) {
	lfCuts, qoptCuts := 0, 0
	for seed := int64(1); seed <= 400; seed++ {
		for _, observe := range []bool{false, true} {
			got, want := newPlanMachine(seed), newPlanMachine(seed)
			now := 10.0
			for trig := 0; trig < 2; trig++ {
				got.trigger(now, observe, false)
				want.trigger(now, observe, true)
				if err := samePlans(got, want, now); err != nil {
					t.Fatalf("seed %d, observer %v, trigger %d (%s, %d cores, ladder %v): %v",
						seed, observe, trig, got.g.Name(), got.cfg.Cores, got.cfg.Ladder != nil, err)
				}
				// Run the plans, then queue the same new arrivals on both.
				now += 0.005 + 0.1*got.rng.Float64()
				want.rng.Float64()
				for _, pm := range []*planMachine{got, want} {
					if err := pm.server.Advance(now, pm.finalize); err != nil {
						t.Fatal(err)
					}
					for n := 1 + pm.rng.Intn(12); n > 0; n-- {
						pm.wait.Push(pm.newJob(now))
					}
				}
			}
			if err := samePlans(got, want, now); err != nil {
				t.Fatalf("seed %d, observer %v, after execution: %v", seed, observe, err)
			}
			for _, e := range got.log {
				switch {
				case e.Type != obs.EventJobCut:
				case got.g.opts.AlwaysBQ:
					qoptCuts++ // BQ never LF-cuts: step 6's Quality-OPT cut it
				default:
					lfCuts++
				}
			}
		}
	}
	// The event comparison is only as good as the cuts it saw.
	if lfCuts == 0 || qoptCuts == 0 {
		t.Fatalf("observed %d LF and %d Quality-OPT cut events; the machines exercise too little", lfCuts, qoptCuts)
	}
}
