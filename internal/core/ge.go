// Package core implements the paper's contribution: the Good Enough (GE)
// scheduling algorithm for multicore servers (§III), together with its
// configurable family — OQ, BE, the compensation and power-distribution
// ablations, and the BE-P / BE-S control-policy baselines, which are all
// parameterizations of the same pipeline.
//
// The pipeline at every trigger (§III-E):
//
//  1. sweep expired jobs off the cores;
//  2. batch-assign the waiting queue to cores with Cumulative Round-Robin;
//  3. decide the execution mode: AES while the monitored quality is at or
//     above Q_GE, BQ below it (the compensation policy);
//  4. in AES mode, apply Longest-First job cutting per core to the target
//     quality; in BQ mode, restore full targets;
//  5. compute each core's power demand (the YDS peak speed of its cut
//     workload) and distribute the budget — Equal-Sharing under light load,
//     Water-Filling under heavy load (the hybrid policy);
//  6. per core: if the granted power cannot finish the workload, run
//     Quality-OPT as a second cut; then lay out the minimal-energy
//     Energy-OPT (YDS) plan, optionally rectified to discrete speeds.
package core

import (
	"math"

	"goodenough/internal/assign"
	"goodenough/internal/cut"
	"goodenough/internal/dist"
	"goodenough/internal/job"
	"goodenough/internal/machine"
	"goodenough/internal/obs"
	"goodenough/internal/power"
	"goodenough/internal/qopt"
	"goodenough/internal/sched"
	"goodenough/internal/yds"
)

// Options parameterize the GE pipeline. The zero value is not useful; use
// the constructors below or fill Target and Dist explicitly.
type Options struct {
	// Target is the batch quality the LF cutting aims for in AES mode.
	// GE uses the user's Q_GE; OQ uses Q_GE + 0.02.
	Target float64
	// Compensation enables the AES→BQ switch when the monitored quality
	// falls below the user's Q_GE (and back once it recovers).
	Compensation bool
	// AlwaysBQ disables cutting entirely (the Best-Effort baseline).
	AlwaysBQ bool
	// Dist selects the power-distribution policy (hybrid for GE, WF for
	// BE, or fixed ES/WF for the Fig. 6–7 ablations).
	Dist dist.Policy
	// Assigner maps batches onto cores; nil defaults to Cumulative RR.
	Assigner assign.Assigner
	// BudgetOverride, when positive, replaces the configured power budget
	// (the BE-P power-control baseline).
	BudgetOverride float64
	// SpeedCap, when positive, caps every core's speed in GHz (the BE-S
	// speed-control baseline).
	SpeedCap float64
	// MonitorWindow, when positive, evaluates the compensation trigger
	// over roughly the last MonitorWindow seconds of finalized quality
	// mass instead of the cumulative average (extension knob; the paper's
	// monitor is cumulative).
	MonitorWindow float64
}

// GE is the Good Enough scheduler (and its whole parameterized family).
type GE struct {
	name string
	opts Options

	inAES bool
	// history of (time, achieved, possible) snapshots for the optional
	// windowed monitor.
	hist []monitorSnap
	// lastHeavy/heavySet track the hybrid distribution's regime so the
	// ES↔WF crossings can be emitted as EventDistSwitch.
	lastHeavy bool
	heavySet  bool

	// scratch holds every buffer the pipeline needs per trigger, reused
	// across Schedule calls so the steady-state hot path allocates nothing.
	// Contents are only valid within one call. A GE is not goroutine-safe
	// (it never was — inAES and the assigner are per-instance state), so
	// per-instance scratch is safe: parallel seed runs construct one policy
	// per runner.
	scratch struct {
		eligible []int
		batch    []*job.Job
		loads    []float64
		perCore  [][]*job.Job
		queue    [][]*job.Job
		needs    []float64
		peaks    []float64
		free     []int
		compact  []float64
		alloc    []float64
		chosen   []float64
		entries  []machine.Entry
		plan     []yds.Assignment
		snap     []float64
		budgets  []float64
		cutter   cut.Cutter
		filler   dist.Filler
	}
}

// growFloats resizes buf to n zeroed entries, reallocating only while the
// high-water mark grows.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

type monitorSnap struct {
	t        float64
	achieved float64
	possible float64
}

// New builds a policy from explicit options.
func New(name string, opts Options) *GE {
	if opts.Assigner == nil {
		opts.Assigner = &assign.CumulativeRR{}
	}
	return &GE{name: name, opts: opts, inAES: !opts.AlwaysBQ}
}

// NewGE returns the paper's GE algorithm: cutting to qge, compensation on,
// hybrid ES/WF power distribution, C-RR assignment.
func NewGE(qge float64) *GE {
	return New("GE", Options{Target: qge, Compensation: true, Dist: dist.PolicyHybrid})
}

// NewOQ returns the Over-Qualified baseline: target qge+0.02, no
// compensation (§IV-A1).
func NewOQ(qge float64) *GE {
	return New("OQ", Options{Target: math.Min(qge+0.02, 1), Dist: dist.PolicyHybrid})
}

// NewBE returns the Best-Effort baseline: always BQ, always Water-Filling.
func NewBE() *GE {
	return New("BE", Options{Target: 1, AlwaysBQ: true, Dist: dist.PolicyWF})
}

// NewNoComp returns GE without the compensation policy (Fig. 5 ablation).
func NewNoComp(qge float64) *GE {
	return New("GE-NoComp", Options{Target: qge, Dist: dist.PolicyHybrid})
}

// NewFixedDist returns GE with a fixed power-distribution policy (the
// Fig. 6–7 WF-vs-ES ablation).
func NewFixedDist(qge float64, p dist.Policy) *GE {
	name := "GE-" + p.String()
	return New(name, Options{Target: qge, Compensation: true, Dist: p})
}

// NewBEP returns the power-control baseline BE-P: Best Effort under a
// reduced budget (calibrated by the experiment harness to the least budget
// that still meets Q_GE).
func NewBEP(budget float64) *GE {
	return New("BE-P", Options{Target: 1, AlwaysBQ: true, Dist: dist.PolicyWF,
		BudgetOverride: budget})
}

// NewBES returns the speed-control baseline BE-S: Best Effort under a
// per-core speed cap (calibrated likewise).
func NewBES(cap float64) *GE {
	return New("BE-S", Options{Target: 1, AlwaysBQ: true, Dist: dist.PolicyWF,
		SpeedCap: cap})
}

// Name implements sched.Policy.
func (g *GE) Name() string { return g.name }

// Reset implements sched.Policy.
func (g *GE) Reset() {
	g.inAES = !g.opts.AlwaysBQ
	g.hist = nil
	g.lastHeavy = false
	g.heavySet = false
	g.opts.Assigner.Reset()
	// Drop the job-pointer-holding scratch so a finished run's jobs are not
	// pinned across runs; the float buffers are harmless to keep.
	sc := &g.scratch
	sc.batch, sc.perCore, sc.queue = nil, nil, nil
	sc.entries, sc.plan = nil, nil
}

// Schedule implements sched.Policy — the full GE pipeline, degraded
// gracefully to whatever subset of the machine is currently healthy.
func (g *GE) Schedule(ctx *sched.Context) {
	cfg := ctx.Cfg
	now := ctx.Now
	model := cfg.Model

	// 1. Sweep jobs that expired while queued behind a running head.
	for _, c := range ctx.Server.Cores {
		c.DropExpired(now, ctx.Finalize)
	}

	// 2. Batch-assign everything that is waiting, over the surviving
	// cores only. With no healthy core the batch stays queued (it will be
	// shed or expire).
	sc := &g.scratch
	eligible := sc.eligible[:0]
	for _, c := range ctx.Server.Cores {
		if c.Healthy() {
			eligible = append(eligible, c.Index)
		}
	}
	sc.eligible = eligible
	batch := ctx.Waiting.AppendDrain(sc.batch[:0])
	sc.batch = batch[:0]
	if len(batch) > 0 {
		if len(eligible) == 0 {
			for _, j := range batch {
				ctx.Waiting.Push(j)
			}
			batch = nil
		} else {
			sc.loads = ctx.Server.AppendLoads(sc.loads[:0])
			g.opts.Assigner.Assign(batch, eligible, sc.loads)
			if ctx.Observer != nil {
				for _, j := range batch {
					ctx.Observer.Observe(obs.Event{Time: now, Type: obs.EventJobAssign,
						Core: j.Core, Job: j.ID, Value: j.Remaining(), Aux: j.Deadline})
				}
			}
		}
	}
	if cap(sc.perCore) < cfg.Cores {
		perCore := make([][]*job.Job, cfg.Cores)
		copy(perCore, sc.perCore)
		sc.perCore = perCore
	}
	perCore := sc.perCore[:cfg.Cores]
	sc.perCore = perCore
	for i := range perCore {
		perCore[i] = perCore[i][:0]
	}
	for _, c := range ctx.Server.Cores {
		perCore[c.Index] = c.AppendQueue(perCore[c.Index])
	}
	for _, j := range batch {
		perCore[j.Core] = append(perCore[j.Core], j)
	}

	// 3. Mode decision (the compensation policy).
	g.decideMode(ctx)
	ctx.SetMode(g.inAES)

	// 4. Cut (AES) or restore (BQ), per core (§III-E).
	for i := range perCore {
		if len(perCore[i]) == 0 {
			continue
		}
		if g.inAES {
			before := g.snapTargets(ctx, perCore[i])
			sc.cutter.Cut(perCore[i], cfg.Quality, g.opts.Target)
			emitCuts(ctx, now, perCore[i], before)
		} else {
			cut.Restore(perCore[i])
		}
	}

	// 5. Power distribution over per-core demands — the *current* budget
	// (which a facility-level cap may have shrunk) split across the
	// surviving cores. Stuck-DVFS cores run at their wedged speed no
	// matter what the scheduler wants, so their draw is reserved off the
	// top and the remainder is distributed over the free healthy cores.
	// Each healthy core's jobs are sorted into EDF order here, in place,
	// and its uncapped YDS peak is kept in needs: step 6 plans from both.
	// A stable in-place sort yields exactly the order a sorted copy has.
	budget := ctx.Budget
	if budget <= 0 {
		budget = cfg.PowerBudget
	}
	if g.opts.BudgetOverride > 0 && g.opts.BudgetOverride < budget {
		budget = g.opts.BudgetOverride
	}
	needs := growFloats(sc.needs, cfg.Cores)
	peaks := growFloats(sc.peaks, cfg.Cores)
	sc.needs, sc.peaks = needs, peaks
	if ctx.Observer != nil && len(sc.queue) < cfg.Cores {
		queue := make([][]*job.Job, cfg.Cores)
		copy(queue, sc.queue)
		sc.queue = queue
	}
	stuckDraw := 0.0
	for i := range perCore {
		coreModel := cfg.ModelFor(i)
		core := ctx.Server.Cores[i]
		if !core.Healthy() {
			continue // dead cores demand nothing
		}
		if jobs := perCore[i]; len(jobs) > 0 {
			// EventJobCut is emitted in queue order (part of the golden
			// trace), so an observer keeps that order for step 6.
			if ctx.Observer != nil {
				sc.queue[i] = append(sc.queue[i][:0], jobs...)
			}
			job.SortEDF(jobs)
			needs[i] = yds.PeakSpeedEDF(now, jobs)
		}
		if s := core.StuckSpeed(); s > 0 {
			if len(perCore[i]) > 0 {
				stuckDraw += coreModel.Power(s)
			}
			peaks[i] = s
			continue
		}
		maxSpeed := coreModel.Speed(budget) // a core can use at most everything
		if g.opts.SpeedCap > 0 && g.opts.SpeedCap < maxSpeed {
			maxSpeed = g.opts.SpeedCap
		}
		peak := needs[i]
		if peak > maxSpeed {
			peak = maxSpeed
		}
		peaks[i] = peak
	}
	free := sc.free[:0]
	for _, i := range eligible {
		if ctx.Server.Cores[i].StuckSpeed() <= 0 {
			free = append(free, i)
		}
	}
	sc.free = free
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
	compact := growFloats(sc.compact, len(free))
	sc.compact = compact
	for k, i := range free {
		compact[k] = cfg.ModelFor(i).Power(peaks[i])
	}
	compactAlloc := sc.filler.Distribute(g.opts.Dist, distributable, compact, heavy)
	alloc := growFloats(sc.alloc, cfg.Cores)
	sc.alloc = alloc
	for k, i := range free {
		alloc[i] = compactAlloc[k]
	}

	// Discrete speed scaling: rectify each core's chosen speed against the
	// ladder (paper §IV-A5), lowest allocation first.
	var discSpeeds []float64
	if cfg.Ladder != nil {
		chosen := growFloats(sc.chosen, cfg.Cores)
		sc.chosen = chosen
		for i := range chosen {
			s := model.Speed(alloc[i])
			if peaks[i] < s {
				s = peaks[i] // don't ask for more than the workload needs
			}
			chosen[i] = model.Power(s)
		}
		discSpeeds, _ = sc.filler.RectifyDiscrete(model, cfg.Ladder, budget, chosen)
	}

	// 6. Per-core second cut + Energy-OPT plan. Dead cores keep an empty
	// plan; stuck cores plan at their wedged speed (the hardware ignores
	// any other request). perCore[i] is in EDF order since step 5, and it
	// serves the Quality-OPT cut and the plan layout.
	for i, c := range ctx.Server.Cores {
		edf := perCore[i]
		if !c.Healthy() || len(edf) == 0 {
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
		entries := sc.entries[:0]
		if speedCap <= 0 {
			// No power granted: park the jobs; they expire at deadlines.
			for _, j := range edf {
				entries = append(entries, machine.Entry{Job: j, Speed: 0})
			}
			sc.entries = entries
			c.SetPlan(entries) // SetPlan copies; entries stays reusable
			continue
		}
		// Only this core's Quality-OPT moves its jobs' targets, so the peak
		// step 5 kept is still the peak of edf.
		if needs[i] > speedCap*(1+1e-9) {
			queue := edf
			if ctx.Observer != nil {
				queue = sc.queue[i]
			}
			before := g.snapTargets(ctx, queue)
			_, sc.budgets = qopt.AllocateEDF(now, edf, power.Rate(speedCap), sc.budgets)
			emitCuts(ctx, now, queue, before)
		}
		if cfg.Ladder != nil {
			// Core-level constant discrete speed, EDF order.
			for _, j := range edf {
				entries = append(entries, machine.Entry{Job: j, Speed: speedCap})
			}
		} else {
			plan := yds.AppendPlanCommonRelease(sc.plan[:0], now, edf, speedCap)
			sc.plan = plan
			for _, a := range plan {
				entries = append(entries, machine.Entry{Job: a.Job, Speed: a.Speed})
			}
		}
		sc.entries = entries
		c.SetPlan(entries)
	}
}

// decideMode implements the compensation policy.
func (g *GE) decideMode(ctx *sched.Context) {
	if g.opts.AlwaysBQ {
		g.inAES = false
		return
	}
	if !g.opts.Compensation {
		g.inAES = true
		return
	}
	g.inAES = g.monitoredQuality(ctx) >= ctx.Cfg.QGE
}

// monitoredQuality returns the cumulative achieved quality, or the windowed
// quality when MonitorWindow is set.
func (g *GE) monitoredQuality(ctx *sched.Context) float64 {
	acc := ctx.Monitor
	if g.opts.MonitorWindow <= 0 {
		return acc.Quality()
	}
	snap := monitorSnap{t: ctx.Now, achieved: acc.Achieved(), possible: acc.Possible()}
	g.hist = append(g.hist, snap)
	cutoff := ctx.Now - g.opts.MonitorWindow
	// Drop history older than the window, keeping one snapshot at or
	// before the cutoff as the baseline.
	for len(g.hist) > 1 && g.hist[1].t <= cutoff {
		g.hist = g.hist[1:]
	}
	base := g.hist[0]
	dp := snap.possible - base.possible
	if dp <= 0 {
		return 1
	}
	return (snap.achieved - base.achieved) / dp
}

// snapTargets records the jobs' targets before a cutting pass so the diffs
// can be emitted as EventJobCut. Returns nil (and emitCuts no-ops) when no
// observer is attached, keeping the hot path allocation-free. The returned
// slice is GE-owned scratch: consume it (emitCuts) before the next snap.
func (g *GE) snapTargets(ctx *sched.Context, jobs []*job.Job) []float64 {
	if ctx.Observer == nil || len(jobs) == 0 {
		return nil
	}
	if cap(g.scratch.snap) < len(jobs) {
		g.scratch.snap = make([]float64, len(jobs))
	}
	ts := g.scratch.snap[:len(jobs)]
	for i, j := range jobs {
		ts[i] = j.Target
	}
	return ts
}

// emitCuts emits one EventJobCut per job whose target the pass reduced.
func emitCuts(ctx *sched.Context, now float64, jobs []*job.Job, before []float64) {
	if before == nil {
		return
	}
	for k, j := range jobs {
		if j.Target < before[k] {
			ctx.Observer.Observe(obs.Event{Time: now, Type: obs.EventJobCut,
				Core: j.Core, Job: j.ID, Value: j.Target, Aux: j.Demand})
		}
	}
}
