// Package goodenough is a from-scratch reproduction of "When Good Enough
// Is Better: Energy-Aware Scheduling for Multicore Servers" (Hui, Du, Liu,
// Sun, He, Bader — IPDPSW 2017).
//
// It provides the Good Enough (GE) energy-aware scheduling algorithm for
// approximate interactive services on multicore DVFS servers, every
// baseline the paper compares against, and a discrete-event simulator to
// run them on. A single call drives a full simulation:
//
//	cfg := goodenough.DefaultConfig()
//	cfg.Scheduler = "ge"
//	cfg.ArrivalRate = 154
//	res, err := goodenough.Run(cfg)
//	// res.Quality ≈ 0.9, res.Energy in joules, res.AESFraction, ...
//
// Scheduler names accepted by Config.Scheduler:
//
//	ge        Good Enough (LF cutting + compensation + hybrid ES/WF)
//	oq        Over-Qualified (target QGE+0.02, no compensation)
//	be        Best Effort (no cutting, always Water-Filling)
//	ge-nocomp GE without the compensation policy
//	ge-es     GE pinned to Equal-Sharing power distribution
//	ge-wf     GE pinned to Water-Filling power distribution
//	be-p      Best Effort under a reduced power budget (set BEPBudget)
//	be-s      Best Effort under a per-core speed cap (set BESCap)
//	fcfs fdfs ljf sjf   classic single-job baselines
//
// Beyond the paper's fault-free setting, the simulator injects machine
// faults and degrades gracefully: Config.Faults lists deterministic fault
// windows (core failures, facility power caps, stuck DVFS), and
// Config.FaultMTBFSec/FaultMTTRSec draw a reproducible random failure
// schedule instead. Result then reports CoreFailures, RequeuedJobs,
// DroppedJobs, and the time-weighted SurvivingCapacity.
//
// The experiment harness reproducing every figure of the paper lives in
// cmd/gesweep; the per-figure benchmarks live in bench_test.go.
package goodenough

import (
	"context"
	"fmt"
	"io"
	"sort"

	"goodenough/internal/core"
	"goodenough/internal/dist"
	"goodenough/internal/faults"
	"goodenough/internal/metrics"
	"goodenough/internal/obs"
	"goodenough/internal/power"
	"goodenough/internal/quality"
	"goodenough/internal/sched"
	"goodenough/internal/workload"
)

// Config is the user-facing knob set: machine, workload, and scheduler.
type Config struct {
	// Scheduler selects the policy (see the package comment for names).
	Scheduler string

	// --- Machine (paper §IV-B defaults) ---

	// Cores is the number of DVFS cores (16).
	Cores int
	// PowerBudget is the total dynamic power budget H in watts (320).
	PowerBudget float64
	// PowerAlpha and PowerBeta parameterize the per-core dynamic power
	// P = a·s^β with s in GHz (a=5, β=2).
	PowerAlpha float64
	PowerBeta  float64
	// DiscreteSpeeds, when non-empty, restricts cores to these speeds
	// (GHz) — the discrete DVFS model of §IV-A5. Empty means continuous.
	DiscreteSpeeds []float64
	// CoreGroups, when non-empty, builds a heterogeneous (big.LITTLE)
	// machine: the groups are expanded in order and their counts override
	// Cores. Not combinable with DiscreteSpeeds.
	CoreGroups []CoreGroup

	// --- Quality model ---

	// QGE is the user-specified good-enough quality (0.9).
	QGE float64
	// QualityC is the concavity multiplier of Eq. 1 (0.003).
	QualityC float64
	// QualityFamily selects the quality-function family: "exp" (Eq. 1,
	// default), "log", "pow", or "linear". QualityC parameterizes each:
	// the exponential multiplier, the logarithmic k, or the power-law
	// gamma (clamped to (0,1]); "linear" ignores it.
	QualityFamily string

	// --- Workload ---

	// ArrivalRate is the Poisson request rate λ in req/s.
	ArrivalRate float64
	// ParetoAlpha, DemandMin, DemandMax parameterize the bounded Pareto
	// service demands in processing units (3, 130, 1000).
	ParetoAlpha float64
	DemandMin   float64
	DemandMax   float64
	// WindowMS is the response window in milliseconds (150). When
	// RandomWindow is set, windows are uniform in [WindowMinMS,
	// WindowMaxMS] (150–500) instead.
	WindowMS     float64
	RandomWindow bool
	WindowMinMS  float64
	WindowMaxMS  float64
	// DurationSec is the simulated arrival span in seconds (600).
	DurationSec float64
	// Seed fixes the workload streams for reproducibility.
	Seed uint64
	// Bursty, when set, replaces the homogeneous Poisson arrivals with a
	// two-phase Markov-modulated process (flash-crowd traffic): BurstHigh/
	// BurstLow req/s phases lasting on average BurstMeanHighSec/
	// BurstMeanLowSec. ArrivalRate is then ignored.
	Bursty           bool
	BurstHigh        float64
	BurstLow         float64
	BurstMeanHighSec float64
	BurstMeanLowSec  float64

	// --- Scheduler plumbing ---

	// QuantumMS is the quantum trigger period in milliseconds (500).
	QuantumMS float64
	// CounterTrigger is the waiting-queue length trigger (8).
	CounterTrigger int
	// CriticalLoad is the req/s threshold between Equal-Sharing and
	// Water-Filling in the hybrid distribution (154).
	CriticalLoad float64

	// Mix, when non-empty, replaces the single demand distribution with a
	// weighted mixture of request classes (e.g. an interactive tier plus
	// an analytics tier). The single-class Pareto/window fields above are
	// then ignored. The quality function still saturates at DemandMax, so
	// set DemandMax to the largest class Xmax.
	Mix []WorkloadClass

	// --- Baseline-specific ---

	// BEPBudget is the reduced budget used by the "be-p" scheduler.
	BEPBudget float64
	// BESCap is the per-core speed cap (GHz) used by "be-s".
	BESCap float64

	// --- Fault injection ---

	// Faults lists deterministic fault windows to inject (core failures,
	// facility-level power caps, stuck DVFS). See FaultSpec.
	Faults []FaultSpec
	// FaultMTBFSec and FaultMTTRSec, when both positive, generate a
	// reproducible random failure schedule instead: each core fails and
	// recovers as an independent renewal process with exponential
	// up-times (mean FaultMTBFSec) and down-times (mean FaultMTTRSec),
	// seeded from Seed over DurationSec. Ignored when Faults is set.
	FaultMTBFSec float64
	FaultMTTRSec float64
}

// FaultSpec describes one injected fault window (Config.Faults).
type FaultSpec struct {
	// AtSec is the onset time in seconds.
	AtSec float64
	// Kind selects the fault: "core-fail" (or "fail"), "budget-cap" (or
	// "cap"), "speed-stuck" (or "stuck").
	Kind string
	// Core is the target core index for core-fail and speed-stuck.
	Core int
	// DurationSec, when positive, recovers the fault at AtSec+DurationSec;
	// zero makes it permanent.
	DurationSec float64
	// Watts is the capped total budget for budget-cap.
	Watts float64
	// SpeedGHz is the wedged core speed for speed-stuck.
	SpeedGHz float64
}

// CoreGroup describes one cluster of identical cores in a heterogeneous
// machine (Config.CoreGroups).
type CoreGroup struct {
	// Count is the number of cores in the cluster.
	Count int
	// PowerAlpha and PowerBeta parameterize the cluster's power curve
	// P = a·s^β.
	PowerAlpha float64
	PowerBeta  float64
	// MaxSpeedGHz optionally caps the cluster's speed (0 = power-limited
	// only).
	MaxSpeedGHz float64
}

// WorkloadClass is one component of a mixed workload (Config.Mix).
type WorkloadClass struct {
	// Name labels the class in reports.
	Name string
	// Weight is the relative arrival share.
	Weight float64
	// ParetoAlpha, DemandMin, DemandMax parameterize the class demands.
	ParetoAlpha float64
	DemandMin   float64
	DemandMax   float64
	// WindowMS is the class response window; RandomWindow selects uniform
	// [WindowMinMS, WindowMaxMS] instead.
	WindowMS     float64
	RandomWindow bool
	WindowMinMS  float64
	WindowMaxMS  float64
}

// DefaultConfig returns the paper's §IV-B setup with the GE scheduler at
// the critical arrival rate.
func DefaultConfig() Config {
	return Config{
		Scheduler:      "ge",
		Cores:          16,
		PowerBudget:    320,
		PowerAlpha:     5,
		PowerBeta:      2,
		QGE:            0.9,
		QualityC:       0.003,
		ArrivalRate:    154,
		ParetoAlpha:    3,
		DemandMin:      130,
		DemandMax:      1000,
		WindowMS:       150,
		WindowMinMS:    150,
		WindowMaxMS:    500,
		DurationSec:    600,
		Seed:           2017,
		QuantumMS:      500,
		CounterTrigger: 8,
		CriticalLoad:   154,
	}
}

// Result reports what one simulation achieved.
type Result struct {
	// Scheduler is the policy that ran.
	Scheduler string
	// Quality is the achieved average quality Σf(c)/Σf(p) over all jobs.
	Quality float64
	// Energy is the total dynamic energy in joules.
	Energy float64
	// AESFraction is the share of time spent in the Aggressive Energy
	// Saving mode (GE family only).
	AESFraction float64
	// AvgSpeed and SpeedVariance are busy-time-weighted core-speed moments.
	AvgSpeed      float64
	SpeedVariance float64
	// Jobs, Completed, Expired, CutJobs count request outcomes.
	Jobs      int
	Completed int64
	Expired   int64
	CutJobs   int64
	// ModeSwitches counts AES↔BQ transitions.
	ModeSwitches int64
	// SimTime is the simulated span in seconds.
	SimTime float64
	// MeanResponse and P95Response summarize completed jobs' response
	// times in seconds (finish − release).
	MeanResponse float64
	P95Response  float64
	// AESEnergy and BQEnergy split Energy by the execution mode active
	// while it was consumed (GE family; always-BQ policies put everything
	// in BQEnergy).
	AESEnergy float64
	BQEnergy  float64
	// CoreFailures counts injected core-failure events that took effect.
	CoreFailures int64
	// RequeuedJobs counts jobs orphaned by a core failure and re-bound to
	// a surviving core (the one audited no-migration exception).
	RequeuedJobs int64
	// DroppedJobs counts waiting jobs shed by the degradation admission
	// control while the machine was below full capacity.
	DroppedJobs int64
	// SurvivingCapacity is the time-weighted fraction of core capacity
	// that stayed healthy over the run (1 on a fault-free run).
	SurvivingCapacity float64
	// Cancelled reports that the run was interrupted by its context
	// (RunContext, RunTraceContext, or RunOptions.Context) before all
	// arrivals drained. Every other field then describes the partial run
	// up to the interruption point.
	Cancelled bool
	// CancelReason says why a cancelled run stopped: "context canceled"
	// for an explicit cancellation, "context deadline exceeded" for a
	// deadline. Empty when Cancelled is false.
	CancelReason string
}

// Schedulers lists the accepted Config.Scheduler names.
func Schedulers() []string {
	names := make([]string, 0, len(schedulerMakers))
	for name := range schedulerMakers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

type makerArgs struct {
	qge       float64
	bepBudget float64
	besCap    float64
}

var schedulerMakers = map[string]func(a makerArgs) sched.Policy{
	"ge":        func(a makerArgs) sched.Policy { return core.NewGE(a.qge) },
	"oq":        func(a makerArgs) sched.Policy { return core.NewOQ(a.qge) },
	"be":        func(a makerArgs) sched.Policy { return core.NewBE() },
	"ge-nocomp": func(a makerArgs) sched.Policy { return core.NewNoComp(a.qge) },
	"ge-es":     func(a makerArgs) sched.Policy { return core.NewFixedDist(a.qge, dist.PolicyES) },
	"ge-wf":     func(a makerArgs) sched.Policy { return core.NewFixedDist(a.qge, dist.PolicyWF) },
	"be-p":      func(a makerArgs) sched.Policy { return core.NewBEP(a.bepBudget) },
	"be-s":      func(a makerArgs) sched.Policy { return core.NewBES(a.besCap) },
	"fcfs":      func(a makerArgs) sched.Policy { return sched.NewFCFS() },
	"fdfs":      func(a makerArgs) sched.Policy { return sched.NewFDFS() },
	"ljf":       func(a makerArgs) sched.Policy { return sched.NewLJF() },
	"sjf":       func(a makerArgs) sched.Policy { return sched.NewSJF() },
}

// Run executes one simulation described by cfg.
func Run(cfg Config) (Result, error) {
	scfg, spec, policy, err := lower(cfg)
	if err != nil {
		return Result{}, err
	}
	runner, err := sched.NewRunner(scfg, policy, spec)
	if err != nil {
		return Result{}, err
	}
	return finish(runner)
}

// RunContext is Run bounded by ctx: cancelling the context or passing its
// deadline interrupts the simulation within a bounded number of events and
// returns the *partial* Result with Cancelled set and CancelReason filled —
// not an error — so online callers always get the metrics accumulated up to
// the interruption. Configuration problems still surface as errors.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	return RunWithOptions(cfg, RunOptions{Context: ctx})
}

// RunTraceContext executes one simulation over a recorded workload trace
// (JSON, as produced by ExportTrace or cmd/getrace) instead of a synthetic
// stream. The workload fields of cfg (ArrivalRate, demand distribution,
// windows, duration, seed) are ignored; machine and scheduler fields apply.
// It is bounded by ctx, with the same partial-Result cancellation semantics
// as RunContext.
func RunTraceContext(ctx context.Context, cfg Config, traceJSON io.Reader) (Result, error) {
	return RunTraceWithOptions(cfg, traceJSON, RunOptions{Context: ctx})
}

// RunOptions attaches observability sinks to one simulation. The zero
// value is equivalent to Run: nothing is recorded and the scheduling path
// stays allocation-free.
type RunOptions struct {
	// Timeline, when non-nil, receives the sampled time series as CSV
	// after the run (quality, power, load, mode, per-core speeds, energy),
	// thinned to one sample per TimelineInterval seconds (0 keeps every
	// sample).
	Timeline         io.Writer
	TimelineInterval float64
	// Events, when non-nil, receives the full structured event stream as
	// JSON Lines — one object per event, grep/jq-friendly.
	Events io.Writer
	// Trace, when non-nil, receives the run in Chrome trace-event format:
	// open it in Perfetto (ui.perfetto.dev) or chrome://tracing to see one
	// track per core with job execution spans, speed counters, and fault
	// markers.
	Trace io.Writer
	// Report, when non-nil, receives a plain-text run report after the
	// run: event counters, latency histograms, and a per-core
	// utilization/energy table.
	Report io.Writer
	// Observer, when non-nil, additionally receives every structured
	// event (custom sinks; see internal/obs for the event taxonomy).
	Observer obs.Observer
	// Decisions, when non-nil, receives the structured decision stream as
	// JSON Lines — one record per admission, shed, mode switch, DVFS
	// replan, and fleet (re)dispatch, carrying the inputs each choice was
	// made on. Deterministic byte-for-byte for a seeded run.
	Decisions io.Writer
	// Spans, when non-nil, wraps the run and each scheduler invocation in
	// wall-clock trace spans on this bus, parented under SpanParent (pass
	// the zero SpanContext to root a fresh trace). This is how a serving
	// tier stitches the scheduler into a request's causal tree.
	Spans      *obs.SpanBus
	SpanParent obs.SpanContext
	// Context, when non-nil, bounds the run: cancelling it or passing its
	// deadline interrupts the simulation mid-flight and the run returns a
	// partial Result with Cancelled set instead of an error. Attached
	// sinks are still flushed, so a cancelled run's events and timeline
	// remain usable up to the interruption point.
	Context context.Context
}

// RunWithOptions is Run with observability sinks attached.
func RunWithOptions(cfg Config, opts RunOptions) (Result, error) {
	scfg, spec, policy, err := lower(cfg)
	if err != nil {
		return Result{}, err
	}
	runner, err := sched.NewRunner(scfg, policy, spec)
	if err != nil {
		return Result{}, err
	}
	return finishWithOptions(runner, scfg.Cores, opts)
}

// RunTraceWithOptions is RunTraceContext with observability sinks attached.
func RunTraceWithOptions(cfg Config, traceJSON io.Reader, opts RunOptions) (Result, error) {
	scfg, policy, err := cfg.compile()
	if err != nil {
		return Result{}, err
	}
	tr, err := workload.ReadTrace(traceJSON)
	if err != nil {
		return Result{}, err
	}
	src, err := workload.NewReplayer(tr)
	if err != nil {
		return Result{}, err
	}
	runner, err := sched.NewRunnerFromSource(scfg, policy, src)
	if err != nil {
		return Result{}, err
	}
	return finishWithOptions(runner, scfg.Cores, opts)
}

// finishWithOptions wires the requested sinks into the runner, executes the
// simulation, and flushes each sink in a deterministic order.
func finishWithOptions(runner *sched.Runner, cores int, opts RunOptions) (Result, error) {
	if opts.Context != nil {
		runner.SetContext(opts.Context)
		if opts.Spans == nil {
			// A serving tier hands its span bus down through the request
			// context (obs.ContextWithSpan), since the injectable Run
			// signature predates tracing.
			if bus, parent, ok := obs.SpanFromContext(opts.Context); ok {
				opts.Spans, opts.SpanParent = bus, parent
			}
		}
	}
	if opts.Spans != nil {
		runner.SetSpans(opts.Spans, opts.SpanParent)
	}
	var tl *metrics.Timeline
	if opts.Timeline != nil {
		tl = metrics.NewTimeline(opts.TimelineInterval)
		runner.SetTimeline(tl)
	}
	ex, o, ds := newExporters(opts, cores)
	if o != nil {
		runner.SetObserver(o)
	}
	if ds != nil {
		runner.SetDecisionSink(ds)
	}
	res, err := finish(runner)
	if err != nil {
		return Result{}, err
	}
	if tl != nil {
		if err := tl.WriteCSV(opts.Timeline); err != nil {
			return Result{}, err
		}
	}
	if err := ex.flush(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// exporters are the file sinks a RunOptions asks for. RunWithOptions and
// RunFleetWithOptions both build them with newExporters and write them
// out with flush, so the two entry points export identically.
type exporters struct {
	events    *obs.JSONL
	tracer    *obs.Tracer
	decisions *obs.DecisionLog
	col       *obs.Collector
	report    io.Writer
}

// newExporters builds the sinks opts asks for over a trace of cores core
// lanes. It returns them with the observer fan-out (opts.Observer last)
// and the decision fan-out, each nil when nothing listens.
func newExporters(opts RunOptions, cores int) (exporters, obs.Observer, obs.DecisionSink) {
	var ex exporters
	var sinks []obs.Observer
	var dsinks []obs.DecisionSink
	if opts.Events != nil {
		ex.events = obs.NewJSONL(opts.Events)
		sinks = append(sinks, ex.events)
	}
	if opts.Trace != nil {
		ex.tracer = obs.NewTracer(opts.Trace, cores)
		sinks = append(sinks, ex.tracer)
	}
	if opts.Decisions != nil {
		ex.decisions = obs.NewDecisionLog(opts.Decisions)
		dsinks = append(dsinks, ex.decisions)
	}
	if opts.Report != nil {
		ex.col, ex.report = obs.NewCollector(), opts.Report
		sinks = append(sinks, ex.col)
		dsinks = append(dsinks, ex.col)
	}
	sinks = append(sinks, opts.Observer)
	return ex, obs.Multi(sinks...), obs.DecisionSinks(dsinks...)
}

// flush writes out every exporter after the run, in a fixed order: events,
// trace, decisions, report.
func (ex exporters) flush() error {
	if ex.events != nil {
		if err := ex.events.Flush(); err != nil {
			return err
		}
	}
	if ex.tracer != nil {
		if err := ex.tracer.Flush(); err != nil {
			return err
		}
	}
	if ex.decisions != nil {
		if err := ex.decisions.Flush(); err != nil {
			return err
		}
	}
	if ex.col != nil {
		return ex.col.WriteReport(ex.report)
	}
	return nil
}

// ExportTrace generates the synthetic workload described by cfg and writes
// it as a JSON trace, so the exact request stream can be archived, shared,
// and replayed with RunTraceContext.
func ExportTrace(cfg Config, w io.Writer) error {
	_, spec, _, err := lower(cfg)
	if err != nil {
		return err
	}
	jobs := workload.NewGenerator(spec).All()
	tr := workload.Record(jobs, &spec, "exported by goodenough.ExportTrace")
	return tr.Write(w)
}

func finish(runner *sched.Runner) (Result, error) {
	res, err := runner.Run()
	if err != nil {
		return Result{}, err
	}
	return Result{
		Scheduler:     res.Scheduler,
		Quality:       res.Quality,
		Energy:        res.Energy,
		AESFraction:   res.AESFraction,
		AvgSpeed:      res.AvgSpeed,
		SpeedVariance: res.SpeedVariance,
		Jobs:          res.Jobs,
		Completed:     res.Completed,
		Expired:       res.Expired,
		CutJobs:       res.CutJobs,
		ModeSwitches:  res.ModeSwitches,
		SimTime:       res.SimTime,
		MeanResponse:  res.MeanResponse,
		P95Response:   res.P95Response,
		AESEnergy:     res.AESEnergy,
		BQEnergy:      res.BQEnergy,

		CoreFailures:      res.CoreFailures,
		RequeuedJobs:      res.RequeuedJobs,
		DroppedJobs:       res.DroppedJobs,
		SurvivingCapacity: res.SurvivingCapacity,

		Cancelled:    res.Cancelled,
		CancelReason: res.CancelReason,
	}, nil
}

// qualityFor instantiates the configured quality-function family.
func qualityFor(cfg Config) (quality.Function, error) {
	xmax := cfg.DemandMax
	switch cfg.QualityFamily {
	case "", "exp":
		return quality.NewExponential(cfg.QualityC, xmax), nil
	case "log":
		return quality.NewLogarithmic(cfg.QualityC, xmax), nil
	case "pow":
		gamma := cfg.QualityC
		if gamma > 1 {
			gamma = 1
		}
		return quality.NewPowerLaw(gamma, xmax), nil
	case "linear":
		return quality.NewLinear(xmax), nil
	default:
		return nil, fmt.Errorf("goodenough: unknown quality family %q (exp|log|pow|linear)",
			cfg.QualityFamily)
	}
}

// Validate checks every user-facing Config field — scheduler name,
// machine, quality model, fault schedule, and workload stream — without
// running the simulation. It is the single consolidated validation gate:
// every Run* variant performs exactly these checks (once) before running,
// so a config that passes Validate will not fail at admission time. The
// RunTrace* variants skip the workload-stream checks, since the trace
// supplies the jobs.
func (c Config) Validate() error {
	if _, _, err := c.compile(); err != nil {
		return err
	}
	return c.workloadSpec().Validate()
}

// workloadSpec builds the internal synthetic-workload description. The
// result is validated by Spec.Validate, not here.
func (c Config) workloadSpec() workload.Spec {
	spec := workload.Spec{
		ArrivalRate:  c.ArrivalRate,
		ParetoAlpha:  c.ParetoAlpha,
		Xmin:         c.DemandMin,
		Xmax:         c.DemandMax,
		Window:       c.WindowMS / 1000,
		RandomWindow: c.RandomWindow,
		WindowMin:    c.WindowMinMS / 1000,
		WindowMax:    c.WindowMaxMS / 1000,
		Duration:     c.DurationSec,
		Seed:         c.Seed,
	}
	if c.Bursty {
		spec.Burst = &workload.Burst{
			HighRate: c.BurstHigh, LowRate: c.BurstLow,
			MeanHigh: c.BurstMeanHighSec, MeanLow: c.BurstMeanLowSec,
		}
	}
	for _, m := range c.Mix {
		spec.Classes = append(spec.Classes, workload.Class{
			Name: m.Name, Weight: m.Weight,
			ParetoAlpha: m.ParetoAlpha, Xmin: m.DemandMin, Xmax: m.DemandMax,
			Window: m.WindowMS / 1000, RandomWindow: m.RandomWindow,
			WindowMin: m.WindowMinMS / 1000, WindowMax: m.WindowMaxMS / 1000,
		})
	}
	return spec
}

// lower converts the public Config into the internal configuration triple
// for a synthetic-workload run.
func lower(cfg Config) (sched.Config, workload.Spec, sched.Policy, error) {
	scfg, policy, err := cfg.compile()
	if err != nil {
		return sched.Config{}, workload.Spec{}, nil, err
	}
	spec := cfg.workloadSpec()
	if err := spec.Validate(); err != nil {
		return sched.Config{}, workload.Spec{}, nil, err
	}
	return scfg, spec, policy, nil
}

// compile validates the machine/scheduler/quality/fault fields and builds
// the internal sched.Config and policy. Together with Spec.Validate (the
// workload half, invoked from lower and Validate) this is the only place
// Config fields are checked — every Run* entry point funnels through it
// exactly once.
func (cfg Config) compile() (sched.Config, sched.Policy, error) {
	mk, ok := schedulerMakers[cfg.Scheduler]
	if !ok {
		return sched.Config{}, nil,
			fmt.Errorf("goodenough: unknown scheduler %q (valid: %v)", cfg.Scheduler, Schedulers())
	}
	if cfg.Scheduler == "be-p" && cfg.BEPBudget <= 0 {
		return sched.Config{}, nil,
			fmt.Errorf("goodenough: scheduler be-p requires BEPBudget > 0")
	}
	if cfg.Scheduler == "be-s" && cfg.BESCap <= 0 {
		return sched.Config{}, nil,
			fmt.Errorf("goodenough: scheduler be-s requires BESCap > 0")
	}
	if cfg.QualityC <= 0 || cfg.DemandMax <= 0 {
		return sched.Config{}, nil,
			fmt.Errorf("goodenough: QualityC and DemandMax must be positive")
	}
	qf, err := qualityFor(cfg)
	if err != nil {
		return sched.Config{}, nil, err
	}

	// Bound the core count before anything is sized by it: the groups are
	// summed, within the limit, before any is expanded, so no sum can
	// overflow.
	cores := cfg.Cores
	if len(cfg.CoreGroups) > 0 {
		cores = 0
		for _, g := range cfg.CoreGroups {
			if g.Count <= 0 {
				return sched.Config{}, nil,
					fmt.Errorf("goodenough: core group count must be positive, got %d", g.Count)
			}
			if g.Count > sched.MaxCores-cores {
				return sched.Config{}, nil,
					fmt.Errorf("goodenough: core groups exceed the limit of %d cores", sched.MaxCores)
			}
			cores += g.Count
		}
	}
	if cores > sched.MaxCores {
		return sched.Config{}, nil,
			fmt.Errorf("goodenough: %d cores exceed the limit of %d", cores, sched.MaxCores)
	}
	var perCore []power.Model
	if len(cfg.CoreGroups) > 0 {
		perCore = make([]power.Model, 0, cores)
		for _, g := range cfg.CoreGroups {
			m := power.Model{A: g.PowerAlpha, Beta: g.PowerBeta, MaxSpeed: g.MaxSpeedGHz}
			for i := 0; i < g.Count; i++ {
				perCore = append(perCore, m)
			}
		}
	}
	scfg := sched.Config{
		Cores:          cores,
		PowerBudget:    cfg.PowerBudget,
		Model:          power.Model{A: cfg.PowerAlpha, Beta: cfg.PowerBeta},
		PerCoreModels:  perCore,
		Quality:        qf,
		QGE:            cfg.QGE,
		CriticalLoad:   cfg.CriticalLoad,
		QuantumSec:     cfg.QuantumMS / 1000,
		CounterTrigger: cfg.CounterTrigger,
		RateWindow:     2,
	}
	if len(cfg.DiscreteSpeeds) > 0 {
		ladder, err := power.NewLadder(cfg.DiscreteSpeeds)
		if err != nil {
			return sched.Config{}, nil, err
		}
		scfg.Ladder = ladder
	}
	switch {
	case len(cfg.Faults) > 0:
		specs := make([]faults.Spec, len(cfg.Faults))
		for i, f := range cfg.Faults {
			kind, err := faults.ParseKind(faults.Cores, f.Kind)
			if err != nil {
				return sched.Config{}, nil,
					fmt.Errorf("goodenough: fault %d: %w", i, err)
			}
			value := f.Watts
			if kind == faults.SpeedStuck {
				value = f.SpeedGHz
			}
			specs[i] = faults.Spec{
				At: f.AtSec, Kind: kind, Target: f.Core,
				Duration: f.DurationSec, Value: value,
			}
		}
		fs, err := faults.New(faults.Cores, specs, cores, 0)
		if err != nil {
			return sched.Config{}, nil, fmt.Errorf("goodenough: %w", err)
		}
		scfg.Faults = fs
	case cfg.FaultMTBFSec > 0 || cfg.FaultMTTRSec > 0:
		if cfg.DurationSec <= 0 {
			return sched.Config{}, nil,
				fmt.Errorf("goodenough: the MTBF/MTTR fault generator needs DurationSec > 0")
		}
		fs, err := faults.Generate(cfg.Seed, cores, cfg.DurationSec,
			cfg.FaultMTBFSec, cfg.FaultMTTRSec)
		if err != nil {
			return sched.Config{}, nil, fmt.Errorf("goodenough: %w", err)
		}
		scfg.Faults = fs
	}
	if err := scfg.Validate(); err != nil {
		return sched.Config{}, nil, err
	}

	policy := mk(makerArgs{qge: cfg.QGE, bepBudget: cfg.BEPBudget, besCap: cfg.BESCap})
	return scfg, policy, nil
}
