// Package experiments reproduces every figure in the paper's evaluation
// (§IV). Each FigN function sweeps the arrival rate (or the figure's own
// axis) for the relevant schedulers and returns plot.Figure series shaped
// like the corresponding paper panel:
//
//	Fig. 1   AES-mode time fraction vs arrival rate
//	Fig. 2   LF job-cutting worked example (four jobs)
//	Fig. 3   quality & energy: GE, OQ, BE, FCFS, LJF, SJF (fixed windows)
//	Fig. 4   quality & energy incl. FDFS (random 150–500 ms windows)
//	Fig. 5   compensation vs no-compensation
//	Fig. 6   average core speed & speed variance: WF vs ES
//	Fig. 7   quality & energy: WF vs ES
//	Fig. 8   quality & energy: GE vs BE-P vs BE-S (calibrated)
//	Fig. 9   quality-function concavity sweep
//	Fig. 10  power-budget sweep (80/160/320/480 W)
//	Fig. 11  core-count sweep (2^0 … 2^6)
//	Fig. 12  continuous vs discrete speed scaling
//
// The ablations and extensions beyond the paper follow the same pattern.
// Each runner only names its lines (label, machine, policy) and panels
// (title, y label, extracted metric); one sweep validates the settings,
// runs every point, an independent simulation, on a worker pool sized to
// GOMAXPROCS, and draws one figure per panel. Targets lists every runner
// for gesweep, with its file names and any rate axis the paper fixes.
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"goodenough/internal/core"
	"goodenough/internal/cut"
	"goodenough/internal/dist"
	"goodenough/internal/job"
	"goodenough/internal/plot"
	"goodenough/internal/quality"
	"goodenough/internal/sched"
	"goodenough/internal/workload"
)

// Settings scope an experiment run.
type Settings struct {
	// Base is the machine/scheduler configuration every point starts from
	// (figures override individual fields).
	Base sched.Config
	// Duration is the simulated seconds per point. The paper uses 600 s;
	// tests and benches use less.
	Duration float64
	// Seed fixes the workload streams.
	Seed uint64
	// Rates is the arrival-rate axis (req/s).
	Rates []float64
	// Workers bounds sweep parallelism; 0 means GOMAXPROCS.
	Workers int
}

// DefaultSettings mirrors the paper: §IV-B configuration, 600 s runs,
// arrival rates 100–250 req/s.
func DefaultSettings() Settings {
	return Settings{
		Base:     sched.Defaults(),
		Duration: 600,
		Seed:     2017,
		Rates:    DefaultRates(),
	}
}

// DefaultRates is the x axis used by most paper figures.
func DefaultRates() []float64 {
	rates := make([]float64, 0, 16)
	for r := 100.0; r <= 250; r += 10 {
		rates = append(rates, r)
	}
	return rates
}

// Validate reports whether the settings are runnable.
func (s Settings) Validate() error {
	if err := s.Base.Validate(); err != nil {
		return err
	}
	if s.Duration <= 0 {
		return fmt.Errorf("experiments: duration must be positive, got %v", s.Duration)
	}
	if len(s.Rates) == 0 {
		return fmt.Errorf("experiments: no arrival rates given")
	}
	for _, r := range s.Rates {
		if r <= 0 {
			return fmt.Errorf("experiments: invalid arrival rate %v", r)
		}
	}
	return nil
}

func (s Settings) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// spec builds the workload for one sweep point. The same seed across rates
// keeps the demand distribution comparable; the rate itself perturbs the
// arrival stream (as it must).
func (s Settings) spec(rate float64, randomWindow bool) workload.Spec {
	spec := workload.DefaultSpec(rate, s.Seed)
	spec.Duration = s.Duration
	spec.RandomWindow = randomWindow
	return spec
}

// point is one simulation in a sweep.
type point struct {
	series string
	x      float64
	cfg    sched.Config
	mk     func() sched.Policy
	spec   workload.Spec
}

// runAll executes points on at most workers goroutines and indexes
// results by (series, x). The first failing point's error, in point order,
// fails the sweep.
func runAll(points []point, workers int) (map[string]map[float64]sched.Result, error) {
	results := make([]sched.Result, len(points))
	errs := make([]error, len(points))
	slots := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, p := range points {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			r, err := sched.NewRunner(p.cfg, p.mk(), p.spec)
			if err == nil {
				results[i], err = r.Run()
			}
			errs[i] = err
		}()
	}
	wg.Wait()

	out := make(map[string]map[float64]sched.Result)
	for i, p := range points {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if out[p.series] == nil {
			out[p.series] = make(map[float64]sched.Result)
		}
		out[p.series][p.x] = results[i]
	}
	return out, nil
}

// series converts indexed results into a plot.Series via the extractor.
func series(label string, byX map[float64]sched.Result, f func(sched.Result) float64) plot.Series {
	xs := make([]float64, 0, len(byX))
	for x := range byX {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(byX[x])
	}
	return plot.Series{Label: label, X: xs, Y: ys}
}

// line is one series of a sweep: its label, the machine it runs on, and
// the policy each point gets fresh, given the point's arrival rate.
type line struct {
	label  string
	cfg    sched.Config
	policy func(rate float64) sched.Policy
}

// ge is the line running the paper's GE on cfg.
func ge(label string, cfg sched.Config) line {
	return line{label, cfg, func(float64) sched.Policy { return core.NewGE(cfg.QGE) }}
}

// at is the line's sweep point at x: cfg under the workload spec.
func (l line) at(x float64, cfg sched.Config, spec workload.Spec) point {
	return point{series: l.label, x: x, cfg: cfg, spec: spec,
		mk: func() sched.Policy { return l.policy(spec.ArrivalRate) }}
}

// panel is one figure drawn from a sweep: its title, y-axis label and the
// y value of each point.
type panel struct {
	title, yLabel string
	y             func(sched.Result) float64
}

func qualityPanel(title string) panel {
	return panel{title, "service quality", func(r sched.Result) float64 { return r.Quality }}
}

func energyPanel(title string) panel {
	return panel{title, "energy (J)", func(r sched.Result) float64 { return r.Energy }}
}

// sweep runs every line at every rate of s, with random deadline windows
// if randomWindow, and draws one figure per panel.
func (s Settings) sweep(randomWindow bool, lines []line, panels ...panel) ([]plot.Figure, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var points []point
	for _, l := range lines {
		for _, rate := range s.Rates {
			points = append(points, l.at(rate, l.cfg, s.spec(rate, randomWindow)))
		}
	}
	return s.draw("arrival rate (req/s)", lines, points, panels)
}

// coreSweep runs GE at the first rate of s on 2^lo … 2^hi cores, with the
// exponent as x. Under weak scaling the power budget, critical load and
// arrival rate grow with the cores (per 16). panels gets the first rate,
// which the titles name.
func (s Settings) coreSweep(lo, hi int, weak bool, panels func(rate float64) []panel) ([]plot.Figure, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	l := ge("GE", s.Base)
	var points []point
	for exp := lo; exp <= hi; exp++ {
		cfg, rate := s.Base, s.Rates[0]
		cfg.Cores = 1 << exp
		if weak {
			scale := float64(cfg.Cores) / 16
			cfg.PowerBudget *= scale
			cfg.CriticalLoad *= scale
			rate *= scale
		}
		points = append(points, l.at(float64(exp), cfg, s.spec(rate, false)))
	}
	xLabel := "number of cores 2^x"
	if weak {
		xLabel = "log2(cores)"
	}
	return s.draw(xLabel, []line{l}, points, panels(s.Rates[0]))
}

// draw runs the points and draws one figure per panel, with one series
// per line, in order.
func (s Settings) draw(xLabel string, lines []line, points []point, panels []panel) ([]plot.Figure, error) {
	res, err := runAll(points, s.workers())
	if err != nil {
		return nil, err
	}
	figs := make([]plot.Figure, len(panels))
	for i, p := range panels {
		figs[i] = plot.Figure{Title: p.title, XLabel: xLabel, YLabel: p.yLabel}
		for _, l := range lines {
			figs[i].Series = append(figs[i].Series, series(l.label, res[l.label], p.y))
		}
	}
	return figs, nil
}

// two unpacks a two-panel sweep.
func two(figs []plot.Figure, err error) (plot.Figure, plot.Figure, error) {
	if err != nil {
		return plot.Figure{}, plot.Figure{}, err
	}
	return figs[0], figs[1], nil
}

// Fig1 reproduces Figure 1: the fraction of time GE spends in AES mode as
// the arrival rate grows.
func Fig1(s Settings) (plot.Figure, error) {
	figs, err := s.sweep(false, []line{ge("GE", s.Base)}, panel{
		"Fig 1: execution-time percentage of the AES mode", "fraction of time in AES mode",
		func(r sched.Result) float64 { return r.AESFraction }})
	if err != nil {
		return plot.Figure{}, err
	}
	return figs[0], nil
}

// Fig2 reproduces the Figure 2 illustration: LF cutting of four jobs
// (longest to shortest) at the given target quality. It returns the cut
// levels as a bar-like figure (x = job index, y = demand and target).
func Fig2(qge float64) (plot.Figure, cut.Result) {
	f := quality.NewExponential(0.003, 1000)
	demands := []float64{1000, 700, 400, 200}
	jobs := make([]*job.Job, len(demands))
	for i, d := range demands {
		jobs[i] = job.New(i, 0, 0.150, d)
	}
	res := cut.LongestFirst(jobs, f, qge)
	idx := []float64{1, 2, 3, 4}
	demandY := make([]float64, len(jobs))
	targetY := make([]float64, len(jobs))
	for i, j := range jobs {
		demandY[i] = j.Demand
		targetY[i] = j.Target
	}
	return plot.Figure{
		Title:  fmt.Sprintf("Fig 2: LF job cutting of four jobs at QGE=%.2f", qge),
		XLabel: "job (longest to shortest)",
		YLabel: "processing units",
		Series: []plot.Series{
			{Label: "demand", X: idx, Y: demandY},
			{Label: "cut target", X: idx, Y: targetY},
		},
	}, res
}

// roster is the Fig. 3 scheduler lineup, in legend order.
func (s Settings) roster() []line {
	q := s.Base.QGE
	return []line{
		ge("GE", s.Base),
		{"OQ", s.Base, func(float64) sched.Policy { return core.NewOQ(q) }},
		{"BE", s.Base, func(float64) sched.Policy { return core.NewBE() }},
		{"FCFS", s.Base, func(float64) sched.Policy { return sched.NewFCFS() }},
		{"LJF", s.Base, func(float64) sched.Policy { return sched.NewLJF() }},
		{"SJF", s.Base, func(float64) sched.Policy { return sched.NewSJF() }},
	}
}

// Fig3 reproduces Figure 3: scheduler comparison with fixed 150 ms windows.
func Fig3(s Settings) (qualityFig, energyFig plot.Figure, err error) {
	return two(s.sweep(false, s.roster(),
		qualityPanel("Fig 3: scheduler comparison (a) service quality"),
		energyPanel("Fig 3: scheduler comparison (b) energy consumption")))
}

// Fig4 reproduces Figure 4: scheduler comparison with random 150–500 ms
// deadline windows, adding FDFS.
func Fig4(s Settings) (qualityFig, energyFig plot.Figure, err error) {
	lines := slices.Insert(s.roster(), 4,
		line{"FDFS", s.Base, func(float64) sched.Policy { return sched.NewFDFS() }})
	return two(s.sweep(true, lines,
		qualityPanel("Fig 4: random deadline intervals (a) service quality"),
		energyPanel("Fig 4: random deadline intervals (b) energy consumption")))
}

// Fig5 reproduces Figure 5: GE with and without the compensation policy.
func Fig5(s Settings) (qualityFig, energyFig plot.Figure, err error) {
	return two(s.sweep(false, []line{
		ge("Compensation", s.Base),
		{"No-Compensation", s.Base, func(float64) sched.Policy { return core.NewNoComp(s.Base.QGE) }},
	}, qualityPanel("Fig 5: compensation policy (a) quality"),
		energyPanel("Fig 5: compensation policy (b) energy")))
}

// fixedDist is the line running GE pinned to one power distribution.
func (s Settings) fixedDist(label string, d dist.Policy) line {
	return line{label, s.Base, func(float64) sched.Policy { return core.NewFixedDist(s.Base.QGE, d) }}
}

// Fig6 reproduces Figure 6: average core speed and speed variance under WF
// vs ES.
func Fig6(s Settings) (avgFig, varFig plot.Figure, err error) {
	return two(s.sweep(false, []line{
		s.fixedDist("Water-Filling", dist.PolicyWF), s.fixedDist("Equal-Sharing", dist.PolicyES),
	}, panel{"Fig 6: power distribution (a) average speed", "average speed (GHz)",
		func(r sched.Result) float64 { return r.AvgSpeed }},
		panel{"Fig 6: power distribution (b) speed variance", "speed variance",
			func(r sched.Result) float64 { return r.SpeedVariance }}))
}

// Fig7 reproduces Figure 7: quality and energy under WF vs ES.
func Fig7(s Settings) (qualityFig, energyFig plot.Figure, err error) {
	return two(s.sweep(false, []line{
		s.fixedDist("Water-Filling", dist.PolicyWF), s.fixedDist("Equal-Sharing", dist.PolicyES),
	}, qualityPanel("Fig 7: power distribution (a) quality"),
		energyPanel("Fig 7: power distribution (b) energy")))
}
