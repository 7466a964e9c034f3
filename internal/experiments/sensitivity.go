package experiments

import (
	"fmt"
	"math"

	"goodenough/internal/core"
	"goodenough/internal/plot"
	"goodenough/internal/power"
	"goodenough/internal/quality"
	"goodenough/internal/sched"
)

// CalibrationIters is the bisection depth used to find the BE-P budget and
// BE-S speed cap (§IV-F: "the least power budget / minimum speed which can
// complete the quality guarantee").
const CalibrationIters = 7

// calibrate bisects (0, hi] for the least x at which BE under policy(x)
// meets QGE at the given rate, quality being monotone in x. It returns hi
// when even hi falls short (overload: use everything available).
func (s Settings) calibrate(rate, hi float64, policy func(x float64) sched.Policy) (float64, error) {
	meets := func(x float64) (bool, error) {
		if x <= 0 {
			return false, nil
		}
		r, err := sched.NewRunner(s.Base, policy(x), s.spec(rate, false))
		if err != nil {
			return false, err
		}
		res, err := r.Run()
		return res.Quality >= s.Base.QGE, err
	}
	okHi, err := meets(hi)
	if err != nil {
		return 0, err
	}
	if !okHi {
		return hi, nil
	}
	lo := 0.0
	for i := 0; i < CalibrationIters; i++ {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// CalibrateBEP finds the least power budget at which BE meets QGE for the
// given arrival rate.
func CalibrateBEP(s Settings, rate float64) (float64, error) {
	return s.calibrate(rate, s.Base.PowerBudget, func(budget float64) sched.Policy { return core.NewBEP(budget) })
}

// CalibrateBES finds the least per-core speed cap at which BE meets QGE.
func CalibrateBES(s Settings, rate float64) (float64, error) {
	return s.calibrate(rate, s.Base.Model.Speed(s.Base.PowerBudget),
		func(cap float64) sched.Policy { return core.NewBES(cap) })
}

// Fig8 reproduces Figure 8: the quality-control policy (GE) against the
// power-control (BE-P) and speed-control (BE-S) policies, each calibrated
// per arrival rate to the least budget/speed meeting QGE. Calibration
// bisects serially, rate by rate; the final sweep runs on the pool.
func Fig8(s Settings) (qualityFig, energyFig plot.Figure, err error) {
	if err := s.Validate(); err != nil {
		return plot.Figure{}, plot.Figure{}, err
	}
	budget := make(map[float64]float64, len(s.Rates))
	speedCap := make(map[float64]float64, len(s.Rates))
	for _, rate := range s.Rates {
		if budget[rate], err = CalibrateBEP(s, rate); err != nil {
			return plot.Figure{}, plot.Figure{}, err
		}
		if speedCap[rate], err = CalibrateBES(s, rate); err != nil {
			return plot.Figure{}, plot.Figure{}, err
		}
	}
	return two(s.sweep(false, []line{
		ge("GE", s.Base),
		{"BE-P", s.Base, func(rate float64) sched.Policy { return core.NewBEP(budget[rate]) }},
		{"BE-S", s.Base, func(rate float64) sched.Policy { return core.NewBES(speedCap[rate]) }},
	}, qualityPanel("Fig 8: control policies (a) quality"),
		energyPanel("Fig 8: control policies (b) energy")))
}

// Fig9Concavities is the paper's c sweep for Figure 9.
var Fig9Concavities = []float64{0.0005, 0.001, 0.002, 0.003, 0.005, 0.009}

// Fig9 reproduces Figure 9: (a) GE's achieved quality under different
// quality-function concavities, and (b) the quality-function curves
// themselves.
func Fig9(s Settings) (qualityFig, curvesFig plot.Figure, err error) {
	var lines []line
	for _, c := range Fig9Concavities {
		cfg := s.Base
		cfg.Quality = quality.NewExponential(c, 1000)
		lines = append(lines, ge(fmt.Sprintf("c = %g", c), cfg))
	}
	figs, err := s.sweep(false, lines, qualityPanel("Fig 9 (a): service quality of GE vs concavity"))
	if err != nil {
		return plot.Figure{}, plot.Figure{}, err
	}

	// Panel (b): the f(x) curves, no simulation needed.
	curvesFig = plot.Figure{Title: "Fig 9 (b): quality functions",
		XLabel: "processed volume x", YLabel: "quality"}
	for _, c := range Fig9Concavities {
		f := quality.NewExponential(c, 1000)
		curve := plot.Series{Label: fmt.Sprintf("c=%g", c)}
		for x := 0.0; x <= 3000; x += 50 {
			curve.X = append(curve.X, x)
			curve.Y = append(curve.Y, f.Value(x))
		}
		curvesFig.Series = append(curvesFig.Series, curve)
	}
	return figs[0], curvesFig, nil
}

// Fig10Budgets is the paper's budget sweep for Figure 10.
var Fig10Budgets = []float64{80, 160, 320, 480}

// Fig10 reproduces Figure 10: GE under different total power budgets.
func Fig10(s Settings) (qualityFig, energyFig plot.Figure, err error) {
	var lines []line
	for _, h := range Fig10Budgets {
		cfg := s.Base
		cfg.PowerBudget = h
		lines = append(lines, ge(fmt.Sprintf("budget = %g", h), cfg))
	}
	return two(s.sweep(false, lines,
		qualityPanel("Fig 10: power budget (a) quality"),
		energyPanel("Fig 10: power budget (b) energy")))
}

// Fig11 reproduces Figure 11: GE with core counts 2^0 … 2^6 at a fixed
// arrival rate (the first entry of s.Rates).
func Fig11(s Settings) (qualityFig, energyFig plot.Figure, err error) {
	return two(s.coreSweep(0, 6, false, func(rate float64) []panel {
		return []panel{
			qualityPanel(fmt.Sprintf("Fig 11: core count (a) quality (rate = %g)", rate)),
			energyPanel(fmt.Sprintf("Fig 11: core count (b) energy (rate = %g)", rate)),
		}
	}))
}

// DefaultLadder is the discrete DVFS ladder used by Figure 12: sixteen
// 0.2 GHz steps up to 3.2 GHz.
func DefaultLadder() *power.Ladder {
	l, err := power.UniformLadder(3.2, 16)
	if err != nil {
		panic(err) // parameters are constants; cannot fail
	}
	return l
}

// Fig12 reproduces Figure 12: GE under continuous vs discrete speed
// scaling.
func Fig12(s Settings) (qualityFig, energyFig plot.Figure, err error) {
	discrete := s.Base
	discrete.Ladder = DefaultLadder()
	return two(s.sweep(false, []line{ge("Continuous Speed", s.Base), ge("Discrete Speed", discrete)},
		qualityPanel("Fig 12: speed scaling (a) quality"),
		energyPanel("Fig 12: speed scaling (b) energy")))
}

// HeadlineSaving extracts the paper's headline metric from a Fig. 3 sweep:
// the maximum relative energy saving of GE over BE across the rate axis
// (the paper reports up to 23.9%).
func HeadlineSaving(energyFig plot.Figure) (bestSaving float64, atRate float64, err error) {
	var ge, be *plot.Series
	for i := range energyFig.Series {
		switch energyFig.Series[i].Label {
		case "GE":
			ge = &energyFig.Series[i]
		case "BE":
			be = &energyFig.Series[i]
		}
	}
	if ge == nil || be == nil {
		return 0, 0, fmt.Errorf("experiments: energy figure lacks GE or BE series")
	}
	best := math.Inf(-1)
	at := 0.0
	for i := range ge.X {
		for k := range be.X {
			if be.X[k] == ge.X[i] && be.Y[k] > 0 {
				if saving := 1 - ge.Y[i]/be.Y[k]; saving > best {
					best = saving
					at = ge.X[i]
				}
			}
		}
	}
	if math.IsInf(best, -1) {
		return 0, 0, fmt.Errorf("experiments: GE and BE series share no x values")
	}
	return best, at, nil
}
