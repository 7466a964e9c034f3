package experiments

import (
	"fmt"

	"goodenough/internal/assign"
	"goodenough/internal/core"
	"goodenough/internal/dist"
	"goodenough/internal/plot"
	"goodenough/internal/sched"
)

// This file holds the ablation studies DESIGN.md commits to beyond the
// paper's own figures: each isolates one GE design choice the paper
// motivates but does not sweep.

// AblationAssignment compares the batch job-to-core assignment policies:
// the paper's Cumulative Round-Robin against plain Round-Robin and a
// least-loaded assigner (§III-E argues C-RR balances better long-run).
func AblationAssignment(s Settings) (qualityFig, energyFig plot.Figure, err error) {
	assigned := func(label, name string, a func() assign.Assigner) line {
		return line{label, s.Base, func(float64) sched.Policy {
			return core.New(name, core.Options{
				Target: s.Base.QGE, Compensation: true,
				Dist: dist.PolicyHybrid, Assigner: a(),
			})
		}}
	}
	return two(s.sweep(false, []line{
		assigned("C-RR", "GE/C-RR", func() assign.Assigner { return &assign.CumulativeRR{} }),
		assigned("RR", "GE/RR", func() assign.Assigner { return assign.RoundRobin{} }),
		assigned("Least-Loaded", "GE/LL", func() assign.Assigner { return assign.LeastLoaded{} }),
	}, qualityPanel("Ablation: assignment policy (a) quality"),
		energyPanel("Ablation: assignment policy (b) energy")))
}

// AblationHybrid pits the paper's hybrid ES/WF switch against each fixed
// policy, completing the Fig. 6–7 story: the hybrid should match ES's
// energy at light load AND WF's quality at heavy load.
func AblationHybrid(s Settings) (qualityFig, energyFig plot.Figure, err error) {
	return two(s.sweep(false, []line{
		ge("Hybrid", s.Base), s.fixedDist("Fixed-WF", dist.PolicyWF), s.fixedDist("Fixed-ES", dist.PolicyES),
	}, qualityPanel("Ablation: hybrid distribution (a) quality"),
		energyPanel("Ablation: hybrid distribution (b) energy")))
}

// AblationMonitorWindow compares the paper's cumulative quality monitor
// with the windowed-monitor extension (compensation decisions based on the
// last W seconds only). The windowed monitor reacts faster after load
// spikes but switches modes more often.
func AblationMonitorWindow(s Settings, windowSec float64) (qualityFig, switchFig plot.Figure, err error) {
	if windowSec <= 0 {
		return plot.Figure{}, plot.Figure{}, fmt.Errorf("experiments: window must be positive")
	}
	return two(s.sweep(false, []line{
		ge("Cumulative", s.Base),
		{"Windowed", s.Base, func(float64) sched.Policy {
			return core.New("GE-windowed", core.Options{
				Target: s.Base.QGE, Compensation: true,
				Dist: dist.PolicyHybrid, MonitorWindow: windowSec,
			})
		}},
	}, qualityPanel("Ablation: quality monitor (a) quality"),
		panel{"Ablation: quality monitor (b) mode switches", "AES/BQ switches",
			func(r sched.Result) float64 { return float64(r.ModeSwitches) }}))
}

// AblationStaticPower revisits the Fig. 11 core-count sweep with per-core
// static power added post-hoc (static · cores · simTime). The paper
// excludes static power and concludes "more cores are always better";
// with a realistic static term the energy curve becomes U-shaped and an
// optimal core count appears.
func AblationStaticPower(s Settings, staticWatts float64) (plot.Figure, error) {
	if staticWatts < 0 {
		return plot.Figure{}, fmt.Errorf("experiments: static power must be non-negative")
	}
	figs, err := s.coreSweep(0, 6, false, func(rate float64) []panel {
		return []panel{
			energyPanel(fmt.Sprintf("Ablation: static power on the core-count sweep (rate = %g)", rate)),
			{y: func(r sched.Result) float64 { return r.SimTime }}, // for the static term only
		}
	})
	if err != nil {
		return plot.Figure{}, err
	}
	fig, dynamic, simTime := figs[0], figs[0].Series[0], figs[1].Series[0]
	dynamic.Label = "dynamic only"
	total := plot.Series{Label: fmt.Sprintf("with %gW static/core", staticWatts), X: dynamic.X}
	for i, x := range dynamic.X {
		cores := float64(int(1) << int(x))
		total.Y = append(total.Y, dynamic.Y[i]+staticWatts*cores*simTime.Y[i])
	}
	fig.Series = []plot.Series{dynamic, total}
	return fig, nil
}
