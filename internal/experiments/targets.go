package experiments

import (
	"fmt"

	"goodenough/internal/plot"
)

// Target is one entry of gesweep's menu: a paper figure or a study beyond
// the paper, with the files it writes and the rate axis it fixes.
type Target struct {
	// ID names the target on gesweep's -figures list.
	ID string
	// Files names the output of each figure, without extension.
	Files []string
	// Rates, when set, replaces the settings' rate axis.
	Rates []float64
	// Ablation marks a study beyond the paper: -figures ablations runs it
	// and all does not.
	Ablation bool

	draw func(s Settings) (figs []plot.Figure, note string, err error)
}

// Draw computes the target's figures, one per file, and a line worth
// printing after them ("" for none).
func (t Target) Draw(s Settings) (figs []plot.Figure, note string, err error) {
	if t.Rates != nil {
		s.Rates = t.Rates
	}
	return t.draw(s)
}

// pair adapts a two-panel runner to a Target's draw.
func pair(run func(Settings) (plot.Figure, plot.Figure, error)) func(Settings) ([]plot.Figure, string, error) {
	return func(s Settings) ([]plot.Figure, string, error) {
		a, b, err := run(s)
		return []plot.Figure{a, b}, "", err
	}
}

// fig9Rates is the paper's Fig. 9 x axis (180–240 req/s); coreRates is the
// fixed load of the core-count sweeps.
var (
	fig9Rates = []float64{180, 190, 200, 210, 220, 230, 240}
	coreRates = []float64{154}
)

// Targets lists everything gesweep draws, in its run order.
var Targets = []Target{
	{ID: "fig1", Files: []string{"fig1_aes_fraction"}, draw: func(s Settings) ([]plot.Figure, string, error) {
		fig, err := Fig1(s)
		return []plot.Figure{fig}, "", err
	}},
	{ID: "fig2", Files: []string{"fig2_job_cutting"}, draw: func(s Settings) ([]plot.Figure, string, error) {
		fig, res := Fig2(s.Base.QGE)
		return []plot.Figure{fig}, fmt.Sprintf("fig2: cut %d jobs, removed %.0f units, batch quality %.4f",
			res.Cut, res.WorkRemoved, res.Quality), nil
	}},
	{ID: "fig3", Files: []string{"fig3a_quality", "fig3b_energy"}, draw: func(s Settings) ([]plot.Figure, string, error) {
		q, e, err := Fig3(s)
		if err != nil {
			return nil, "", err
		}
		note := ""
		if saving, at, err := HeadlineSaving(e); err == nil {
			note = fmt.Sprintf("headline: GE saves %.1f%% energy vs BE at rate %g (paper: up to 23.9%%)",
				saving*100, at)
		}
		return []plot.Figure{q, e}, note, nil
	}},
	{ID: "fig4", Files: []string{"fig4a_quality", "fig4b_energy"}, draw: pair(Fig4)},
	{ID: "fig5", Files: []string{"fig5a_quality", "fig5b_energy"}, draw: pair(Fig5)},
	{ID: "fig6", Files: []string{"fig6a_avg_speed", "fig6b_speed_variance"}, draw: pair(Fig6)},
	{ID: "fig7", Files: []string{"fig7a_quality", "fig7b_energy"}, draw: pair(Fig7)},
	{ID: "fig8", Files: []string{"fig8a_quality", "fig8b_energy"}, draw: pair(Fig8)},
	{ID: "fig9", Files: []string{"fig9a_quality", "fig9b_quality_functions"}, Rates: fig9Rates, draw: pair(Fig9)},
	{ID: "fig10", Files: []string{"fig10a_quality", "fig10b_energy"}, draw: pair(Fig10)},
	{ID: "fig11", Files: []string{"fig11a_quality", "fig11b_energy"}, Rates: coreRates, draw: pair(Fig11)},
	{ID: "fig12", Files: []string{"fig12a_quality", "fig12b_energy"}, draw: pair(Fig12)},

	{ID: "abl-assign", Files: []string{"abl_assign_quality", "abl_assign_energy"}, Ablation: true,
		draw: pair(AblationAssignment)},
	{ID: "abl-hybrid", Files: []string{"abl_hybrid_quality", "abl_hybrid_energy"}, Ablation: true,
		draw: pair(AblationHybrid)},
	{ID: "abl-monitor", Files: []string{"abl_monitor_quality", "abl_monitor_switches"}, Ablation: true,
		draw: pair(func(s Settings) (plot.Figure, plot.Figure, error) { return AblationMonitorWindow(s, 5) })},
	{ID: "ext-latency", Files: []string{"ext_latency_mean", "ext_latency_p95"}, Ablation: true,
		draw: pair(ExtLatency)},
	{ID: "ext-biglittle", Files: []string{"ext_biglittle_quality", "ext_biglittle_energy"}, Ablation: true,
		draw: pair(ExtBigLittle)},
	{ID: "ext-manycore", Files: []string{"ext_manycore_quality", "ext_manycore_energy"}, Ablation: true,
		Rates: coreRates, draw: pair(ExtManyCore)},
	{ID: "abl-static", Files: []string{"abl_static_energy"}, Ablation: true, Rates: coreRates,
		draw: func(s Settings) ([]plot.Figure, string, error) {
			fig, err := AblationStaticPower(s, 10)
			return []plot.Figure{fig}, "", err
		}},
}
