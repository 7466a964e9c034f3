package experiments

import (
	"fmt"

	"goodenough/internal/core"
	"goodenough/internal/plot"
	"goodenough/internal/power"
	"goodenough/internal/sched"
)

// ExtLatency is an extension experiment beyond the paper: response-time
// curves (mean and p95 of finish − release for completed jobs) for GE, BE,
// and FDFS. Because GE cuts jobs short, completed requests return earlier —
// approximate computing buys latency as well as energy, which is the
// argument of the AccuracyTrader/CLAP line of work the paper cites.
func ExtLatency(s Settings) (meanFig, p95Fig plot.Figure, err error) {
	return two(s.sweep(false, []line{
		ge("GE", s.Base),
		{"BE", s.Base, func(float64) sched.Policy { return core.NewBE() }},
		{"FDFS", s.Base, func(float64) sched.Policy { return sched.NewFDFS() }},
	}, panel{"Extension: mean response time", "mean response (ms)",
		func(r sched.Result) float64 { return r.MeanResponse * 1000 }},
		panel{"Extension: p95 response time", "p95 response (ms)",
			func(r sched.Result) float64 { return r.P95Response * 1000 }}))
}

// ExtManyCore is the paper's future-work scenario (§VI: "many-core
// processors"): scale the machine from 16 to 256 cores with the power
// budget and arrival rate scaled proportionally (weak scaling, 20 W and
// ~9.6 req/s per core). A quality-preserving scheduler should hold Q_GE
// flat while per-request energy falls slightly (more cores smooth the
// Poisson bursts). The x axis is log2(cores).
func ExtManyCore(s Settings) (qualityFig, energyFig plot.Figure, err error) {
	return two(s.coreSweep(4, 8, true, func(rate float64) []panel {
		return []panel{
			qualityPanel(fmt.Sprintf("Extension: weak scaling to many-core (rate = %g/16 cores)", rate)),
			// Energy per simulated request keeps the panels comparable
			// across machine sizes.
			{"Extension: weak scaling, energy per request", "energy per request (J)",
				func(r sched.Result) float64 {
					if r.Jobs == 0 {
						return 0
					}
					return r.Energy / float64(r.Jobs)
				}},
		}
	}))
}

// ExtBigLittle compares a homogeneous 16-core machine against a
// heterogeneous 8 big + 8 little machine under the same total power budget
// (the paper's "different hardware platforms" future work). Little cores
// use half the power coefficient (a = 2.5) but cap at 1.6 GHz.
func ExtBigLittle(s Settings) (qualityFig, energyFig plot.Figure, err error) {
	if err := s.Validate(); err != nil { // before sizing the per-core models
		return plot.Figure{}, plot.Figure{}, err
	}
	models := make([]power.Model, s.Base.Cores)
	for i := range models {
		if i < len(models)/2 {
			models[i] = s.Base.Model // big
		} else {
			models[i] = power.Model{A: s.Base.Model.A / 2, Beta: s.Base.Model.Beta,
				MaxSpeed: 1.6} // little
		}
	}
	hetero := s.Base
	hetero.PerCoreModels = models
	return two(s.sweep(false, []line{ge("Homogeneous", s.Base), ge("big.LITTLE", hetero)},
		qualityPanel("Extension: heterogeneous cores (a) quality"),
		energyPanel("Extension: heterogeneous cores (b) energy")))
}
