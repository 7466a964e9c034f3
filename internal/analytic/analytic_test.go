package analytic

import (
	"math"
	"testing"

	"goodenough/internal/core"
	"goodenough/internal/job"
	"goodenough/internal/power"
	"goodenough/internal/quality"
	"goodenough/internal/rng"
	"goodenough/internal/sched"
	"goodenough/internal/workload"
)

func paperSpec() workload.Spec { return workload.DefaultSpec(154, 1) }

func paperF() quality.Function { return quality.NewExponential(0.003, 1000) }

func TestCapacityMatchesHandCalculation(t *testing.T) {
	// 16 cores × 2 GHz × 1000 u/GHz ÷ 192.1 units ≈ 166.6 req/s — the
	// DESIGN.md §3 number.
	cap, err := Capacity(power.Default(), 16, 320, paperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cap-166.6) > 1 {
		t.Fatalf("capacity = %v, want ~166.6", cap)
	}
}

func TestCapacityScaling(t *testing.T) {
	spec := paperSpec()
	base, _ := Capacity(power.Default(), 16, 320, spec)
	// Doubling the cores at fixed budget: per-core speed drops by √2, so
	// capacity grows by 2/√2 = √2.
	doubled, _ := Capacity(power.Default(), 32, 320, spec)
	if math.Abs(doubled/base-math.Sqrt2) > 1e-6 {
		t.Fatalf("core-doubling ratio = %v, want √2", doubled/base)
	}
	// Doubling the budget at fixed cores: speed grows by √2.
	richer, _ := Capacity(power.Default(), 16, 640, spec)
	if math.Abs(richer/base-math.Sqrt2) > 1e-6 {
		t.Fatalf("budget-doubling ratio = %v, want √2", richer/base)
	}
}

func TestCapacityValidation(t *testing.T) {
	if _, err := Capacity(power.Default(), 0, 320, paperSpec()); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := Capacity(power.Default(), 16, 0, paperSpec()); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := Capacity(power.Model{A: -1, Beta: 2}, 16, 320, paperSpec()); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestUtilization(t *testing.T) {
	u, err := Utilization(power.Default(), 16, 320, paperSpec(), 154)
	if err != nil {
		t.Fatal(err)
	}
	// 154/166.6 ≈ 0.924 — the value DESIGN.md quotes against the paper's
	// claimed 77.8%.
	if math.Abs(u-0.924) > 0.01 {
		t.Fatalf("utilization at 154 = %v, want ~0.924", u)
	}
}

func TestCutKeepFractionEdges(t *testing.T) {
	f := paperF()
	spec := paperSpec()
	level, kept, err := CutKeepFraction(f, spec, 1)
	if err != nil || level != spec.Xmax || kept != 1 {
		t.Fatalf("qge=1: level=%v kept=%v err=%v", level, kept, err)
	}
	level, kept, err = CutKeepFraction(f, spec, 0)
	if err != nil || level != 0 || kept != 0 {
		t.Fatalf("qge=0: level=%v kept=%v err=%v", level, kept, err)
	}
}

func TestCutKeepFractionMonotone(t *testing.T) {
	f := paperF()
	spec := paperSpec()
	prevKept := -1.0
	for _, qge := range []float64{0.5, 0.7, 0.8, 0.9, 0.95, 0.99} {
		_, kept, err := CutKeepFraction(f, spec, qge)
		if err != nil {
			t.Fatal(err)
		}
		if kept <= prevKept {
			t.Fatalf("kept fraction not increasing in qge at %v", qge)
		}
		if kept <= 0 || kept > 1 {
			t.Fatalf("kept fraction out of range: %v", kept)
		}
		prevKept = kept
	}
}

func TestCutKeepFractionConcavityAdvantage(t *testing.T) {
	// At qge=0.9 the concave quality function should let GE discard far
	// more than 10% of the work.
	_, kept, err := CutKeepFraction(paperF(), paperSpec(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if kept > 0.95 {
		t.Fatalf("kept = %v; concavity should allow real savings", kept)
	}
	if kept < 0.5 {
		t.Fatalf("kept = %v; cutting this deep would break quality", kept)
	}
}

// monteCarloKeepFraction estimates the surviving work fraction empirically
// by sampling the demand distribution and applying the same level cut: the
// reference the quadrature is checked against.
func monteCarloKeepFraction(spec workload.Spec, level float64, samples int, seed uint64) float64 {
	src := rng.New(seed)
	pareto := rng.NewPareto(spec.ParetoAlpha, spec.Xmin, spec.Xmax)
	kept, total := 0.0, 0.0
	for i := 0; i < samples; i++ {
		d := pareto.Sample(src)
		total += d
		kept += math.Min(d, level)
	}
	return kept / total
}

func TestQuadratureMatchesMonteCarlo(t *testing.T) {
	f := paperF()
	spec := paperSpec()
	level, kept, err := CutKeepFraction(f, spec, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	mc := monteCarloKeepFraction(spec, level, 400000, 7)
	if math.Abs(mc-kept) > 0.01 {
		t.Fatalf("quadrature kept=%v vs Monte Carlo %v", kept, mc)
	}
}

func TestCutKeepFractionRejectsMixtures(t *testing.T) {
	spec := paperSpec()
	spec.Classes = []workload.Class{{Name: "x", Weight: 1, ParetoAlpha: 3,
		Xmin: 130, Xmax: 1000, Window: 0.15}}
	if _, _, err := CutKeepFraction(paperF(), spec, 0.9); err == nil {
		t.Fatal("mixture accepted")
	}
}

func TestEffectiveCapacityPredictsGEKnee(t *testing.T) {
	// The headline theory-vs-simulation check: GE's quality knee should
	// sit near Capacity / keptFraction.
	f := paperF()
	spec := paperSpec()
	eff, err := EffectiveCapacity(power.Default(), 16, 320, spec, f, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if eff < 175 || eff > 215 {
		t.Fatalf("predicted GE knee = %v req/s, outside the plausible band", eff)
	}
	// Locate the simulated knee: the first rate where GE quality drops
	// 0.5% below target.
	knee := 0.0
	for rate := 160.0; rate <= 230; rate += 10 {
		wspec := workload.DefaultSpec(rate, 3)
		wspec.Duration = 25
		r, err := sched.NewRunner(sched.Defaults(), core.NewGE(0.9), wspec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Quality < 0.895 {
			knee = rate
			break
		}
	}
	if knee == 0 {
		t.Fatal("simulated GE never dipped below target up to 230 req/s")
	}
	if math.Abs(knee-eff) > 25 {
		t.Fatalf("simulated knee %v vs predicted %v — theory and simulator disagree", knee, eff)
	}
}

func TestEffectiveCapacityExtremes(t *testing.T) {
	f := paperF()
	spec := paperSpec()
	full, _ := EffectiveCapacity(power.Default(), 16, 320, spec, f, 1)
	raw, _ := Capacity(power.Default(), 16, 320, spec)
	if math.Abs(full-raw) > 1e-6 {
		t.Fatalf("qge=1 effective capacity %v should equal raw %v", full, raw)
	}
	zero, _ := EffectiveCapacity(power.Default(), 16, 320, spec, f, 0)
	if !math.IsInf(zero, 1) {
		t.Fatalf("qge=0 effective capacity = %v, want +Inf", zero)
	}
}

func TestFluidLowerBoundValidation(t *testing.T) {
	if _, err := FluidLowerBound(nil, 0, power.Default()); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := FluidLowerBound(nil, 4, power.Model{A: -1, Beta: 2}); err == nil {
		t.Error("invalid model accepted")
	}
	e, err := FluidLowerBound(nil, 4, power.Default())
	if err != nil || e != 0 {
		t.Fatalf("empty bound = %v, %v", e, err)
	}
}

func TestFluidLowerBoundSingleJob(t *testing.T) {
	// One 2000-unit job over 1 s on 4 cores: fluid optimum runs four cores
	// at 0.5 GHz → power 4·5·0.25 = 5 W → 5 J. The single-core YDS energy
	// is 5·2²·1 = 20 J; dividing by m^{β−1} = 4 gives exactly 5.
	j := job.New(1, 0, 1, 2000)
	e, err := FluidLowerBound([]*job.Job{j}, 4, power.Default())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-5) > 1e-9 {
		t.Fatalf("fluid bound = %v, want 5", e)
	}
}

func TestBEEnergyAboveFluidBound(t *testing.T) {
	// Best Effort completes (nearly) everything; its measured energy must
	// sit above the clairvoyant fluid bound for the same trace.
	spec := workload.DefaultSpec(30, 5) // light load so BE finishes all work
	spec.Duration = 2
	jobs := workload.NewGenerator(spec).All()
	tr := workload.Record(jobs, &spec, "")

	bound, err := FluidLowerBound(jobs, 16, power.Default())
	if err != nil {
		t.Fatal(err)
	}
	if bound <= 0 {
		t.Fatalf("degenerate bound %v", bound)
	}

	src, err := workload.NewReplayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.NewRunnerFromSource(sched.Defaults(), core.NewBE(), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < 0.999 {
		t.Fatalf("BE did not complete the light trace: quality %v", res.Quality)
	}
	if res.Energy < bound*(1-1e-9) {
		t.Fatalf("BE energy %v beat the clairvoyant lower bound %v — bound or simulator broken",
			res.Energy, bound)
	}
	// Sanity: BE shouldn't be wildly above the bound at light load either
	// (no-migration + online-ness costs something, not orders of
	// magnitude).
	if res.Energy > bound*25 {
		t.Fatalf("BE energy %v implausibly far above bound %v", res.Energy, bound)
	}
}
