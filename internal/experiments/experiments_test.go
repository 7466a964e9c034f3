package experiments

import (
	"math"
	"testing"

	"goodenough/internal/plot"
	"goodenough/internal/sched"
)

// quickSettings keeps experiment tests fast: short runs, coarse axis.
func quickSettings(rates ...float64) Settings {
	s := DefaultSettings()
	s.Duration = 10
	s.Rates = rates
	return s
}

func yOf(t *testing.T, s plot.Series, x float64) float64 {
	t.Helper()
	for i := range s.X {
		if s.X[i] == x {
			return s.Y[i]
		}
	}
	t.Fatalf("series %q has no x=%v", s.Label, x)
	return 0
}

func findSeries(t *testing.T, f plot.Figure, label string) plot.Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("figure %q lacks series %q", f.Title, label)
	return plot.Series{}
}

func TestDefaultSettings(t *testing.T) {
	s := DefaultSettings()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Duration != 600 {
		t.Fatalf("paper runs 600 s, got %v", s.Duration)
	}
	rates := DefaultRates()
	if rates[0] != 100 || rates[len(rates)-1] != 250 {
		t.Fatalf("rate axis = %v, want 100..250", rates)
	}
}

func TestSettingsValidation(t *testing.T) {
	s := DefaultSettings()
	s.Duration = 0
	if s.Validate() == nil {
		t.Error("zero duration accepted")
	}
	s = DefaultSettings()
	s.Rates = nil
	if s.Validate() == nil {
		t.Error("empty rates accepted")
	}
	s = DefaultSettings()
	s.Rates = []float64{-5}
	if s.Validate() == nil {
		t.Error("negative rate accepted")
	}
}

func TestFig1Shape(t *testing.T) {
	fig, err := Fig1(quickSettings(100, 230))
	if err != nil {
		t.Fatal(err)
	}
	ge := findSeries(t, fig, "GE")
	light := yOf(t, ge, 100)
	heavy := yOf(t, ge, 230)
	if light <= heavy {
		t.Fatalf("AES fraction should fall with load: %v at 100 vs %v at 230", light, heavy)
	}
	if light < 0.4 {
		t.Fatalf("light-load AES fraction = %v, want majority of time", light)
	}
}

func TestFig2CutsLongestFirst(t *testing.T) {
	fig, res := Fig2(0.9)
	demand := findSeries(t, fig, "demand")
	target := findSeries(t, fig, "cut target")
	if len(demand.Y) != 4 || len(target.Y) != 4 {
		t.Fatalf("Fig 2 should show four jobs")
	}
	if target.Y[0] >= demand.Y[0] {
		t.Fatal("longest job was not cut")
	}
	for i := range target.Y {
		if target.Y[i] > demand.Y[i]+1e-9 {
			t.Fatalf("target exceeds demand at job %d", i)
		}
	}
	if math.Abs(res.Quality-0.9) > 1e-6 {
		t.Fatalf("Fig 2 batch quality = %v, want 0.9", res.Quality)
	}
}

func TestFig3Shape(t *testing.T) {
	q, e, err := Fig3(quickSettings(110, 150))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Series) != 6 || len(e.Series) != 6 {
		t.Fatalf("Fig 3 should have six schedulers, got %d/%d", len(q.Series), len(e.Series))
	}
	geQ := findSeries(t, q, "GE")
	beQ := findSeries(t, q, "BE")
	geE := findSeries(t, e, "GE")
	beE := findSeries(t, e, "BE")
	for _, rate := range []float64{110, 150} {
		if yOf(t, geQ, rate) < 0.85 {
			t.Fatalf("GE quality at %v = %v", rate, yOf(t, geQ, rate))
		}
		if yOf(t, beQ, rate) < yOf(t, geQ, rate)-0.01 {
			t.Fatalf("BE quality below GE at %v", rate)
		}
		if yOf(t, geE, rate) >= yOf(t, beE, rate) {
			t.Fatalf("GE energy not below BE at %v", rate)
		}
	}
	// Headline metric is computable and positive.
	saving, at, err := HeadlineSaving(e)
	if err != nil {
		t.Fatal(err)
	}
	if saving <= 0.05 {
		t.Fatalf("headline saving = %v at %v", saving, at)
	}
}

func TestFig4FDFSPresent(t *testing.T) {
	q, _, err := Fig4(quickSettings(200))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Series) != 7 {
		t.Fatalf("Fig 4 should add FDFS: %d series", len(q.Series))
	}
	fdfs := findSeries(t, q, "FDFS")
	fcfs := findSeries(t, q, "FCFS")
	if yOf(t, fdfs, 200) <= yOf(t, fcfs, 200) {
		t.Fatalf("FDFS should beat FCFS under random deadlines: %v vs %v",
			yOf(t, fdfs, 200), yOf(t, fcfs, 200))
	}
}

func TestFig5Shape(t *testing.T) {
	q, e, err := Fig5(quickSettings(175))
	if err != nil {
		t.Fatal(err)
	}
	comp := findSeries(t, q, "Compensation")
	nocomp := findSeries(t, q, "No-Compensation")
	if yOf(t, comp, 175) <= yOf(t, nocomp, 175) {
		t.Fatal("compensation should lift quality under load")
	}
	ce := findSeries(t, e, "Compensation")
	ne := findSeries(t, e, "No-Compensation")
	if yOf(t, ce, 175) < yOf(t, ne, 175) {
		t.Fatal("compensation should cost some energy")
	}
}

func TestFig6Shape(t *testing.T) {
	_, vf, err := Fig6(quickSettings(110))
	if err != nil {
		t.Fatal(err)
	}
	wf := findSeries(t, vf, "Water-Filling")
	es := findSeries(t, vf, "Equal-Sharing")
	if yOf(t, es, 110) >= yOf(t, wf, 110) {
		t.Fatalf("ES speed variance should undercut WF at light load: %v vs %v",
			yOf(t, es, 110), yOf(t, wf, 110))
	}
}

func TestFig7Shape(t *testing.T) {
	q, e, err := Fig7(quickSettings(110, 185))
	if err != nil {
		t.Fatal(err)
	}
	wfQ := findSeries(t, q, "Water-Filling")
	esQ := findSeries(t, q, "Equal-Sharing")
	esE := findSeries(t, e, "Equal-Sharing")
	wfE := findSeries(t, e, "Water-Filling")
	// Light load: same quality, ES cheaper.
	if math.Abs(yOf(t, wfQ, 110)-yOf(t, esQ, 110)) > 0.03 {
		t.Fatal("light-load quality should match between WF and ES")
	}
	if yOf(t, esE, 110) >= yOf(t, wfE, 110) {
		t.Fatal("ES should save energy at light load")
	}
	// Heavy load: WF should not trail ES.
	if yOf(t, wfQ, 185) < yOf(t, esQ, 185)-0.01 {
		t.Fatal("WF quality should hold up at heavy load")
	}
}

func TestFig8Calibration(t *testing.T) {
	s := quickSettings(120)
	budget, err := CalibrateBEP(s, 120)
	if err != nil {
		t.Fatal(err)
	}
	if budget <= 0 || budget > s.Base.PowerBudget {
		t.Fatalf("calibrated budget = %v out of range", budget)
	}
	if budget > 0.95*s.Base.PowerBudget {
		t.Fatalf("calibrated budget = %v; pre-overload it should be well below H", budget)
	}
	cap, err := CalibrateBES(s, 120)
	if err != nil {
		t.Fatal(err)
	}
	maxSpeed := s.Base.Model.Speed(s.Base.PowerBudget)
	if cap <= 0 || cap > maxSpeed {
		t.Fatalf("calibrated cap = %v out of range", cap)
	}
}

func TestFig8Shape(t *testing.T) {
	q, e, err := Fig8(quickSettings(130))
	if err != nil {
		t.Fatal(err)
	}
	ge := findSeries(t, q, "GE")
	bep := findSeries(t, q, "BE-P")
	bes := findSeries(t, q, "BE-S")
	if yOf(t, ge, 130) < 0.85 {
		t.Fatalf("GE quality = %v", yOf(t, ge, 130))
	}
	// The calibrated baselines hover near QGE by construction.
	for _, s := range []plot.Series{bep, bes} {
		if v := yOf(t, s, 130); v < 0.8 || v > 1.001 {
			t.Fatalf("%s quality = %v, want near QGE", s.Label, v)
		}
	}
	if len(e.Series) != 3 {
		t.Fatalf("Fig 8 energy series = %d", len(e.Series))
	}
}

func TestFig9Shape(t *testing.T) {
	s := quickSettings(210)
	q, curves, err := Fig9(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Series) != len(Fig9Concavities) {
		t.Fatalf("Fig 9a series = %d", len(q.Series))
	}
	lo := findSeries(t, q, "c = 0.0005")
	hi := findSeries(t, q, "c = 0.009")
	if yOf(t, hi, 210) <= yOf(t, lo, 210) {
		t.Fatalf("larger concavity should raise quality under load: %v vs %v",
			yOf(t, hi, 210), yOf(t, lo, 210))
	}
	// Panel (b): curves ordered by concavity at x=500.
	prev := -1.0
	for _, c := range Fig9Concavities {
		s := findSeries(t, curves, sprintC(c))
		v := yOf(t, s, 500)
		if v < prev {
			t.Fatal("quality curves not ordered by c")
		}
		prev = v
	}
}

func sprintC(c float64) string { return "c=" + trim(c) }

func trim(v float64) string {
	switch v {
	case 0.0005:
		return "0.0005"
	case 0.001:
		return "0.001"
	case 0.002:
		return "0.002"
	case 0.003:
		return "0.003"
	case 0.005:
		return "0.005"
	case 0.009:
		return "0.009"
	}
	return ""
}

func TestFig10Shape(t *testing.T) {
	q, e, err := Fig10(quickSettings(200))
	if err != nil {
		t.Fatal(err)
	}
	lo := findSeries(t, q, "budget = 80")
	hi := findSeries(t, q, "budget = 480")
	if yOf(t, hi, 200) <= yOf(t, lo, 200) {
		t.Fatal("bigger budget should raise overloaded quality")
	}
	loE := findSeries(t, e, "budget = 80")
	hiE := findSeries(t, e, "budget = 480")
	if yOf(t, hiE, 200) <= yOf(t, loE, 200) {
		t.Fatal("bigger budget should spend more energy under overload")
	}
}

func TestFig11Shape(t *testing.T) {
	s := quickSettings(150)
	q, e, err := Fig11(s)
	if err != nil {
		t.Fatal(err)
	}
	ge := findSeries(t, q, "GE")
	if len(ge.X) != 7 {
		t.Fatalf("Fig 11 should sweep 2^0..2^6, got %d points", len(ge.X))
	}
	// Quality must improve substantially from 1 core to 64.
	if yOf(t, ge, 6) <= yOf(t, ge, 0) {
		t.Fatal("more cores should raise quality")
	}
	geE := findSeries(t, e, "GE")
	if yOf(t, geE, 6) >= yOf(t, geE, 0) {
		t.Fatal("more cores should lower energy")
	}
}

func TestFig12Shape(t *testing.T) {
	q, e, err := Fig12(quickSettings(150))
	if err != nil {
		t.Fatal(err)
	}
	cont := findSeries(t, q, "Continuous Speed")
	disc := findSeries(t, q, "Discrete Speed")
	if math.Abs(yOf(t, cont, 150)-yOf(t, disc, 150)) > 0.08 {
		t.Fatalf("discrete quality too far from continuous: %v vs %v",
			yOf(t, disc, 150), yOf(t, cont, 150))
	}
	contE := findSeries(t, e, "Continuous Speed")
	discE := findSeries(t, e, "Discrete Speed")
	ratio := yOf(t, discE, 150) / yOf(t, contE, 150)
	if ratio < 0.6 || ratio > 1.5 {
		t.Fatalf("discrete/continuous energy ratio = %v", ratio)
	}
}

func TestHeadlineSavingErrors(t *testing.T) {
	if _, _, err := HeadlineSaving(plot.Figure{}); err == nil {
		t.Error("missing series accepted")
	}
	f := plot.Figure{Series: []plot.Series{
		{Label: "GE", X: []float64{1}, Y: []float64{1}},
		{Label: "BE", X: []float64{2}, Y: []float64{1}},
	}}
	if _, _, err := HeadlineSaving(f); err == nil {
		t.Error("disjoint axes accepted")
	}
}

func TestDefaultLadder(t *testing.T) {
	l := DefaultLadder()
	levels := 0
	for s, ok := l.Up(0); ok && levels <= 16; s, ok = l.Up(s + 1e-9) {
		levels++
	}
	if levels != 16 || l.Max() != 3.2 {
		t.Fatalf("ladder = %d levels, max %v", levels, l.Max())
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	s := quickSettings(100)
	bad := s.Base
	bad.Cores = 0 // invalid config must surface as an error
	_, err := runAll([]point{{series: "x", x: 1, cfg: bad,
		mk:   func() sched.Policy { return sched.NewFCFS() },
		spec: s.spec(100, false)}}, 1)
	if err == nil {
		t.Fatal("invalid point accepted")
	}
}

func TestParallelSweepMatchesSerial(t *testing.T) {
	// Sweep points are independent simulations; running them on a worker
	// pool must produce bit-identical results to a serial run.
	mk := func(workers int) (plot.Figure, plot.Figure) {
		s := quickSettings(110, 150, 190)
		s.Workers = workers
		q, e, err := Fig3(s)
		if err != nil {
			t.Fatal(err)
		}
		return q, e
	}
	q1, e1 := mk(1)
	q4, e4 := mk(4)
	same := func(a, b plot.Figure) {
		t.Helper()
		if len(a.Series) != len(b.Series) {
			t.Fatalf("series count differs: %d vs %d", len(a.Series), len(b.Series))
		}
		for i := range a.Series {
			for k := range a.Series[i].Y {
				if a.Series[i].Y[k] != b.Series[i].Y[k] {
					t.Fatalf("series %q diverges at point %d: %v vs %v",
						a.Series[i].Label, k, a.Series[i].Y[k], b.Series[i].Y[k])
				}
			}
		}
	}
	same(q1, q4)
	same(e1, e4)
}
