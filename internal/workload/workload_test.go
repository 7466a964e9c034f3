package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"goodenough/internal/job"
	"goodenough/internal/rng"
)

func TestDefaultSpecMatchesPaper(t *testing.T) {
	s := DefaultSpec(154, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.ParetoAlpha != 3 || s.Xmin != 130 || s.Xmax != 1000 {
		t.Fatalf("Pareto parameters differ from paper: %+v", s)
	}
	if s.Window != 0.150 {
		t.Fatalf("window = %v, paper uses 150 ms", s.Window)
	}
	if s.Duration != 600 {
		t.Fatalf("duration = %v, paper simulates 10 minutes", s.Duration)
	}
	if math.Abs(s.MeanDemand()-192) > 1 {
		t.Fatalf("mean demand = %v, paper quotes ~192", s.MeanDemand())
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	base := DefaultSpec(150, 1)
	mutations := []func(*Spec){
		func(s *Spec) { s.ArrivalRate = 0 },
		func(s *Spec) { s.ParetoAlpha = -1 },
		func(s *Spec) { s.Xmin = 0 },
		func(s *Spec) { s.Xmax = 50 }, // below xmin
		func(s *Spec) { s.Window = 0 },
		func(s *Spec) { s.Duration = 0 },
		func(s *Spec) { s.RandomWindow = true; s.WindowMin = 0 },
		func(s *Spec) { s.RandomWindow = true; s.WindowMax = 0.01 },
	}
	for i, mut := range mutations {
		s := base
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, s)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(DefaultSpec(150, 42)).All()
	b := NewGenerator(DefaultSpec(150, 42)).All()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Release != b[i].Release || a[i].Demand != b[i].Demand || a[i].Deadline != b[i].Deadline {
			t.Fatalf("streams diverge at job %d", i)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := NewGenerator(DefaultSpec(150, 1)).All()
	b := NewGenerator(DefaultSpec(150, 2)).All()
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i].Release != b[i].Release {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical streams")
		}
	}
}

func TestGeneratorProperties(t *testing.T) {
	spec := DefaultSpec(150, 7)
	spec.Duration = 100
	jobs := NewGenerator(spec).All()
	if len(jobs) == 0 {
		t.Fatal("no jobs generated")
	}
	prev := 0.0
	for i, j := range jobs {
		if j.ID != i {
			t.Fatalf("IDs not sequential at %d", i)
		}
		if j.Release < prev {
			t.Fatalf("arrivals out of order at job %d", i)
		}
		prev = j.Release
		if j.Release > spec.Duration {
			t.Fatalf("arrival beyond duration: %v", j.Release)
		}
		if j.Demand < spec.Xmin || j.Demand > spec.Xmax {
			t.Fatalf("demand out of Pareto bounds: %v", j.Demand)
		}
		if w := j.Deadline - j.Release; math.Abs(w-spec.Window) > 1e-12 {
			t.Fatalf("fixed window violated: %v", w)
		}
	}
}

// empirical returns a job stream's arrival rate over its release span and
// its mean demand.
func empirical(jobs []*job.Job) (rate, meanDemand float64) {
	for _, j := range jobs {
		meanDemand += j.Demand
	}
	span := jobs[len(jobs)-1].Release - jobs[0].Release
	return float64(len(jobs)-1) / span, meanDemand / float64(len(jobs))
}

func TestGeneratorRateAndDemand(t *testing.T) {
	spec := DefaultSpec(150, 3)
	rate, meanDemand := empirical(NewGenerator(spec).All())
	// 600 s at λ=150 → ~90000 jobs; allow 3% statistical slack.
	if math.Abs(rate-150)/150 > 0.03 {
		t.Fatalf("empirical rate = %v, want ~150", rate)
	}
	if math.Abs(meanDemand-spec.MeanDemand())/spec.MeanDemand() > 0.03 {
		t.Fatalf("empirical mean demand = %v, want ~%v", meanDemand, spec.MeanDemand())
	}
}

func TestRandomWindow(t *testing.T) {
	spec := DefaultSpec(150, 5)
	spec.RandomWindow = true
	spec.Duration = 60
	jobs := NewGenerator(spec).All()
	sawShort, sawLong := false, false
	for _, j := range jobs {
		w := j.Deadline - j.Release
		if w < spec.WindowMin-1e-12 || w > spec.WindowMax+1e-12 {
			t.Fatalf("random window out of [%v,%v]: %v", spec.WindowMin, spec.WindowMax, w)
		}
		if w < 0.25 {
			sawShort = true
		}
		if w > 0.4 {
			sawLong = true
		}
	}
	if !sawShort || !sawLong {
		t.Fatal("random windows do not span the configured range")
	}
}

func TestRandomWindowPreservesDemandStream(t *testing.T) {
	// Splitting the RNG streams means toggling the window model must not
	// perturb demands — Fig. 3 vs Fig. 4 compare like-for-like workloads.
	fixed := DefaultSpec(150, 9)
	fixed.Duration = 30
	random := fixed
	random.RandomWindow = true
	a := NewGenerator(fixed).All()
	b := NewGenerator(random).All()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Demand != b[i].Demand || a[i].Release != b[i].Release {
			t.Fatalf("demand/arrival stream perturbed at %d", i)
		}
	}
}

func TestNextAfterExhaustion(t *testing.T) {
	spec := DefaultSpec(150, 1)
	spec.Duration = 1
	g := NewGenerator(spec)
	for g.Next() != nil {
	}
	if g.Next() != nil {
		t.Fatal("generator should stay exhausted")
	}
}

func TestNewGeneratorPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec did not panic")
		}
	}()
	NewGenerator(Spec{})
}

func TestTraceRoundTrip(t *testing.T) {
	spec := DefaultSpec(150, 11)
	spec.Duration = 5
	jobs := NewGenerator(spec).All()
	tr := Record(jobs, &spec, "unit test")
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Comment != "unit test" {
		t.Fatalf("comment lost: %q", back.Comment)
	}
	if back.Spec == nil || back.Spec.ArrivalRate != 150 {
		t.Fatal("spec lost in round trip")
	}
	restored, err := back.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != len(jobs) {
		t.Fatalf("job count changed: %d vs %d", len(restored), len(jobs))
	}
	for i := range jobs {
		if restored[i].Demand != jobs[i].Demand ||
			restored[i].Release != jobs[i].Release ||
			restored[i].Deadline != jobs[i].Deadline {
			t.Fatalf("job %d changed in round trip", i)
		}
	}
}

func TestMaterializeRejectsCorruptTraces(t *testing.T) {
	bad := &Trace{Jobs: []TraceJob{{Release: 1, Deadline: 0.5, Demand: 100}}}
	if _, err := bad.Materialize(); err == nil {
		t.Error("deadline-before-release trace accepted")
	}
	outOfOrder := &Trace{Jobs: []TraceJob{
		{Release: 2, Deadline: 3, Demand: 100},
		{Release: 1, Deadline: 2, Demand: 100},
	}}
	if _, err := outOfOrder.Materialize(); err == nil {
		t.Error("out-of-order trace accepted")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage trace accepted")
	}
	// A misspelled key is an error naming it, not a silently dropped field.
	_, err := ReadTrace(strings.NewReader(`{"jobs":[{"release":0,"deadline":0.15,"demnad":300}]}`))
	if err == nil || !strings.Contains(err.Error(), `"demnad"`) {
		t.Fatalf("misspelled key: error %v, want one naming \"demnad\"", err)
	}
	// A second value after the trace is an error, not silently ignored;
	// trailing whitespace is fine.
	one := `{"jobs":[{"release":0,"deadline":0.15,"demand":300}]}`
	for _, tail := range []string{` {"jobs":[]}`, ` x`, `]`} {
		if _, err := ReadTrace(strings.NewReader(one + tail)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Fatalf("trace followed by %q: error %v, want one naming the trailing data", tail, err)
		}
	}
	if _, err := ReadTrace(strings.NewReader(one + "\n\t ")); err != nil {
		t.Fatalf("trace followed by whitespace: %v", err)
	}
}

func BenchmarkGenerator(b *testing.B) {
	spec := DefaultSpec(200, 1)
	spec.Duration = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGenerator(spec)
		for g.Next() != nil {
		}
	}
}

func TestReplayerRoundTrip(t *testing.T) {
	spec := DefaultSpec(150, 21)
	spec.Duration = 5
	jobs := NewGenerator(spec).All()
	tr := Record(jobs, &spec, "")
	rep, err := NewReplayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		j := rep.Next()
		if j == nil {
			break
		}
		if j.Release != jobs[count].Release || j.Demand != jobs[count].Demand {
			t.Fatalf("replayed job %d differs", count)
		}
		if j.ID != count {
			t.Fatalf("replayed IDs not sequential: %d", j.ID)
		}
		count++
	}
	if count != len(jobs) {
		t.Fatalf("replayed %d of %d jobs", count, len(jobs))
	}
	// Exhausted replayer stays exhausted; Reset rewinds.
	if rep.Next() != nil {
		t.Fatal("exhausted replayer yielded a job")
	}
	rep.Reset()
	if rep.Next() == nil {
		t.Fatal("reset replayer yielded nothing")
	}
}

func TestReplayerMintsFreshJobs(t *testing.T) {
	tr := &Trace{Jobs: []TraceJob{{Release: 0, Deadline: 1, Demand: 100}}}
	rep, err := NewReplayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Next()
	a.Advance(50) // mutate the first copy
	rep.Reset()
	b := rep.Next()
	if b.Processed != 0 {
		t.Fatal("replayer shared job state across runs")
	}
}

func TestNewReplayerValidates(t *testing.T) {
	bad := &Trace{Jobs: []TraceJob{{Release: 2, Deadline: 1, Demand: 5}}}
	if _, err := NewReplayer(bad); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func mixedSpec(rate float64, seed uint64) Spec {
	s := DefaultSpec(rate, seed)
	s.Classes = []Class{
		{Name: "interactive", Weight: 3, ParetoAlpha: 3, Xmin: 130, Xmax: 1000, Window: 0.150},
		{Name: "analytics", Weight: 1, ParetoAlpha: 2, Xmin: 500, Xmax: 4000,
			RandomWindow: true, WindowMin: 0.5, WindowMax: 2.0},
	}
	return s
}

func TestMixedWorkloadValidation(t *testing.T) {
	s := mixedSpec(100, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := mixedSpec(100, 1)
	bad.Classes[0].Weight = 0
	if bad.Validate() == nil {
		t.Error("zero-weight class accepted")
	}
	bad = mixedSpec(100, 1)
	bad.Classes[1].Xmax = 100 // below Xmin
	if bad.Validate() == nil {
		t.Error("inverted class Pareto bounds accepted")
	}
	bad = mixedSpec(100, 1)
	bad.Classes[0].Window = 0
	if bad.Validate() == nil {
		t.Error("zero class window accepted")
	}
	bad = mixedSpec(100, 1)
	bad.Classes[1].WindowMin = 0
	if bad.Validate() == nil {
		t.Error("zero random-window bound accepted")
	}
}

func TestMixedWorkloadGeneration(t *testing.T) {
	s := mixedSpec(200, 5)
	s.Duration = 60
	jobs := NewGenerator(s).All()
	if len(jobs) == 0 {
		t.Fatal("no jobs")
	}
	interactive, analytics := 0, 0
	for _, j := range jobs {
		w := j.Deadline - j.Release
		switch {
		case math.Abs(w-0.150) < 1e-9 && j.Demand <= 1000:
			interactive++
		case w >= 0.5-1e-9 && w <= 2.0+1e-9 && j.Demand >= 500 && j.Demand <= 4000:
			analytics++
		default:
			t.Fatalf("job fits no class: demand=%v window=%v", j.Demand, w)
		}
	}
	// Weights 3:1 → roughly 75% / 25%.
	fi := float64(interactive) / float64(len(jobs))
	if fi < 0.70 || fi > 0.80 {
		t.Fatalf("interactive share = %v, want ~0.75", fi)
	}
	if analytics == 0 {
		t.Fatal("no analytics jobs drawn")
	}
}

func TestMixedMeanDemand(t *testing.T) {
	s := mixedSpec(100, 1)
	m := s.MeanDemand()
	mi := rngBoundedParetoMean(3, 130, 1000)
	ma := rngBoundedParetoMean(2, 500, 4000)
	want := (3*mi + ma) / 4
	if math.Abs(m-want) > 1e-9 {
		t.Fatalf("mixture mean = %v, want %v", m, want)
	}
}

func TestMixedDeterminism(t *testing.T) {
	a := NewGenerator(mixedSpecShort(7)).All()
	b := NewGenerator(mixedSpecShort(7)).All()
	if len(a) != len(b) {
		t.Fatal("mixed streams differ in length")
	}
	for i := range a {
		if a[i].Demand != b[i].Demand || a[i].Deadline != b[i].Deadline {
			t.Fatalf("mixed streams diverge at %d", i)
		}
	}
}

func rngBoundedParetoMean(alpha, xmin, xmax float64) float64 {
	return rng.BoundedParetoMean(alpha, xmin, xmax)
}

func mixedSpecShort(seed uint64) Spec {
	s := mixedSpec(150, seed)
	s.Duration = 10
	return s
}

func TestBurstValidation(t *testing.T) {
	good := Burst{HighRate: 250, LowRate: 80, MeanHigh: 2, MeanLow: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Burst{
		{HighRate: 0, LowRate: 80, MeanHigh: 2, MeanLow: 5},
		{HighRate: 250, LowRate: -1, MeanHigh: 2, MeanLow: 5},
		{HighRate: 250, LowRate: 80, MeanHigh: 0, MeanLow: 5},
		{HighRate: 250, LowRate: 80, MeanHigh: 2, MeanLow: 0},
	}
	for i, b := range bad {
		if b.Validate() == nil {
			t.Errorf("bad burst %d accepted", i)
		}
	}
	spec := DefaultSpec(100, 1)
	spec.Burst = &bad[0]
	if spec.Validate() == nil {
		t.Error("spec with bad burst accepted")
	}
	// With a valid burst, ArrivalRate may be zero.
	spec = DefaultSpec(100, 1)
	spec.ArrivalRate = 0
	spec.Burst = &good
	if err := spec.Validate(); err != nil {
		t.Fatalf("burst spec rejected: %v", err)
	}
}

func TestBurstEmpiricalRate(t *testing.T) {
	spec := DefaultSpec(0, 31)
	spec.ArrivalRate = 0
	spec.Burst = &Burst{HighRate: 300, LowRate: 100, MeanHigh: 1, MeanLow: 3}
	spec.Duration = 400
	jobs := NewGenerator(spec).All()
	// The MMPP's long-run rate is (300·1 + 100·3)/(1 + 3) = 150.
	rate, _ := empirical(jobs)
	if want := 150.0; math.Abs(rate-want)/want > 0.08 {
		t.Fatalf("empirical MMPP rate = %v, want ~%v", rate, want)
	}
	// Arrivals must still be strictly ordered within duration.
	prev := 0.0
	for i, j := range jobs {
		if j.Release < prev {
			t.Fatalf("out of order at %d", i)
		}
		prev = j.Release
		if j.Release > spec.Duration {
			t.Fatalf("arrival beyond duration")
		}
	}
}

func TestBurstOverdispersion(t *testing.T) {
	// MMPP counts in fixed windows must be overdispersed relative to a
	// Poisson process of the same mean (variance > mean).
	spec := DefaultSpec(0, 33)
	spec.ArrivalRate = 0
	spec.Burst = &Burst{HighRate: 400, LowRate: 50, MeanHigh: 1, MeanLow: 1}
	spec.Duration = 300
	jobs := NewGenerator(spec).All()
	const window = 0.5
	counts := make([]float64, int(spec.Duration/window))
	for _, j := range jobs {
		idx := int(j.Release / window)
		if idx < len(counts) {
			counts[idx]++
		}
	}
	mean, variance := 0.0, 0.0
	for _, c := range counts {
		mean += c
	}
	mean /= float64(len(counts))
	for _, c := range counts {
		variance += (c - mean) * (c - mean)
	}
	variance /= float64(len(counts))
	if variance < 2*mean {
		t.Fatalf("MMPP not overdispersed: var %v vs mean %v", variance, mean)
	}
}

func TestBurstDeterminism(t *testing.T) {
	mk := func() []*job.Job {
		spec := DefaultSpec(0, 37)
		spec.ArrivalRate = 0
		spec.Burst = &Burst{HighRate: 250, LowRate: 80, MeanHigh: 2, MeanLow: 2}
		spec.Duration = 20
		return NewGenerator(spec).All()
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("burst streams differ in length")
	}
	for i := range a {
		if a[i].Release != b[i].Release {
			t.Fatalf("burst streams diverge at %d", i)
		}
	}
}

// referencePareto is the per-draw bounded Pareto formula the generator
// used before it precomputed each shape's constants: both math.Pow terms,
// the product and the exponent recomputed on every draw.
func referencePareto(r *rng.Source, alpha, xmin, xmax float64) float64 {
	if xmax == xmin {
		return xmin
	}
	u := r.Float64()
	la := math.Pow(xmin, alpha)
	ha := math.Pow(xmax, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x < xmin {
		x = xmin
	}
	if x > xmax {
		x = xmax
	}
	return x
}

// TestParetoDrawsMatchPerDrawFormula proves the precomputed draws bit for
// bit equal to the per-draw formula, across seeds, shapes (a degenerate
// one included) and class mixtures. The reference replays the generator's
// streams: the demand stream draws one value per job, from the class the
// class stream picks.
func TestParetoDrawsMatchPerDrawFormula(t *testing.T) {
	shapes := []Class{
		{Weight: 1, ParetoAlpha: 3, Xmin: 130, Xmax: 1000, Window: 0.15},
		{Weight: 2.5, ParetoAlpha: 1, Xmin: 1, Xmax: 1e6, Window: 0.5},
		{Weight: 0.3, ParetoAlpha: 0.4, Xmin: 20, Xmax: 21, RandomWindow: true, WindowMin: 0.1, WindowMax: 0.3},
		{Weight: 1, ParetoAlpha: 7.5, Xmin: 500, Xmax: 500, Window: 1},
		{Weight: 4, ParetoAlpha: 2.2, Xmin: 0.01, Xmax: 3, Window: 0.05},
	}
	mixes := [][]Class{nil, shapes, shapes[:2], shapes[2:], {shapes[3], shapes[0]}}
	for seed := uint64(1); seed <= 40; seed++ {
		for _, single := range shapes {
			spec := Spec{ArrivalRate: 400, ParetoAlpha: single.ParetoAlpha, Xmin: single.Xmin,
				Xmax: single.Xmax, Window: 0.15, Duration: 2, Seed: seed}
			checkParetoDraws(t, spec)
		}
		for _, mix := range mixes[1:] {
			checkParetoDraws(t, Spec{ArrivalRate: 400, Duration: 2, Seed: seed, Classes: mix})
		}
	}
}

// checkParetoDraws generates spec's stream and compares every demand with
// the reference formula drawn from a replica of the generator's streams.
func checkParetoDraws(t *testing.T, spec Spec) {
	t.Helper()
	root := rng.New(spec.Seed)
	root.Split() // arrivals
	demands := root.Split()
	root.Split() // windows
	classes := root.Split()
	total := 0.0
	for _, c := range spec.Classes {
		total += c.Weight
	}
	g := NewGenerator(spec)
	n := 0
	for j := g.Next(); j != nil; j = g.Next() {
		alpha, xmin, xmax := spec.ParetoAlpha, spec.Xmin, spec.Xmax
		if len(spec.Classes) > 0 {
			c := spec.Classes[len(spec.Classes)-1]
			pick := classes.Float64() * total
			for _, cand := range spec.Classes {
				if pick -= cand.Weight; pick < 0 {
					c = cand
					break
				}
			}
			alpha, xmin, xmax = c.ParetoAlpha, c.Xmin, c.Xmax
		}
		want := referencePareto(demands, alpha, xmin, xmax)
		if math.Float64bits(j.Demand) != math.Float64bits(want) {
			t.Fatalf("seed %d job %d: demand %v, per-draw formula %v", spec.Seed, j.ID, j.Demand, want)
		}
		n++
	}
	if n < 100 {
		t.Fatalf("seed %d: only %d jobs drawn", spec.Seed, n)
	}
}
