package main

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"time"

	"goodenough"
	"goodenough/internal/cluster"
	"goodenough/internal/core"
	"goodenough/internal/faults"
	"goodenough/internal/obs"
	"goodenough/internal/power"
	"goodenough/internal/quality"
	"goodenough/internal/sched"
	"goodenough/internal/workload"
)

// criticalRate is the §IV-B machine's critical load in req/s.
const criticalRate = 154

// overloadConfig is sim-overload: one §IV-B machine (16 cores, 320 W,
// P = 5·s², Q_GE 0.9, fixed 150 ms windows) at twice the critical load.
func overloadConfig(seed uint64) goodenough.Config {
	cfg := goodenough.DefaultConfig()
	cfg.ArrivalRate = 2 * criticalRate
	cfg.DurationSec = 120
	cfg.Seed = seed
	return cfg
}

// fleetConfig is fleet-chaos: 1000 such machines at the critical load each,
// default p2c dispatch and shard count, and seeded machine crashes.
func fleetConfig(seed uint64) goodenough.FleetConfig {
	fc := goodenough.DefaultFleetConfig()
	fc.Machines = 1000
	fc.ArrivalRate = criticalRate * float64(fc.Machines)
	fc.DurationSec = 2
	fc.MachineMTBFSec = 60
	fc.MachineMTTRSec = 5
	fc.Seed = seed
	return fc
}

// simulation is one constructed run, ready to execute once.
type simulation interface {
	// run executes it and returns the internal result (compared bit for
	// bit across runs) plus the delivered kernel events.
	run() (any, int64, error)
}

// simCase builds the simulations of one workload.
type simCase struct {
	// build lowers the configuration and constructs a simulation; policy
	// wraps each scheduling policy (nil keeps it as is) and sink, when
	// non-nil, receives the events and decisions.
	build func(policy func(sched.Policy) sched.Policy, sink *traceSink) (simulation, error)
	// reference runs the workload once through the public entry point with
	// o observing, returning the public result.
	reference func(o obs.Observer) (any, error)
	// check verifies the accounting identities of an internal result and
	// that the public reference agrees with it.
	check func(r *report, internal, public any)
	// summary extracts the reported outputs of an internal result.
	summary func(internal any) simSummary
}

type simSummary struct {
	energy, quality float64
	jobs, completed int64
	shardImbalance  float64
}

// nodeConfig mirrors goodenough's lowering of a Config with the exponential
// quality family, continuous speeds and no per-core faults; check proves the
// mirror exact by comparing against the public entry point.
func nodeConfig(cfg goodenough.Config) sched.Config {
	return sched.Config{
		Cores:          cfg.Cores,
		PowerBudget:    cfg.PowerBudget,
		Model:          power.Model{A: cfg.PowerAlpha, Beta: cfg.PowerBeta},
		Quality:        quality.NewExponential(cfg.QualityC, cfg.DemandMax),
		QGE:            cfg.QGE,
		CriticalLoad:   cfg.CriticalLoad,
		QuantumSec:     cfg.QuantumMS / 1000,
		CounterTrigger: cfg.CounterTrigger,
		RateWindow:     2,
	}
}

func workloadSpec(cfg goodenough.Config) workload.Spec {
	return workload.Spec{
		ArrivalRate: cfg.ArrivalRate,
		ParetoAlpha: cfg.ParetoAlpha,
		Xmin:        cfg.DemandMin,
		Xmax:        cfg.DemandMax,
		Window:      cfg.WindowMS / 1000,
		WindowMin:   cfg.WindowMinMS / 1000,
		WindowMax:   cfg.WindowMaxMS / 1000,
		Duration:    cfg.DurationSec,
		Seed:        cfg.Seed,
	}
}

func wrap(policy func(sched.Policy) sched.Policy, p sched.Policy) sched.Policy {
	if policy == nil {
		return p
	}
	return policy(p)
}

type machineRun struct{ r *sched.Runner }

func (m machineRun) run() (any, int64, error) {
	res, err := m.r.Run()
	return res, m.r.EventsProcessed(), err
}

type fleetRun struct{ f *cluster.Fleet }

func (f fleetRun) run() (any, int64, error) {
	res, err := f.f.Run()
	var events int64
	for _, e := range res.ShardEvents {
		events += e
	}
	return res, events, err
}

func machineCase(cfg goodenough.Config) simCase {
	return simCase{
		build: func(policy func(sched.Policy) sched.Policy, sink *traceSink) (simulation, error) {
			r, err := sched.NewRunner(nodeConfig(cfg), wrap(policy, core.NewGE(cfg.QGE)), workloadSpec(cfg))
			if err != nil {
				return nil, err
			}
			if sink != nil {
				r.SetObserver(sink)
				r.SetDecisionSink(sink)
			}
			return machineRun{r}, nil
		},
		reference: func(o obs.Observer) (any, error) {
			return goodenough.RunWithOptions(cfg, goodenough.RunOptions{Observer: o})
		},
		check: func(r *report, internal, public any) {
			in, pub := internal.(sched.Result), public.(goodenough.Result)
			r.check(int64(in.Jobs) == in.Completed+in.Expired+in.DroppedJobs,
				"jobs %d != completed %d + expired %d + dropped %d", in.Jobs, in.Completed, in.Expired, in.DroppedJobs)
			r.check(in.Quality >= 0 && in.Quality <= 1, "quality %v outside [0, 1]", in.Quality)
			r.check(!in.Cancelled, "run cancelled: %s", in.CancelReason)
			r.check(in.Energy == pub.Energy && in.Quality == pub.Quality && in.Jobs == pub.Jobs &&
				in.Completed == pub.Completed && in.Expired == pub.Expired && in.CutJobs == pub.CutJobs &&
				in.SimTime == pub.SimTime && in.AESEnergy == pub.AESEnergy && in.P95Response == pub.P95Response,
				"measured run differs from goodenough.Run")
		},
		summary: func(internal any) simSummary {
			in := internal.(sched.Result)
			return simSummary{energy: in.Energy, quality: in.Quality,
				jobs: int64(in.Jobs), completed: in.Completed}
		},
	}
}

func fleetCase(fc goodenough.FleetConfig) simCase {
	return simCase{
		build: func(policy func(sched.Policy) sched.Policy, sink *traceSink) (simulation, error) {
			disp, err := cluster.NewDispatcher(fc.Dispatch, fc.ChoicesK, fc.Seed)
			if err != nil {
				return nil, err
			}
			crashes, err := faults.GenerateCluster(fc.Seed, fc.Machines, fc.DurationSec, fc.MachineMTBFSec, fc.MachineMTTRSec)
			if err != nil {
				return nil, err
			}
			ccfg := cluster.Config{
				Machines:  fc.Machines,
				Node:      nodeConfig(fc.Config),
				NewPolicy: func() sched.Policy { return wrap(policy, core.NewGE(fc.QGE)) },
				Dispatch:  disp,
				Workload:  workloadSpec(fc.Config),
				Faults:    crashes,
				Shards:    fc.Shards,
			}
			if sink != nil {
				ccfg.Observer, ccfg.Decisions = sink, sink
			}
			f, err := cluster.New(ccfg)
			if err != nil {
				return nil, err
			}
			return fleetRun{f}, nil
		},
		reference: func(o obs.Observer) (any, error) {
			return goodenough.RunFleetWithOptions(fc, goodenough.RunOptions{Observer: o})
		},
		check: func(r *report, internal, public any) {
			in, pub := internal.(cluster.Result), public.(goodenough.FleetResult)
			r.check(int64(in.Jobs) == in.Completed+in.Expired+in.Dropped,
				"jobs %d != completed %d + expired %d + dropped %d", in.Jobs, in.Completed, in.Expired, in.Dropped)
			r.check(in.LostForever == 0, "%d jobs lost forever", in.LostForever)
			r.check(in.Quality >= 0 && in.Quality <= 1, "quality %v outside [0, 1]", in.Quality)
			r.check(in.Crashes > 0 && in.Redispatches > 0, "no crash re-routed work (%d crashes)", in.Crashes)
			r.check(in.Energy == pub.Energy && in.Quality == pub.Quality && in.Jobs == pub.Jobs &&
				in.Completed == pub.Completed && in.Expired == pub.Expired && in.Dropped == pub.Dropped &&
				in.Redispatches == pub.Redispatches && in.SimTime == pub.SimTime &&
				in.P99Response == pub.P99Response && reflect.DeepEqual(in.ShardEvents, pub.ShardEvents),
				"measured run differs from goodenough.RunFleet")
		},
		summary: func(internal any) simSummary {
			in := internal.(cluster.Result)
			var peak, sum float64
			for _, e := range in.ShardEvents {
				peak, sum = math.Max(peak, float64(e)), sum+float64(e)
			}
			return simSummary{energy: in.Energy, quality: in.Quality,
				jobs: int64(in.Jobs), completed: in.Completed,
				shardImbalance: peak / (sum / float64(len(in.ShardEvents)))}
		},
	}
}

func runSimOverload(o options) (*report, error) {
	cfg := overloadConfig(o.seed)
	return runSim(o, machineCase(cfg), cfg)
}

func runFleetChaos(o options) (*report, error) {
	fc := fleetConfig(o.seed)
	return runSim(o, fleetCase(fc), fc.Config)
}

// replies collects from the event stream each simulated request's
// placement delay (arrival to its first assignment to a core: GE's batching
// delay) and its quality f(processed)/f(demand).
type replies struct {
	mu      sync.Mutex
	f       quality.Function
	arrival []float64 // by job ID
	demand  []float64
	placed  []bool
	delays  []float64 // seconds
	qsum    float64
	n       int
}

func (rs *replies) Observe(e obs.Event) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	switch e.Type {
	case obs.EventJobArrive:
		for len(rs.demand) <= e.Job {
			rs.arrival = append(rs.arrival, 0)
			rs.demand = append(rs.demand, 0)
			rs.placed = append(rs.placed, false)
		}
		rs.arrival[e.Job], rs.demand[e.Job] = e.Time, e.Value
	case obs.EventJobAssign:
		if !rs.placed[e.Job] {
			rs.placed[e.Job] = true
			rs.delays = append(rs.delays, e.Time-rs.arrival[e.Job])
		}
	case obs.EventJobComplete:
		rs.add(e.Value, rs.demand[e.Job])
	case obs.EventJobExpire, obs.EventJobDrop:
		rs.add(e.Value, e.Aux)
	}
}

func (rs *replies) add(processed, demand float64) {
	rs.qsum += rs.f.Value(processed) / rs.f.Value(demand)
	rs.n++
}

// rep is one measured simulation run.
type rep struct {
	res    any
	events int64
	wall   time.Duration
	peak   float64 // MiB of heap objects, most during Run
	// Traced runs only: the host times of the scheduling decisions, and
	// the counting sink.
	calls []time.Duration
	sink  *traceSink
}

// repeat runs fresh simulations until the deadline passes (at least one),
// timing Run, and checks that every run equals the first bit for bit.
// traced wraps the policies in decision timers and attaches counting sinks.
func repeat(r *report, c simCase, until time.Time, traced bool, each func(rep)) (first rep, err error) {
	heap := startHeapWatch()
	defer heap.close()
	for n := 1; n == 1 || time.Now().Before(until); n++ {
		var calls *callTimes
		var policy func(sched.Policy) sched.Policy
		var sink *traceSink
		if traced {
			calls, sink = &callTimes{}, &traceSink{}
			policy = calls.wrap
		}
		sim, err := c.build(policy, sink)
		if err != nil {
			return rep{}, err
		}
		runtime.GC()
		heap.take()
		start := time.Now()
		res, events, err := sim.run()
		x := rep{res: res, events: events, wall: time.Since(start), peak: heap.take(), sink: sink}
		r.attempted++
		if err != nil {
			r.failed++
			return rep{}, err
		}
		if traced {
			x.calls = calls.all()
		}
		if n == 1 {
			first = x
			first.calls = nil
		}
		r.check(reflect.DeepEqual(x.res, first.res) && x.events == first.events,
			"run %d differs from the first run of the seed", n)
		each(x)
	}
	return first, nil
}

// runSim measures a simulator workload: set-up time, one observed reference
// run through the public entry point, then timed runs until the time is up.
// Traced: half the time untraced and half traced.
func runSim(o options, c simCase, cfg goodenough.Config) (*report, error) {
	r := newReport()

	// Set-up: lowering plus runner or fleet construction. Each sample is
	// the mean over a batch of at least 20 ms, so fast set-ups are not
	// lost to clock resolution, started after a collection, so garbage of
	// the previous batch is not charged to it; setup_s is the median.
	var setups []float64
	t := time.Now()
	if _, err := c.build(nil, nil); err != nil {
		return nil, err
	}
	batch := int(20*time.Millisecond/max(time.Since(t), time.Microsecond)) + 1
	for len(setups) < 21 {
		runtime.GC()
		t := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := c.build(nil, nil); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t).Seconds()/float64(batch))
	}

	rs := &replies{f: quality.NewExponential(cfg.QualityC, cfg.DemandMax)}
	public, err := c.reference(rs)
	r.attempted++
	if err != nil {
		r.failed++
		return nil, err
	}
	r.check(len(rs.delays) > 0 && rs.n > 0, "the reference run placed or finalized no request")
	placeP50, placeP99 := 1000*quantile(rs.delays, 0.5), 1000*quantile(rs.delays, 0.99)
	replyQuality := rs.qsum / float64(rs.n)

	measure := o.seconds
	if o.trace {
		measure /= 2
	}
	var walls, peaks, allocMB, allocsPer []float64
	b0, n0 := allocStats()
	first, err := repeat(r, c, time.Now().Add(seconds(measure)), false, func(x rep) {
		peaks = append(peaks, x.peak)
		b1, n1 := allocStats()
		allocMB = append(allocMB, float64(b1-b0)/(1<<20))
		allocsPer = append(allocsPer, float64(n1-n0)/float64(x.events))
		walls = append(walls, x.wall.Seconds())
		b0, n0 = allocStats()
	})
	if err != nil {
		return nil, err
	}
	c.check(r, first.res, public)
	sum := c.summary(first.res)
	wall := median(walls)

	if !o.trace {
		r.set("wall_s", wall)
		r.set("setup_s", median(setups))
		r.set("peak_heap_mb", median(peaks))
		r.set("energy_j", sum.energy)
		r.set("batch_quality", sum.quality)
		r.set("latency_p50_ms", placeP50)
		r.info("latency_p99_ms", placeP99, "ms")
		r.set("goodput_rps", float64(sum.completed)/cfg.DurationSec)
		r.set("ok_frac", float64(sum.completed)/float64(sum.jobs))
		r.info("fail_frac", 1-float64(sum.completed)/float64(sum.jobs), "ratio")
		r.set("reply_quality", replyQuality)
		return r, nil
	}

	// Traced half: counting sinks and a CPU profile on top of the timers.
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	var twalls, ncalls, c50s, c99s []float64
	traced, err := repeat(r, c, time.Now().Add(seconds(measure)), true, func(x rep) {
		twalls = append(twalls, x.wall.Seconds())
		ncalls = append(ncalls, float64(len(x.calls)))
		us := micros(x.calls)
		c50s = append(c50s, quantile(us, 0.5))
		c99s = append(c99s, quantile(us, 0.99))
	})
	samples, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	r.check(reflect.DeepEqual(traced.res, first.res), "traced run differs from the untraced run")

	s := traced.sink
	setShares(r, samples)
	r.set("core.calls", median(ncalls))
	r.set("core.call_p50_us", median(c50s))
	r.set("core.call_p99_us", median(c99s))
	r.set("cut.job_cuts", float64(s.count(obs.EventJobCut)))
	r.set("machine.dvfs_transitions", float64(s.count(obs.EventCoreSpeed)))
	r.set("sched.triggers", float64(s.count(obs.EventBatch)))
	r.set("sim.events", float64(first.events))
	r.set("sim.ns_per_event", wall*1e9/float64(first.events))
	r.set("cluster.dispatches", float64(s.decisionCount(obs.DecisionDispatch)))
	r.set("cluster.redispatches", float64(s.decisionCount(obs.DecisionRedispatch)))
	r.set("cluster.shard_imbalance", sum.shardImbalance)
	r.set("runtime.alloc_mb", median(allocMB))
	r.set("runtime.allocs_per_event", median(allocsPer))
	r.set("bench.trace_overhead_frac", median(twalls)/wall-1)
	return r, nil
}
