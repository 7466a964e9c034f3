package main

import "fmt"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload.
// README.md defines each per workload kind.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"energy_j", "J"},
	{"batch_quality", "ratio"},
	{"latency_p50_ms", "ms"},
	{"goodput_rps", "req/s"},
	{"ok_frac", "ratio"},
	{"reply_quality", "ratio"},
}

// perLayer are the metrics of a traced run. A workload reports 0 for a layer
// it does not run.
var perLayer = append(shareDefs(), []metricDef{
	{"core.calls", "count"},
	{"core.call_p50_us", "us"},
	{"core.call_p99_us", "us"},
	{"cut.job_cuts", "count"},
	{"machine.dvfs_transitions", "count"},
	{"sched.triggers", "count"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"cluster.dispatches", "count"},
	{"cluster.redispatches", "count"},
	{"cluster.shard_imbalance", "ratio"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.allocs_per_event", "count"},
	{"gateway.self_p50_us", "us"},
	{"gateway.self_p99_us", "us"},
	{"gateway.attempts_per_req", "ratio"},
	{"gateway.hedges_fired", "count"},
	{"gateway.retries", "count"},
	{"server.handler_p50_us", "us"},
	{"server.handler_p99_us", "us"},
	{"server.overhead_p99_us", "us"},
	{"server.admitted", "count"},
	{"server.shed", "count"},
	{"goodenough.run_p50_us", "us"},
	{"goodenough.run_p99_us", "us"},
	{"goodenough.cancelled", "count"},
	{"governor.cuts", "count"},
	{"governor.sheds", "count"},
	{"governor.degraded_frac", "ratio"},
	{"governor.shedding_frac", "ratio"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}...)

// shareDefs are the CPU-profile shares foldProfile reports.
func shareDefs() []metricDef {
	defs := []metricDef{{"core.cum_frac", "ratio"}, {"server.journal_frac", "ratio"}, {"runtime.gc_frac", "ratio"}}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_frac", "ratio"})
	}
	return defs
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// complete checks that the report holds exactly the metrics of its mode:
// every end-to-end metric untraced, every per-layer metric traced, where a
// layer the workload does not run reads 0.
func (r *report) complete(traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	keep := map[string]bool{}
	for _, d := range want {
		keep[d.name] = true
		if _, ok := r.metrics[d.name]; !ok {
			if !traced {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			r.set(d.name, 0)
		}
	}
	for name := range r.metrics {
		if !keep[name] {
			return fmt.Errorf("metric %s does not belong to this mode", name)
		}
	}
	return nil
}
