// Command perfbench is the repository benchmark. It runs a named workload
// through the public entry points (goodenough.Run, goodenough.RunFleet and
// an in-process gateway → server loopback deployment), checks the outputs,
// and prints its metrics. The last line a workload prints is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is 1
// when any check failed.
//
//	sh perfbench/run.sh --workload sim-overload --seed 1 --seconds 25 --trace 0
//	sh perfbench/run.sh --workload all
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 the run measures once untraced, once traced, and
// prints the per-layer metrics. See README.md for every definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produced.
type report struct {
	attempted int64
	failed    int64
	// problems lists every failed correctness check; empty means correct.
	problems []string
	metrics  map[string]metric
	// infos are printed for reading but not gated: too noisy on a shared
	// host to carry a bound, or the complement of a gated metric.
	infos []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// info records an ungated number for the human-readable output.
func (r *report) info(name string, v float64, unit string) {
	r.infos = append(r.infos, fmt.Sprintf("info   %-28s %14.6g %s", name, v, unit))
}

// set records a metric; its unit comes from the endToEnd or perLayer table.
func (r *report) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	r.metrics[name] = metric{v, u}
}

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// options are the command-line settings every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// defaultSeed is the input seed when --seed is absent. Seed 1009 is held
// out: it confirms a later performance claim on inputs not used to tune it.
const defaultSeed = 1

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options) (*report, error){
	"sim-overload":   runSimOverload,
	"fleet-chaos":    runFleetChaos,
	"serve-light":    runServeLight,
	"serve-brownout": runServeBrownout,
}

func main() {
	name := flag.String("workload", "", "workload to run (sim-overload, fleet-chaos, serve-light, serve-brownout), or all of them in turn")
	seed := flag.Int64("seed", -1, "input seed (default 1)")
	seconds := flag.Float64("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	for _, n := range names {
		if workloads[n] == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
			fmt.Fprintln(os.Stderr, "perfbench: need --workload <name>|all with --seconds > 0 and --trace 0|1")
			flag.Usage()
			os.Exit(2)
		}
	}
	o := options{seed: defaultSeed, seconds: *seconds, trace: *trace == 1}
	if *seed >= 0 {
		o.seed = uint64(*seed)
	}

	fmt.Println(environment())
	correct := true
	for _, n := range names {
		ok, err := runWorkload(n, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		correct = correct && ok
	}
	if !correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload and prints its metric lines, its failed
// checks and, last, its JSON result. ok is false when a check failed.
func runWorkload(name string, o options) (ok bool, err error) {
	trace := 0
	if o.trace {
		trace = 1
	}
	fmt.Printf("workload %s seed=%d seconds=%g trace=%d\n", name, o.seed, o.seconds, trace)
	start := time.Now()
	rep, err := workloads[name](o)
	if err != nil {
		return false, err
	}
	if err := rep.complete(o.trace); err != nil {
		return false, err
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	for _, line := range rep.infos {
		fmt.Println(line)
	}
	for _, p := range rep.problems {
		fmt.Println("check failed:", p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s done in %.1fs\n", name, time.Since(start).Seconds())

	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return len(rep.problems) == 0, nil
}
