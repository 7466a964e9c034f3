// Command gefleet runs a fleet simulation: N machines — each a full
// scheduler/DVFS/power stack — behind a global dispatcher, under optional
// machine-level chaos, all on one deterministic clock:
//
//	gefleet -machines 8 -dispatch p2c -rate 1200
//	gefleet -machines 4 -dispatch least-loaded -scheduler be
//	gefleet -list
//
// Machine chaos (crashes, partitions, degraded machines):
//
//	# machine 1 crashes at t=5s for 10s; machine 3 runs at half budget:
//	gefleet -machines 4 -chaos '[{"at":5,"kind":"crash","machine":1,"duration":10},
//	                             {"at":8,"kind":"slow","machine":3,"duration":20,"factor":0.5}]'
//
//	# seeded MTBF/MTTR crash/recover process across the fleet:
//	gefleet -machines 10 -machine-mtbf 30 -machine-mttr 5
//
//	# committed chaos scenarios live in testdata/ (see -chaos @file):
//	gefleet -machines 10 -chaos @testdata/fleet_chaos.json -compare
//
// The -compare mode runs every dispatch policy on the identical workload
// and fault schedule — the policy shoot-out: per-policy energy, quality,
// p99 latency, lost work, and re-dispatch counts side by side, with the
// omniscient "ideal" row as the routing-regret yardstick.
//
// The event heaps are sharded for scale (-shards; 0 picks an automatic
// count, 1 forces sequential). Every shard count produces byte-identical
// output — it is an execution knob, never a simulation knob.
//
// Observability mirrors gesim: -events (JSONL), -trace (Perfetto), -report.
// Fleet exports remap core events to globally unique IDs machine*cores+core
// and add machine health tracks. -report also prints the decision summary
// (dispatches, re-dispatches, sheds) and a per-machine routing table;
// combined with -compare it shows how each policy spread the load.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"goodenough"
)

// parseChaos decodes -chaos: a JSON list of machine fault windows, inline
// or, with a leading @, from a file.
func parseChaos(arg string) ([]goodenough.MachineFaultSpec, error) {
	raw := []byte(arg)
	if strings.HasPrefix(arg, "@") {
		b, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		raw = b
	}
	// Strict: a misspelled key must not silently drop a field (a "duraton"
	// would make a bounded crash permanent).
	var specs []goodenough.MachineFaultSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("parsing -chaos: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("parsing -chaos: trailing data after the schedule")
	}
	return specs, nil
}

// compareAll runs every dispatch policy on the same workload and fault
// schedule and prints one row per policy. With report set, each row is
// followed by the per-machine decision summary — how that policy actually
// spread (and fault re-routed) the load.
func compareAll(fc goodenough.FleetConfig, report bool) {
	fmt.Printf("%-13s %8s %12s %9s %9s %7s %8s %10s %6s %6s\n",
		"dispatch", "quality", "energy(J)", "p99(ms)", "completed", "expired", "redisp", "lostwork", "drop", "lost")
	exit := 0
	for _, name := range goodenough.DispatchPolicies() {
		c := fc
		c.Dispatch = name
		res, err := goodenough.RunFleet(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gefleet: %s: %v\n", name, err)
			exit = 1
			continue
		}
		fmt.Printf("%-13s %8.4f %12.1f %9.2f %9d %7d %8d %10.1f %6d %6d\n",
			res.Dispatch, res.Quality, res.Energy, res.P99Response*1000,
			res.Completed, res.Expired, res.Redispatches, res.LostWork,
			res.Dropped, res.LostForever)
		if report {
			for i, m := range res.PerMachine {
				fmt.Printf("  machine %-4d dispatches=%-7d redispatches=%-5d completed=%-7d expired=%d\n",
					i, m.Dispatches, m.Redispatches, m.Completed, m.Expired)
			}
		}
		if res.LostForever != 0 {
			fmt.Fprintf(os.Stderr, "gefleet: %s: %d jobs lost forever\n", name, res.LostForever)
			exit = 1
		}
	}
	os.Exit(exit)
}

// printShardLayout shows how the run was partitioned across event-heap
// shards and how much event traffic each shard carried — the load-balance
// check for the sharded engine.
func printShardLayout(res goodenough.FleetResult) {
	fmt.Printf("shards           %d\n", res.Shards)
	for i, ev := range res.ShardEvents {
		machines := 0
		if i < len(res.ShardMachines) {
			machines = res.ShardMachines[i]
		}
		fmt.Printf("  shard %-4d %3d machines %12d events\n", i, machines, ev)
	}
}

func main() {
	var (
		list        = flag.Bool("list", false, "list dispatch policies and schedulers, then exit")
		machines    = flag.Int("machines", 4, "fleet size N")
		dispatch    = flag.String("dispatch", "p2c", "dispatch policy (rr|least-loaded|p2c|ideal)")
		choicesK    = flag.Int("choices-k", 2, "sample size k for the p2c dispatcher")
		scheduler   = flag.String("scheduler", "ge", "per-machine scheduling policy")
		rate        = flag.Float64("rate", 0, "fleet-wide Poisson arrival rate (req/s; 0 = 154 per machine)")
		duration    = flag.Float64("duration", 60, "simulated seconds of arrivals")
		cores       = flag.Int("cores", 16, "DVFS cores per machine")
		budget      = flag.Float64("budget", 320, "per-machine dynamic power budget (W)")
		qge         = flag.Float64("qge", 0.9, "good-enough quality target")
		seed        = flag.Uint64("seed", 2017, "workload and chaos RNG seed")
		redispLimit = flag.Int("redispatch-limit", 0, "max re-dispatches per job (0 = default 3)")
		chaos       = flag.String("chaos", "", "machine fault schedule JSON (inline or @file)")
		mtbf        = flag.Float64("machine-mtbf", 0, "mean time between machine crashes (s, 0 = off)")
		mttr        = flag.Float64("machine-mttr", 0, "mean machine repair time for -machine-mtbf (s)")
		shards      = flag.Int("shards", 0, "event-heap shards (0 = auto: min(GOMAXPROCS, machines/8), raised to ceil(machines/128); 1 = sequential); results are byte-identical for every value")

		compare   = flag.Bool("compare", false, "run every dispatch policy and print a comparison table")
		csv       = flag.Bool("csv", false, "emit a single CSV row instead of text")
		eventsOut = flag.String("events", "", "write the structured event stream as JSON Lines to this file")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event file (open in Perfetto) to this file")
		report    = flag.Bool("report", false, "print a plain-text observability report after the run")
	)
	flag.Parse()

	if *list {
		fmt.Println("dispatch policies:", strings.Join(goodenough.DispatchPolicies(), " "))
		fmt.Println("schedulers:", strings.Join(goodenough.Schedulers(), " "))
		return
	}

	fc := goodenough.DefaultFleetConfig()
	fc.Machines = *machines
	fc.Dispatch = *dispatch
	fc.ChoicesK = *choicesK
	fc.Scheduler = *scheduler
	fc.DurationSec = *duration
	fc.Cores = *cores
	fc.PowerBudget = *budget
	fc.QGE = *qge
	fc.Seed = *seed
	fc.RedispatchLimit = *redispLimit
	fc.MachineMTBFSec = *mtbf
	fc.MachineMTTRSec = *mttr
	fc.Shards = *shards
	if *rate > 0 {
		fc.ArrivalRate = *rate
	} else {
		fc.ArrivalRate = 154 * float64(*machines)
	}
	if *chaos != "" {
		specs, err := parseChaos(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gefleet:", err)
			os.Exit(1)
		}
		fc.MachineFaults = specs
	}

	if *compare {
		compareAll(fc, *report)
		return
	}

	var opts goodenough.RunOptions
	var outFiles []*os.File
	open := func(path string) *os.File {
		f, ferr := os.Create(path)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "gefleet:", ferr)
			os.Exit(1)
		}
		outFiles = append(outFiles, f)
		return f
	}
	if *eventsOut != "" {
		opts.Events = open(*eventsOut)
	}
	if *traceOut != "" {
		opts.Trace = open(*traceOut)
	}
	var reportBuf bytes.Buffer
	if *report {
		opts.Report = &reportBuf
	}

	res, err := goodenough.RunFleetWithOptions(fc, opts)
	for _, f := range outFiles {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gefleet:", err)
		os.Exit(1)
	}

	if *csv {
		fmt.Printf("dispatch,scheduler,machines,rate,quality,energy_j,aes_fraction,p99_ms,jobs,completed,expired,dropped,lost_forever,crashes,partitions,degrades,redispatches,lost_work,pending_expired,availability,sim_time_s\n")
		fmt.Printf("%s,%s,%d,%g,%.6f,%.2f,%.4f,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.2f,%d,%.6f,%.2f\n",
			res.Dispatch, res.Scheduler, res.Machines, fc.ArrivalRate,
			res.Quality, res.Energy, res.AESFraction, res.P99Response*1000,
			res.Jobs, res.Completed, res.Expired, res.Dropped, res.LostForever,
			res.Crashes, res.Partitions, res.Degrades, res.Redispatches,
			res.LostWork, res.PendingExpired, res.Availability, res.SimTime)
		if *report {
			printShardLayout(res)
		}
		reportBuf.WriteTo(os.Stdout)
		if res.LostForever != 0 {
			os.Exit(1)
		}
		return
	}

	fmt.Printf("dispatch         %s (scheduler %s, %d machines x %d cores)\n",
		res.Dispatch, res.Scheduler, res.Machines, fc.Cores)
	fmt.Printf("arrival rate     %g req/s fleet-wide over %g s (%d jobs)\n",
		fc.ArrivalRate, *duration, res.Jobs)
	fmt.Printf("service quality  %.4f (target %.2f)\n", res.Quality, *qge)
	fmt.Printf("energy           %.1f J (AES %.1f + BQ %.1f)\n",
		res.Energy, res.AESEnergy, res.BQEnergy)
	fmt.Printf("response         mean %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
		res.MeanResponse*1000, res.P95Response*1000, res.P99Response*1000)
	fmt.Printf("AES fraction     %.3f\n", res.AESFraction)
	fmt.Printf("completed        %d\n", res.Completed)
	fmt.Printf("expired          %d\n", res.Expired)
	fmt.Printf("dropped          %d (re-dispatch limit)\n", res.Dropped)
	fmt.Printf("lost forever     %d\n", res.LostForever)
	if res.Crashes > 0 || res.Partitions > 0 || res.Degrades > 0 || *report {
		if res.Crashes > 0 || res.Partitions > 0 || res.Degrades > 0 {
			fmt.Printf("machine faults   %d crashes, %d partitions, %d degrades\n",
				res.Crashes, res.Partitions, res.Degrades)
			fmt.Printf("re-dispatches    %d (lost work %.1f units)\n",
				res.Redispatches, res.LostWork)
			fmt.Printf("pending expired  %d\n", res.PendingExpired)
			fmt.Printf("availability     %.4f\n", res.Availability)
		}
		fmt.Printf("%-8s %12s %9s %10s %9s %8s %9s %8s %7s\n",
			"machine", "energy(J)", "quality", "completed", "expired", "crashes", "down(s)", "disp", "redisp")
		for i, m := range res.PerMachine {
			fmt.Printf("%-8d %12.1f %9.4f %10d %9d %8d %9.2f %8d %7d\n",
				i, m.Energy, m.Quality, m.Completed, m.Expired, m.Crashes, m.DownTime,
				m.Dispatches, m.Redispatches)
		}
	}
	if *report {
		fmt.Println()
		printShardLayout(res)
		reportBuf.WriteTo(os.Stdout)
	}
	if res.LostForever != 0 {
		fmt.Fprintf(os.Stderr, "gefleet: %d jobs lost forever\n", res.LostForever)
		os.Exit(1)
	}
}
