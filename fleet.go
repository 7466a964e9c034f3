package goodenough

import (
	"fmt"

	"goodenough/internal/cluster"
	"goodenough/internal/faults"
	"goodenough/internal/sched"
)

// FleetConfig describes a fleet simulation: N identical machines — each
// running the embedded single-machine Config — behind a global dispatcher,
// with optional machine-level chaos (crashes, partitions, degradations).
//
// The embedded Config supplies the per-machine hardware, the scheduler, and
// the workload; ArrivalRate is the fleet-wide request rate that the
// dispatcher splits across machines. Per-core fault fields (Faults,
// FaultMTBFSec/FaultMTTRSec) are not supported at fleet scale — machine
// faults are the unit of failure here; setting them is a configuration
// error.
type FleetConfig struct {
	Config

	// Machines is the fleet size N.
	Machines int
	// Dispatch selects the routing policy: "rr" (round-robin),
	// "least-loaded", "p2c" (power-of-k-choices over an idle-machine
	// heap), or "ideal" (an omniscient baseline that sees true degraded
	// capacity — the routing regret yardstick).
	Dispatch string
	// ChoicesK is the sample size for "p2c" (values < 2 default to 2).
	ChoicesK int
	// MachineFaults lists deterministic machine fault windows. Windows on
	// the same machine must not overlap and onsets must fall inside
	// [0, DurationSec).
	MachineFaults []MachineFaultSpec
	// MachineMTBFSec and MachineMTTRSec, when both positive, generate a
	// reproducible random crash/recover schedule instead: each machine
	// fails and recovers as an independent renewal process seeded from
	// Seed. Ignored when MachineFaults is set.
	MachineMTBFSec float64
	MachineMTTRSec float64
	// RedispatchLimit caps how many times one job is re-routed after
	// machine faults before it is dropped (0 means the default, 3).
	RedispatchLimit int
	// Shards is the worker-shard count K: machines are partitioned into K
	// contiguous shards, each advancing on a private event heap between
	// global dispatcher barriers. 0 auto-sizes to min(GOMAXPROCS,
	// Machines/8), raised to ⌈Machines/128⌉, with a floor of one; 1 is the
	// sequential path. Results and event streams are byte-identical for
	// every K.
	Shards int
}

// MachineFaultSpec describes one machine fault window (FleetConfig.
// MachineFaults). The JSON tags are the chaos-file format of gefleet -chaos
// (testdata/fleet_chaos.json).
type MachineFaultSpec struct {
	// AtSec is the onset time in seconds.
	AtSec float64 `json:"at"`
	// Kind selects the fault: "crash" (all cores halt, in-flight progress
	// is wiped, queued jobs are re-dispatched), "partition" (the machine
	// keeps serving but receives no new work), or "slow" (the machine
	// degrades to Factor of its power budget).
	Kind string `json:"kind"`
	// Machine is the target machine index.
	Machine int `json:"machine"`
	// DurationSec, when positive, recovers the fault at AtSec+DurationSec;
	// zero makes it permanent.
	DurationSec float64 `json:"duration"`
	// Factor is the budget multiplier in (0,1) for "slow".
	Factor float64 `json:"factor"`
}

// DefaultFleetConfig returns a 4-machine fleet of the paper's §IV-B machines
// under power-of-2-choices dispatch, with the fleet-wide arrival rate scaled
// to keep each machine near the single-machine critical load.
func DefaultFleetConfig() FleetConfig {
	fc := FleetConfig{
		Config:   DefaultConfig(),
		Machines: 4,
		Dispatch: "p2c",
		ChoicesK: 2,
	}
	fc.ArrivalRate = 154 * float64(fc.Machines)
	return fc
}

// FleetResult reports what one fleet simulation achieved, in total and per
// machine. It is the fleet simulator's own result type.
type FleetResult = cluster.Result

// DispatchPolicies lists the accepted FleetConfig.Dispatch names.
func DispatchPolicies() []string { return cluster.Policies() }

// RunFleet executes one fleet simulation described by fc.
func RunFleet(fc FleetConfig) (FleetResult, error) {
	return RunFleetWithOptions(fc, RunOptions{})
}

// RunFleetWithOptions is RunFleet with observability sinks attached. Events,
// Trace, Report, and Observer apply as in RunWithOptions, with per-core
// events remapped to globally unique core IDs (machine*cores + core) and
// fleet-level events (dispatch, re-dispatch, machine health) carrying the
// machine index in the core field. Timeline recording is a single-machine
// facility and is not supported here.
func RunFleetWithOptions(fc FleetConfig, opts RunOptions) (FleetResult, error) {
	if opts.Timeline != nil {
		return FleetResult{}, fmt.Errorf("goodenough: fleet runs do not support timeline recording")
	}
	ccfg, err := fc.lower()
	if err != nil {
		return FleetResult{}, err
	}
	ex, o, ds := newExporters(opts, ccfg.Machines*ccfg.Node.Cores)
	ccfg.Observer, ccfg.Decisions = o, ds

	fleet, err := cluster.New(ccfg)
	if err != nil {
		return FleetResult{}, err
	}
	res, err := fleet.Run()
	if err != nil {
		return FleetResult{}, err
	}
	if err := ex.flush(); err != nil {
		return FleetResult{}, err
	}
	return res, nil
}

// lower converts the public FleetConfig into the internal cluster.Config.
func (fc FleetConfig) lower() (cluster.Config, error) {
	if fc.Machines <= 0 {
		return cluster.Config{}, fmt.Errorf("goodenough: fleet needs a positive machine count, got %d", fc.Machines)
	}
	if len(fc.Faults) > 0 || fc.FaultMTBFSec > 0 || fc.FaultMTTRSec > 0 {
		return cluster.Config{}, fmt.Errorf(
			"goodenough: per-core fault injection is not supported at fleet scale; use MachineFaults or MachineMTBFSec/MachineMTTRSec")
	}
	scfg, _, err := fc.Config.compile()
	if err != nil {
		return cluster.Config{}, err
	}
	spec := fc.workloadSpec()
	if err := spec.Validate(); err != nil {
		return cluster.Config{}, err
	}
	disp, err := cluster.NewDispatcher(fc.Dispatch, fc.ChoicesK, fc.Seed)
	if err != nil {
		return cluster.Config{}, fmt.Errorf("goodenough: %w", err)
	}
	var cs *faults.Schedule
	switch {
	case len(fc.MachineFaults) > 0:
		specs := make([]faults.Spec, len(fc.MachineFaults))
		for i, mf := range fc.MachineFaults {
			kind, err := faults.ParseKind(faults.Machines, mf.Kind)
			if err != nil {
				return cluster.Config{}, fmt.Errorf("goodenough: machine fault %d: %w", i, err)
			}
			specs[i] = faults.Spec{
				At: mf.AtSec, Kind: kind, Target: mf.Machine,
				Duration: mf.DurationSec, Value: mf.Factor,
			}
		}
		cs, err = faults.New(faults.Machines, specs, fc.Machines, fc.DurationSec)
		if err != nil {
			return cluster.Config{}, fmt.Errorf("goodenough: %w", err)
		}
	case fc.MachineMTBFSec > 0 || fc.MachineMTTRSec > 0:
		if fc.DurationSec <= 0 {
			return cluster.Config{}, fmt.Errorf("goodenough: the machine MTBF/MTTR generator needs DurationSec > 0")
		}
		cs, err = faults.GenerateCluster(fc.Seed, fc.Machines, fc.DurationSec,
			fc.MachineMTBFSec, fc.MachineMTTRSec)
		if err != nil {
			return cluster.Config{}, fmt.Errorf("goodenough: %w", err)
		}
	}
	// Each machine gets its own policy instance (policies carry state);
	// compile already validated the config, so re-instantiation cannot fail.
	mk := schedulerMakers[fc.Scheduler]
	args := makerArgs{qge: fc.QGE, bepBudget: fc.BEPBudget, besCap: fc.BESCap}
	return cluster.Config{
		Machines:        fc.Machines,
		Node:            scfg,
		NewPolicy:       func() sched.Policy { return mk(args) },
		Dispatch:        disp,
		Workload:        spec,
		Faults:          cs,
		RedispatchLimit: fc.RedispatchLimit,
		Shards:          fc.Shards,
	}, nil
}

// Validate checks every FleetConfig field without running the
// simulation, mirroring Config.Validate for fleet runs.
func (fc FleetConfig) Validate() error {
	ccfg, err := fc.lower()
	if err != nil {
		return err
	}
	return ccfg.Validate()
}
