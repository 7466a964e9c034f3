// Package drill is the process-level crash-recovery harness: it boots a
// real gegate + geserve fleet as child processes, drives seeded traffic
// through the front door, executes a deterministic fault schedule against
// the replica processes — SIGKILL with delayed restart, SIGSTOP/SIGCONT
// pauses, rolling graceful restarts — and then audits the wreckage against
// the invariants a resilient serving tier must hold:
//
//   - No acknowledged-then-lost work: every request the client saw a 200
//     for has a matching "done" record in some replica's crash journal.
//   - Bounded rejoin: every killed replica is back in rotation (gateway
//     probe verdict up) within the configured bound.
//   - Goodput recovery: the post-fault window's goodput reaches the
//     configured fraction of the pre-fault baseline.
//   - Degradation, not collapse: achieved batch quality of acknowledged
//     requests stays at or above the Q_GE floor minus epsilon.
//
// Where internal/faults and internal/chaos inject failures into the
// simulated cluster and the network layer respectively, this package
// injects them into the actual operating-system processes — the layer
// where restarts lose memory, journals tear mid-line, and slow-start
// actually matters.
package drill

import (
	"fmt"
	"sort"
	"time"

	"goodenough/internal/rng"
)

// Kind labels one fault event against the fleet.
type Kind int

const (
	// Kill SIGKILLs the target replica — no drain, no flush — and restarts
	// it with the same arguments after the event's Dur.
	Kill Kind = iota
	// Pause SIGSTOPs the target replica for Dur, then SIGCONTs it: the
	// stalled-but-alive failure mode (GC pause, VM migration, noisy
	// neighbor) that probes see as timeouts rather than refusals.
	Pause
	// Rolling gracefully restarts every replica in index order: SIGTERM,
	// wait for exit, relaunch, wait ready, then the next — the planned
	// maintenance the fleet must absorb without client-visible damage.
	Rolling
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Pause:
		return "pause"
	case Rolling:
		return "rolling"
	default:
		return fmt.Sprintf("drill(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the onset, measured from the moment traffic starts.
	At time.Duration `json:"at"`
	// Kind is the fault mode.
	Kind Kind `json:"kind"`
	// Target is the replica index (ignored by Rolling).
	Target int `json:"target"`
	// Dur is the outage length: the down time before restart (Kill), the
	// stop time before SIGCONT (Pause). Rolling ignores it.
	Dur time.Duration `json:"dur"`
}

// Validate checks one event against the fleet size.
func (e Event) Validate(replicas int) error {
	if e.At < 0 {
		return fmt.Errorf("drill: event onset %v is negative", e.At)
	}
	switch e.Kind {
	case Kill, Pause:
		if e.Target < 0 || e.Target >= replicas {
			return fmt.Errorf("drill: %s target %d out of range [0, %d)", e.Kind, e.Target, replicas)
		}
		if e.Dur <= 0 {
			return fmt.Errorf("drill: %s needs a positive duration, got %v", e.Kind, e.Dur)
		}
	case Rolling:
		// Fleet-wide; no payload to validate.
	default:
		return fmt.Errorf("drill: unknown kind %d", int(e.Kind))
	}
	return nil
}

// Validate orders and checks a whole schedule.
func Validate(events []Event, replicas int) ([]Event, error) {
	out := append([]Event(nil), events...)
	for i, e := range out {
		if err := e.Validate(replicas); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out, nil
}

// Generate draws a deterministic fault schedule for the given seed: one
// kill of a random replica early in the horizon, a pause of a different
// replica mid-horizon, and — when the horizon leaves room to recover — a
// rolling restart in the final third. Onsets and durations jitter with the
// seed, but the same (seed, replicas, horizon) tuple yields the same
// schedule on every run and platform; the fleet rng stream is the same
// xoshiro construction the simulator's workloads use.
//
// The shape guarantees every generated drill exercises all three fault
// modes while always leaving a quiet tail of at least a third of the
// horizon, so the goodput-recovery invariant has a window to measure.
func Generate(seed uint64, replicas int, horizon time.Duration) ([]Event, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("drill: need at least one replica")
	}
	if horizon < 4*time.Second {
		return nil, fmt.Errorf("drill: horizon %v too short to fault and recover (need >= 4s)", horizon)
	}
	src := rng.New(seed ^ 0xd811de5eed)
	h := horizon.Seconds()

	jitter := func(lo, hi float64) time.Duration {
		return time.Duration(src.Uniform(lo, hi) * float64(time.Second))
	}
	killTarget := src.Intn(replicas)
	pauseTarget := killTarget
	if replicas > 1 {
		pauseTarget = (killTarget + 1 + src.Intn(replicas-1)) % replicas
	}

	events := []Event{
		{At: jitter(0.10*h, 0.18*h), Kind: Kill, Target: killTarget, Dur: jitter(0.5, 1.5)},
		{At: jitter(0.30*h, 0.40*h), Kind: Pause, Target: pauseTarget, Dur: jitter(0.4, 1.0)},
	}
	if horizon >= 12*time.Second {
		events = append(events, Event{At: jitter(0.50*h, 0.60*h), Kind: Rolling})
	}
	return Validate(events, replicas)
}
