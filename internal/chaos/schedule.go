// Package chaos is the network-level sibling of internal/faults: a
// deterministic, schedule-driven chaos proxy that sits between the gateway
// and a geserve replica and injects the failure modes distributed serving
// actually meets — added latency with jitter, connection resets,
// black-holes (accepted but never answered), and 5xx bursts.
//
// The schedule format mirrors internal/faults: a Spec names an onset time,
// a Kind, and a Duration (0 = permanent); New expands and validates a Spec
// list, and Generate draws its windows from the fault model's MTBF/MTTR
// renewal loop (faults.Renewal) on the repo's stable rng, so the same
// (seed, horizon, mtbf, mttr, kind) tuple yields the same outage windows on
// every run and platform. That determinism is
// what lets integration tests and CI assert exact failover behavior
// instead of hoping the network misbehaves on cue.
package chaos

import (
	"fmt"
	"math"
	"sort"

	"goodenough/internal/faults"
	"goodenough/internal/rng"
)

// Kind labels one injected failure mode.
type Kind int

const (
	// Latency delays each forwarded chunk by Delay ± Jitter seconds.
	Latency Kind = iota
	// Blackhole accepts traffic but forwards nothing: bytes park until the
	// window ends or the peer gives up — the classic stalled replica.
	Blackhole
	// Reset closes connections immediately (RST where the OS allows).
	Reset
	// HTTPError answers new connections with a canned 5xx burst instead of
	// forwarding.
	HTTPError
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case Blackhole:
		return "blackhole"
	case Reset:
		return "reset"
	case HTTPError:
		return "http-error"
	default:
		return fmt.Sprintf("chaos(%d)", int(k))
	}
}

// ParseKind maps config names to Kinds.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "latency", "slow":
		return Latency, nil
	case "blackhole", "stall":
		return Blackhole, nil
	case "reset", "rst":
		return Reset, nil
	case "http-error", "5xx":
		return HTTPError, nil
	default:
		return 0, fmt.Errorf("chaos: unknown kind %q (latency|blackhole|reset|http-error)", s)
	}
}

// UnmarshalText decodes a kind by its ParseKind name, so a JSON schedule
// names kinds as strings.
func (k *Kind) UnmarshalText(text []byte) (err error) {
	*k, err = ParseKind(string(text))
	return err
}

// Spec describes one chaos window, mirroring faults.Spec: an onset, a kind,
// and an optional duration after which the fault lifts. Duration 0 makes it
// permanent.
type Spec struct {
	// At is the onset in seconds since the proxy started.
	At float64 `json:"at"`
	// Kind is the failure mode; in JSON use the ParseKind names.
	Kind Kind `json:"kind"`
	// Duration, when positive, ends the window at At+Duration; zero is
	// permanent.
	Duration float64 `json:"duration"`
	// Delay is the added latency in seconds (Latency only).
	Delay float64 `json:"delay,omitempty"`
	// Jitter is the uniform ± latency spread in seconds (Latency only).
	Jitter float64 `json:"jitter,omitempty"`
	// Code is the status for HTTPError (default 503).
	Code int `json:"code,omitempty"`
}

// check reports whether the spec is well-formed. Its error leaves the
// "chaos:" prefix to New, which words it with the spec's index.
func (s Spec) check() error {
	if math.IsNaN(s.At) || math.IsInf(s.At, 0) || s.At < 0 {
		return fmt.Errorf("onset time %v must be finite and non-negative", s.At)
	}
	if math.IsNaN(s.Duration) || math.IsInf(s.Duration, 0) || s.Duration < 0 {
		return fmt.Errorf("duration %v must be finite and non-negative", s.Duration)
	}
	switch s.Kind {
	case Latency:
		if math.IsNaN(s.Delay) || math.IsInf(s.Delay, 0) || s.Delay <= 0 {
			return fmt.Errorf("latency delay %v must be finite and positive", s.Delay)
		}
		if math.IsNaN(s.Jitter) || math.IsInf(s.Jitter, 0) || s.Jitter < 0 || s.Jitter > s.Delay {
			return fmt.Errorf("jitter %v must be in [0, delay]", s.Jitter)
		}
	case Blackhole, Reset:
		// No payload.
	case HTTPError:
		if s.Code != 0 && (s.Code < 500 || s.Code > 599) {
			return fmt.Errorf("http-error code %d must be a 5xx", s.Code)
		}
	default:
		return fmt.Errorf("unknown kind %d", int(s.Kind))
	}
	return nil
}

// end returns the window's end time, +Inf when permanent.
func (s Spec) end() float64 {
	if s.Duration <= 0 {
		return math.Inf(1)
	}
	return s.At + s.Duration
}

// Schedule is a validated set of chaos windows, queried by elapsed time.
type Schedule struct {
	specs []Spec
}

// New validates specs into a Schedule, ordered by onset.
func New(specs []Spec) (*Schedule, error) {
	out := make([]Spec, 0, len(specs))
	for i, s := range specs {
		if err := s.check(); err != nil {
			return nil, fmt.Errorf("chaos: spec %d: %w", i, err)
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return out[a].Kind < out[b].Kind
	})
	return &Schedule{specs: out}, nil
}

// Generate draws outage windows from the fault model's up/down renewal
// process (faults.Renewal) — up for Exp(1/mtbf), down (injecting kind) for
// Exp(1/mttr) — until the horizon, deterministically for a fixed seed.
// Latency windows get the supplied delay/jitter; HTTPError windows get code
// 503.
func Generate(seed uint64, horizon, mtbf, mttr float64, kind Kind, delay, jitter float64) (*Schedule, error) {
	var specs []Spec
	err := faults.Renewal(rng.New(seed^0xc4a05bad5eed), horizon, mtbf, mttr, func(at, down float64) {
		spec := Spec{At: at, Kind: kind, Duration: down}
		switch kind {
		case Latency:
			spec.Delay, spec.Jitter = delay, jitter
		case HTTPError:
			spec.Code = 503
		}
		specs = append(specs, spec)
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return New(specs)
}

// ActiveAt returns the windows covering elapsed time t, in onset order. A
// nil schedule is always quiet.
func (s *Schedule) ActiveAt(t float64) []Spec {
	if s == nil {
		return nil
	}
	var active []Spec
	for _, sp := range s.specs {
		if sp.At <= t && t < sp.end() {
			active = append(active, sp)
		}
	}
	return active
}
