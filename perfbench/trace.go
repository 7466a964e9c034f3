package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"goodenough/internal/obs"
	"goodenough/internal/sched"
)

// traceSink counts a simulation's events and decisions by kind. It is safe
// for the fleet's shard goroutines.
type traceSink struct {
	events    [256]atomic.Int64
	decisions [256]atomic.Int64
}

func (s *traceSink) Observe(e obs.Event)                    { s.events[e.Type].Add(1) }
func (s *traceSink) ObserveDecision(d obs.Decision)         { s.decisions[d.Kind].Add(1) }
func (s *traceSink) count(t obs.EventType) int64            { return s.events[t].Load() }
func (s *traceSink) decisionCount(k obs.DecisionKind) int64 { return s.decisions[k].Load() }

// callTimes times every Schedule call of the policies it wraps. The runner
// and the fleet never type-assert a policy, so the wrapper is transparent.
type callTimes struct {
	mu       sync.Mutex
	policies []*timedPolicy
}

type timedPolicy struct {
	sched.Policy
	calls []time.Duration
}

func (p *timedPolicy) Schedule(ctx *sched.Context) {
	start := time.Now()
	p.Policy.Schedule(ctx)
	p.calls = append(p.calls, time.Since(start))
}

// wrap is a policy wrapper for simCase.build. Each policy keeps its own
// slice, so the fleet's shards never contend on it.
func (c *callTimes) wrap(p sched.Policy) sched.Policy {
	tp := &timedPolicy{Policy: p}
	c.mu.Lock()
	c.policies = append(c.policies, tp)
	c.mu.Unlock()
	return tp
}

func (c *callTimes) all() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []time.Duration
	for _, p := range c.policies {
		out = append(out, p.calls...)
	}
	return out
}

// profile is a running CPU profile.
type profile struct{ buf bytes.Buffer }

// profileHz is the CPU profile's sampling rate, above the default 100 Hz so
// that short runs still resolve small layers. Setting it before
// StartCPUProfile makes the runtime print a harmless warning to stderr.
const profileHz = 500

func startProfile() (*profile, error) {
	p := &profile{}
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns its samples.
func (p *profile) stop() ([]stackSample, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}
