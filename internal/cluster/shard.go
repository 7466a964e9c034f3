// Shard execution: the fleet's machines are partitioned into K contiguous
// shards, each owning a private sim.Engine that advances its machines
// independently between global barriers.
//
// The run alternates two phases. In the *global phase* (main goroutine) the
// dispatcher processes arrivals, routing decisions, parked-job deadlines,
// quantum ticks, and machine faults in one globally ordered stream; a
// producer goroutine draws the arrivals ahead of it (arrivals.go), so on the
// arrival path the global phase only routes. Routing a job stages it on the
// target machine's shard. In the *shard phase*, every shard posts the routes
// staged for it on its engine's ordered lane, in routing order, and drains
// its engine up to the next barrier instant — workers in parallel when
// K > 1, inline when K == 1 — delivering routed jobs, per-core idle
// wakeups, and one expiry wakeup per machine to its own machines only, then
// settles each of its machines to the barrier instant and samples the view
// signals of every machine it touched. Machines in different shards never
// share mutable state. Between barriers only machines with due events are
// touched, and only an idle wakeup or an arrival that may fire a trigger
// advances a machine's cores.
//
// Determinism for every K rests on three invariants. (1) The barrier
// instants — quantum ticks, machine faults, end of run — come from the
// global stream alone, so every K settles every machine at the same
// sequence of barrier instants. (2) A machine's progression depends only on
// events addressed to it, which are identical for every K; within one shard
// engine, (time, kind-priority, seq) ordering reduces to per-machine
// delivery order because same-instant cross-machine events are independent;
// and posting routes in the shard phase, not as they are routed, changes
// only how sequence numbers interleave across kinds: routes reach the lane
// in routing order, the shard's only other events are idle and expiry
// wakeups, and at equal times those sort after arrivals by kind, so no
// delivery moves.
// (3) All cross-machine effects — observer events, decision records,
// response-time samples, quality terms, job recycling, view signals — are
// buffered per machine and replayed at the barrier flush in machine-index
// order, so merged streams and float accumulation order never depend on the
// shard layout.
package cluster

import (
	"sync"

	"goodenough/internal/job"
	"goodenough/internal/sched"
	"goodenough/internal/sim"
)

// shard owns a contiguous slice of the fleet's machines and a private event
// heap. During a shard phase exactly one goroutine runs the shard; between
// phases the main goroutine owns everything (the sync.WaitGroup in
// runShards orders the hand-offs).
type shard struct {
	idx    int
	fleet  *Fleet
	engine *sim.Engine
	nodes  []*node
	err    error

	// routes holds the jobs the global phase routed to this shard's
	// machines, in routing order. The global phase appends; the shard's
	// phases post routes[:posted] on its engine's ordered lane and deliver
	// routes[:delivered]. The slice resets once every route is delivered,
	// so steady state reuses one backing array.
	routes    []route
	posted    int
	delivered int
}

// route is one job routed to a machine: the routing instant, and the
// remaining work the routing counted in flight on the machine, which
// delivery takes back without reading the job.
type route struct {
	at        float64
	job       *job.Job
	remaining float64
	machine   int
}

// postBatch is how many routes a shard posts on its lane before it delivers
// them: a batch, not an epoch of routes, is what the lane ring holds.
const postBatch = 256

// drain posts the routes staged since the shard's last phase on its
// engine's ordered lane and delivers its events before until. The global
// phase routes at non-decreasing instants, no earlier than the instant the
// shard last drained to, so the lane takes the routes in delivery order.
// Each batch is delivered up to the first route not yet posted before the
// next batch is posted, which delivers every event where posting them all
// at once would: nothing delivered so far is due at or after that route.
// The machine's driver arms its own expiry wakeup when a job lands, so a
// job re-routed across shards expires on the machine that holds it.
func (s *shard) drain(until float64) error {
	for s.posted < len(s.routes) {
		end := min(s.posted+postBatch, len(s.routes))
		for i := s.posted; i < end; i++ {
			r := &s.routes[i]
			if err := s.engine.Post(r.at, sim.KindArrival, r.machine, i); err != nil {
				return err
			}
		}
		s.posted = end
		if end < len(s.routes) {
			if err := s.engine.RunUntil(s.routes[end].at); err != nil {
				return err
			}
		}
	}
	if err := s.engine.RunUntil(until); err != nil {
		return err
	}
	if s.delivered == len(s.routes) {
		s.routes, s.posted, s.delivered = s.routes[:0], 0, 0
	}
	return nil
}

// handle is the shard-phase event dispatcher. Everything it touches is
// owned by this shard's machines (or buffered per node for the barrier
// flush), so shards never contend. Only an idle wakeup, or an arrival that
// may fire a trigger, advances a machine's cores here; the barrier settles
// the rest.
func (s *shard) handle(e *sim.Event) error {
	f := s.fleet
	now := e.Time
	switch e.Kind {
	case sim.KindArrival: // routed job delivery; Core = machine, Ref = route slot
		r := &s.routes[e.Ref]
		j := r.job
		r.job = nil
		s.delivered++
		n := f.nodes[e.Core]
		n.inflightQW -= r.remaining
		if n.inflightJobs--; n.inflightJobs <= 0 {
			n.inflightJobs = 0
			n.inflightQW = 0 // clamp accumulated float error at quiescence
		}
		n.dirty = true
		if err := n.d.Enqueue(now, j); err != nil {
			return n.fail(err)
		}
		if !n.up {
			// Routed at the same instant the machine crashed; it waits in
			// queue (expiring on the machine's expiry wakeup) until recovery.
			return nil
		}
		return n.fail(n.d.OnArrival(now))

	case sim.KindCoreIdle: // projected core drain; Core = core, Ref = machine
		n := f.nodes[e.Ref]
		n.dirty = true
		woke, err := n.d.Wake(now, e.Core)
		if woke {
			n.idleNote = true
		}
		return n.fail(err)

	case sim.KindDeadline: // expiry wakeup; Ref = machine
		n := f.nodes[e.Ref]
		n.dirty = true
		return n.fail(n.d.OnDeadline(now))
	}
	return nil
}

// runShards runs fn over every shard — one goroutine per shard when K > 1,
// inline when K == 1 — and returns the first error by shard index.
func (f *Fleet) runShards(fn func(*shard) error) error {
	if len(f.shards) == 1 {
		return fn(f.shards[0])
	}
	var wg sync.WaitGroup
	for _, s := range f.shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			s.err = fn(s)
		}(s)
	}
	wg.Wait()
	for _, s := range f.shards {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// shardPhase posts every shard's staged routes and drains its engine up to
// (strictly before) the instant until.
func (f *Fleet) shardPhase(until float64) error {
	return f.runShards(func(s *shard) error { return s.drain(until) })
}

// barrier synchronizes the fleet at a global instant: every shard drains its
// heap up to it and settles each of its machines to it, then buffered
// cross-machine effects are applied in machine-index order. The caller
// (quantum tick, machine fault) and the dispatcher's view then read every
// machine as of the barrier instant.
func (f *Fleet) barrier(now float64) error {
	err := f.runShards(func(s *shard) error {
		if err := s.drain(now); err != nil {
			return err
		}
		for _, n := range s.nodes {
			if err := n.settle(now); err != nil {
				return err
			}
			if n.dirty {
				n.sample()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.flush()
	return nil
}

// quantumFanout invokes every up machine's policy at a quantum tick —
// shard-parallel, since invocations only touch node-local state — and
// samples the view signals of every machine touched since the last flush.
func (f *Fleet) quantumFanout(now float64) error {
	return f.runShards(func(s *shard) error {
		for _, n := range s.nodes {
			if n.up {
				if err := n.invoke(now, sched.TriggerQuantum); err != nil {
					return err
				}
			}
			if n.dirty {
				n.sample()
			}
		}
		return nil
	})
}

// flush drains every machine's epoch buffers in machine-index order:
// observer events, decision records, finalization accounting (responses,
// fleet quality, job recycling), idle notes, and cached-view refreshes.
// This is the deterministic merge — the only place shard-phase effects
// become globally visible. The shards did the per-machine work: a
// finalization record carries its quality terms and response time, and a
// touched machine carries its sampled view signals, so the flush only adds
// them up in order and applies the in-flight adjustments.
func (f *Fleet) flush() {
	for _, n := range f.nodes {
		if len(n.evbuf) > 0 {
			for i := range n.evbuf {
				f.obs.Observe(n.evbuf[i])
			}
			n.evbuf = n.evbuf[:0]
		}
		if len(n.decbuf) > 0 {
			for i := range n.decbuf {
				f.decisions.ObserveDecision(n.decbuf[i])
			}
			n.decbuf = n.decbuf[:0]
		}
		if recs := n.d.Finals(); len(recs) > 0 {
			for _, r := range recs {
				// Fleet jobs always have demand, so every record counts.
				f.acc.AddTerms(r.Achieved, r.Possible)
				f.finalized++
				if r.Completed() {
					f.responses = append(f.responses, r.Response)
				}
				f.recycle(r.Job)
			}
			n.d.ClearFinals()
		}
		if n.idleNote {
			n.idleNote = false
			f.noteIdleNow(n)
		}
		if n.dirty {
			n.dirty = false
			f.applyView(n)
		}
	}
}
