// Shard execution: the fleet's machines are partitioned into K contiguous
// shards, each owning a private sim.Engine that advances its machines
// independently between global barriers.
//
// The run alternates two phases. In the *global phase* (main goroutine) the
// dispatcher processes arrivals, routing decisions, parked-job deadlines,
// quantum ticks, and machine faults in one globally ordered stream. Routing
// a job schedules a push event on the target machine's shard heap. In the
// *shard phase*, every shard drains its heap up to the next barrier instant
// — workers in parallel when K > 1, inline when K == 1 — delivering pushes,
// per-core idle wakeups, and per-job deadline watches to its own machines
// only. Machines in different shards never share mutable state, and only
// machines with due events are touched: a quiescent node costs zero.
//
// Determinism for every K rests on three invariants. (1) The barrier
// instants — quantum ticks, machine faults, end of run — come from the
// global stream alone, so every K advances every machine through the same
// sequence of clock stops. (2) A machine's progression depends only on
// events addressed to it, which are identical for every K; within one shard
// heap, (time, kind-priority, seq) ordering reduces to per-machine delivery
// order because same-instant cross-machine events are independent. (3) All
// cross-machine effects — observer events, decision records, response-time
// samples, quality accumulation, job recycling — are buffered per machine
// and replayed at the barrier flush in machine-index order, so merged
// streams and float accumulation order never depend on the shard layout.
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

	// inbox carries routed jobs from the global phase to this shard's
	// machines. Push events index into it via Ref; head marks the next
	// undelivered slot, and the ring resets whenever it fully drains, so
	// steady state reuses one backing array.
	inbox     []*job.Job
	inboxHead int
}

// push schedules delivery of a routed job to machine n at time now, plus a
// deadline watch at the job's deadline. The watch is scheduled here — not
// only at first dispatch — so a job re-routed across shards still expires
// on time; a stale watch on a machine the job has left is a no-op.
func (s *shard) push(now float64, n *node, j *job.Job) error {
	if s.inboxHead == len(s.inbox) {
		s.inbox = s.inbox[:0]
		s.inboxHead = 0
	}
	s.inbox = append(s.inbox, j)
	if _, err := s.engine.ScheduleCoreRef(now, sim.KindArrival, n.idx, len(s.inbox)-1); err != nil {
		return err
	}
	_, err := s.engine.ScheduleCoreRef(j.Deadline, sim.KindDeadline, -1, n.idx)
	return err
}

// handle is the shard-phase event dispatcher. Everything it touches is
// owned by this shard's machines (or buffered per node for the barrier
// flush), so shards never contend.
func (s *shard) handle(e *sim.Event) error {
	f := s.fleet
	now := e.Time
	switch e.Kind {
	case sim.KindArrival: // routed job delivery; Core = machine, Ref = inbox slot
		j := s.inbox[s.inboxHead]
		s.inbox[s.inboxHead] = nil
		s.inboxHead++
		n := f.nodes[e.Core]
		if err := n.catchUp(now); err != nil {
			return err
		}
		n.d.Enqueue(now, j)
		n.inflightQW -= j.Remaining()
		if n.inflightJobs--; n.inflightJobs <= 0 {
			n.inflightJobs = 0
			n.inflightQW = 0 // clamp accumulated float error at quiescence
		}
		n.dirty = true
		if !n.up {
			// Routed at the same instant the machine crashed; it waits in
			// queue (expiring on its deadline watch) until recovery.
			return nil
		}
		return n.d.OnArrival(now)

	case sim.KindCoreIdle: // projected core drain; Core = core, Ref = machine
		n := f.nodes[e.Ref]
		if err := n.catchUp(now); err != nil {
			return err
		}
		woke, err := n.d.Wake(now, e.Core)
		if woke {
			n.dirty = true
			n.idleNote = true
		}
		return err

	case sim.KindDeadline: // deadline watch; Ref = machine
		// Catching up runs queue expiry; a watch for a job that already
		// completed or moved elsewhere finds nothing expired.
		return f.nodes[e.Ref].catchUp(now)
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

// shardPhase drains every shard heap up to (strictly before) the barrier
// instant.
func (f *Fleet) shardPhase(until float64) error {
	return f.runShards(func(s *shard) error { return s.engine.RunUntil(until) })
}

// barrier synchronizes the fleet at a global instant: every shard drains to
// it, then buffered cross-machine effects are applied in machine-index
// order, so the caller (quantum tick, machine fault) sees exact,
// merge-ordered state.
func (f *Fleet) barrier(now float64) error {
	if err := f.shardPhase(now); err != nil {
		return err
	}
	f.flush()
	return nil
}

// quantumFanout invokes every up machine's policy at a quantum tick —
// shard-parallel, since invocations only touch node-local state.
func (f *Fleet) quantumFanout(now float64) error {
	return f.runShards(func(s *shard) error {
		for _, n := range s.nodes {
			if n.up {
				if err := n.invoke(now, sched.TriggerQuantum); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// flush drains every machine's epoch buffers in machine-index order:
// observer events, decision records, finalization accounting (responses,
// fleet quality, job recycling), idle notes, and cached-view refreshes.
// This is the deterministic merge — the only place shard-phase effects
// become globally visible.
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
				j := r.Job
				f.acc.Add(j.Processed, j.Demand)
				f.finalized++
				if r.Completed {
					f.responses = append(f.responses, j.Finish-j.Release)
				}
				f.recycle(j)
			}
			n.d.ClearFinals()
		}
		if n.idleNote {
			n.idleNote = false
			f.noteIdleNow(n)
		}
		if n.dirty {
			n.dirty = false
			f.refreshView(n)
		}
	}
}
