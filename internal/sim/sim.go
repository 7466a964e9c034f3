// Package sim provides the discrete-event simulation kernel: a time-ordered
// event queue, a monotonic clock, and a run loop.
//
// The kernel is deliberately minimal — events carry a kind, a timestamp, and
// two small typed payload fields (a core index and an opaque reference); the
// scheduler under test registers a handler and drives the machine model from
// it. Determinism is guaranteed by a total order on events: (time, priority,
// sequence).
//
// The queue is engineered for zero steady-state allocations: events live in
// a value-typed slab indexed by a 4-ary min-heap of slot numbers, and a
// free-list recycles slots so Schedule/Cancel never touch the garbage
// collector once the slab has grown to the run's high-water mark. Handles
// (EventID) carry a generation counter so a stale Cancel of an already
// delivered — and possibly reused — slot is a harmless no-op.
package sim

import (
	"context"
	"fmt"
	"math"

	"goodenough/internal/obs"
)

// Kind labels an event for dispatch.
type Kind int

const (
	// KindArrival fires when a new job arrives.
	KindArrival Kind = iota
	// KindQuantum fires on the periodic scheduling quantum.
	KindQuantum
	// KindCoreIdle fires when a core drains its local plan.
	KindCoreIdle
	// KindDeadline is an expiry wakeup. A machine's driver keeps one armed
	// at the earliest deadline in its waiting queue (Ref = machine index,
	// -1 for a single machine), so waiting jobs expire on time; a fleet
	// dispatcher arms one per job parked with no machine eligible.
	KindDeadline
	// KindEnd terminates the simulation.
	KindEnd
	// KindUser is available for scheduler-specific events.
	KindUser
	// KindFault fires on a scheduled fault transition (internal/faults):
	// core or machine scope, onset or recovery. Ref indexes the owner's
	// fault table.
	KindFault
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindArrival:
		return "arrival"
	case KindQuantum:
		return "quantum"
	case KindCoreIdle:
		return "core-idle"
	case KindDeadline:
		return "deadline"
	case KindEnd:
		return "end"
	case KindUser:
		return "user"
	case KindFault:
		return "fault"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is a delivered occurrence as seen by the handler. Core and Ref are
// the typed payload fields: Core is a core index (KindCoreIdle and the
// kernel tests), Ref an opaque reference the scheduler resolves against its
// own tables (fault-schedule indices). Both are -1 when unused. The pointer
// passed to the handler aliases engine-owned scratch — copy the value if it
// must outlive the handler call.
type Event struct {
	Time float64
	Kind Kind
	Core int
	Ref  int
}

// EventID is a cancellation handle: slot number in the low 32 bits, slot
// generation in the high 32. The zero value is never issued, so a zeroed
// field safely means "no pending event".
type EventID uint64

const noEvent = -1

// node is one slab entry. pos is the slot's position in the heap order, or
// -1 while the slot is free. gen increments every time the slot is released
// (delivered or cancelled), invalidating outstanding EventIDs; it starts at
// 1 so EventID 0 stays invalid forever.
type node struct {
	time     float64
	seq      uint64
	gen      uint32
	pos      int32
	priority int32
	kind     Kind
	core     int32
	ref      int32
}

// laneEntry is one posted event; its priority is its kind's ordinal. Posts
// arrive in delivery order, so the lane needs no heap: it is a ring of
// entries in arrival order.
type laneEntry struct {
	time float64
	seq  uint64
	kind int32
	core int32
	ref  int32
}

// Handler processes one event. It may schedule further events on the
// engine. Returning an error aborts the run.
type Handler func(e *Event) error

// Engine owns the clock and the pending-event queue.
type Engine struct {
	now float64

	// nodes is the event slab; heap holds slot numbers in 4-ary min-heap
	// order (children of i at 4i+1..4i+4); free lists recyclable slots.
	nodes []node
	heap  []int32
	free  []int32

	// lane is the ordered lane, a ring whose length is zero or a power of
	// two: laneLen entries starting at laneHead, in delivery order.
	lane     []laneEntry
	laneHead int
	laneLen  int

	seq     uint64
	handler Handler
	// cur is the handler's view of the event being delivered — engine-owned
	// scratch so delivery never allocates.
	cur Event

	// Processed counts delivered events (diagnostics).
	Processed int64
	// Horizon, when positive, hard-stops the run at that time even if
	// events remain (safety net against runaway schedules).
	Horizon float64

	// obs, when set, receives one EventKernel per delivered event —
	// the lowest layer of the observability bus. Nil costs one branch.
	obs obs.Observer

	// ctx, when set, lets the run be cancelled or deadline-bounded from
	// outside. The loop polls it every ctxStride deliveries (and once on
	// entry), so cancellation latency is bounded by the cost of ctxStride
	// handler invocations — microseconds, not simulated time.
	ctx context.Context
}

// ctxStride is how many deliveries pass between context polls. Polling is
// one non-blocking channel select; a small power of two keeps cancellation
// prompt while staying invisible in the hot loop.
const ctxStride = 64

// SetObserver attaches an observability sink to the kernel: every delivered
// event is mirrored as an obs.EventKernel carrying the sim Kind ordinal and
// the pending-queue depth. Pass nil to detach.
func (e *Engine) SetObserver(o obs.Observer) { e.obs = o }

// SetContext attaches a cancellation context to the run loop. When ctx is
// cancelled (or its deadline passes), Run and Step stop delivering events
// and return ctx.Err(); the clock stays at the last delivered event, so the
// caller can still read a consistent partial state. Pass nil to detach.
// Call before Run.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// interrupted polls the attached context; it reports a non-nil error when
// the run should stop.
func (e *Engine) interrupted() error {
	if e.ctx == nil {
		return nil
	}
	select {
	case <-e.ctx.Done():
		return e.ctx.Err()
	default:
		return nil
	}
}

// observe mirrors one delivery onto the bus.
func (e *Engine) observe(t float64, kind Kind) {
	if e.obs != nil {
		e.obs.Observe(obs.Event{
			Time: t, Type: obs.EventKernel, Core: -1, Job: -1,
			Value: float64(kind), Aux: float64(e.Pending()),
		})
	}
}

// NewEngine returns an engine at time zero with the given handler.
func NewEngine(handler Handler) *Engine {
	return &Engine{handler: handler}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of events not yet delivered, on the heap and
// on the lane.
func (e *Engine) Pending() int { return len(e.heap) + e.laneLen }

// less orders two slab slots by the kernel's total order.
func (e *Engine) less(a, b int32) bool {
	na, nb := &e.nodes[a], &e.nodes[b]
	if na.time != nb.time {
		return na.time < nb.time
	}
	if na.priority != nb.priority {
		return na.priority < nb.priority
	}
	return na.seq < nb.seq
}

// siftUp restores heap order after inserting at position i.
func (e *Engine) siftUp(i int32) {
	slot := e.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(slot, e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		e.nodes[e.heap[i]].pos = i
		i = parent
	}
	e.heap[i] = slot
	e.nodes[slot].pos = i
}

// siftDown restores heap order after replacing position i with a larger
// element.
func (e *Engine) siftDown(i int32) {
	n := int32(len(e.heap))
	slot := e.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(e.heap[c], e.heap[best]) {
				best = c
			}
		}
		if !e.less(e.heap[best], slot) {
			break
		}
		e.heap[i] = e.heap[best]
		e.nodes[e.heap[i]].pos = i
		i = best
	}
	e.heap[i] = slot
	e.nodes[slot].pos = i
}

// alloc takes a slot from the free-list (or grows the slab) and fills it.
func (e *Engine) alloc(t float64, kind Kind, core, ref, priority int) int32 {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.nodes = append(e.nodes, node{gen: 1})
		slot = int32(len(e.nodes) - 1)
	}
	nd := &e.nodes[slot]
	nd.time = t
	nd.seq = e.seq
	nd.priority = int32(priority)
	nd.kind = kind
	nd.core = int32(core)
	nd.ref = int32(ref)
	e.seq++
	return slot
}

// release invalidates a slot's outstanding handles and recycles it.
func (e *Engine) release(slot int32) {
	e.nodes[slot].pos = noEvent
	e.nodes[slot].gen++
	e.free = append(e.free, slot)
}

// push inserts a filled slot into the heap.
func (e *Engine) push(slot int32) {
	e.heap = append(e.heap, slot)
	e.siftUp(int32(len(e.heap) - 1))
}

// pop removes and returns the minimum slot. The caller must release it.
func (e *Engine) pop() int32 {
	slot := e.heap[0]
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.heap[0] = last
		e.nodes[last].pos = 0
		e.siftDown(0)
	}
	return slot
}

// Schedule enqueues a payload-free event at time t with the default
// priority (the Kind's ordinal). It panics on NaN times and rejects events
// scheduled in the past, which would silently corrupt causality.
func (e *Engine) Schedule(t float64, kind Kind) (EventID, error) {
	return e.schedule(t, kind, noEvent, noEvent, int(kind))
}

// ScheduleCore is Schedule carrying a core index payload (KindCoreIdle).
func (e *Engine) ScheduleCore(t float64, kind Kind, core int) (EventID, error) {
	return e.schedule(t, kind, core, noEvent, int(kind))
}

// ScheduleCoreRef is Schedule carrying both payload fields: a core index and
// an opaque reference. Fleet simulations use the reference for the machine
// index so one shared engine can drive N machines (KindCoreIdle on machine
// ref, core core).
func (e *Engine) ScheduleCoreRef(t float64, kind Kind, core, ref int) (EventID, error) {
	return e.schedule(t, kind, core, ref, int(kind))
}

// ScheduleWithPriority is Schedule with an explicit tie-break priority and
// an opaque reference payload the handler resolves against its own tables
// (pass -1 when unused).
func (e *Engine) ScheduleWithPriority(t float64, kind Kind, ref, priority int) (EventID, error) {
	return e.schedule(t, kind, noEvent, ref, priority)
}

func (e *Engine) schedule(t float64, kind Kind, core, ref, priority int) (EventID, error) {
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	if t < e.now {
		return 0, fmt.Errorf("sim: event %v scheduled at %v, before now %v", kind, t, e.now)
	}
	slot := e.alloc(t, kind, core, ref, priority)
	e.push(slot)
	return EventID(uint64(e.nodes[slot].gen)<<32 | uint64(uint32(slot))), nil
}

// Post appends an event to the ordered lane, with the default priority (the
// Kind's ordinal) and both payload fields. It is the cheap path for an owner
// whose events come in delivery order: a post must not order before now, nor
// before the lane's last pending post by (time, priority); either is an
// error. A posted event is delivered exactly where Schedule would have
// delivered it, but it cannot be cancelled.
func (e *Engine) Post(t float64, kind Kind, core, ref int) error {
	if math.IsNaN(t) {
		panic("sim: posting event at NaN time")
	}
	if t < e.now {
		return fmt.Errorf("sim: event %v posted at %v, before now %v", kind, t, e.now)
	}
	if e.laneLen > 0 {
		last := &e.lane[(e.laneHead+e.laneLen-1)&(len(e.lane)-1)]
		if t < last.time || t == last.time && int32(kind) < last.kind {
			return fmt.Errorf("sim: event %v posted at %v, before the last post (%v at %v)",
				kind, t, Kind(last.kind), last.time)
		}
	}
	if e.laneLen == len(e.lane) {
		e.growLane()
	}
	e.lane[(e.laneHead+e.laneLen)&(len(e.lane)-1)] = laneEntry{
		time: t, seq: e.seq, kind: int32(kind), core: int32(core), ref: int32(ref),
	}
	e.seq++
	e.laneLen++
	return nil
}

// growLane doubles the lane ring, unrolling it so the head sits at zero.
func (e *Engine) growLane() {
	grown := make([]laneEntry, max(64, 2*len(e.lane)))
	n := copy(grown, e.lane[e.laneHead:])
	copy(grown[n:], e.lane[:e.laneHead])
	e.lane, e.laneHead = grown, 0
}

// laneFirst reports whether the next event in delivery order is the lane's
// head rather than the heap's minimum. The queue must not be empty.
func (e *Engine) laneFirst() bool {
	if e.laneLen == 0 {
		return false
	}
	if len(e.heap) == 0 {
		return true
	}
	l, h := &e.lane[e.laneHead], &e.nodes[e.heap[0]]
	if l.time != h.time {
		return l.time < h.time
	}
	if l.kind != h.priority { // a lane entry's kind is its priority
		return l.kind < h.priority
	}
	return l.seq < h.seq
}

// take removes the next event in delivery order into e.cur. The queue must
// not be empty.
func (e *Engine) take() {
	if e.laneFirst() {
		l := &e.lane[e.laneHead]
		e.cur = Event{Time: l.time, Kind: Kind(l.kind), Core: int(l.core), Ref: int(l.ref)}
		e.laneHead = (e.laneHead + 1) & (len(e.lane) - 1)
		e.laneLen--
		return
	}
	slot := e.pop()
	nd := &e.nodes[slot]
	e.cur = Event{Time: nd.time, Kind: nd.kind, Core: int(nd.core), Ref: int(nd.ref)}
	e.release(slot)
}

// pendingSlot returns the slab slot of a pending scheduled event, or false
// for a handle that is not pending: delivered, cancelled, or zero.
func (e *Engine) pendingSlot(id EventID) (int32, bool) {
	slot := int32(uint32(id))
	gen := uint32(id >> 32)
	if gen == 0 || int(slot) >= len(e.nodes) {
		return 0, false
	}
	nd := &e.nodes[slot]
	return slot, nd.gen == gen && nd.pos >= 0
}

// Cancel removes a pending scheduled event. Cancelling an already-delivered,
// already-cancelled, or zero handle is a harmless no-op (returns false).
func (e *Engine) Cancel(id EventID) bool {
	slot, ok := e.pendingSlot(id)
	if !ok {
		return false
	}
	// Remove from the middle of the heap: swap the last element in, then
	// restore order in whichever direction it violates.
	i := e.nodes[slot].pos
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if int(i) < n {
		e.heap[i] = last
		e.nodes[last].pos = i
		e.siftDown(i)
		e.siftUp(e.nodes[last].pos)
	}
	e.release(slot)
	return true
}

// Reschedule moves a pending scheduled event to time t in place, keeping its
// kind, payload, priority and handle. The event takes the next sequence
// number, so it is delivered exactly where Cancel followed by a Schedule of
// the same event would deliver it, for the cost of one sift instead of a
// removal and an insertion. It returns false, changing nothing, for a handle
// that is not pending (delivered, cancelled, or zero). A t before now is an
// error that also changes nothing.
func (e *Engine) Reschedule(id EventID, t float64) (bool, error) {
	if math.IsNaN(t) {
		panic("sim: rescheduling event to NaN time")
	}
	if t < e.now {
		return false, fmt.Errorf("sim: event rescheduled to %v, before now %v", t, e.now)
	}
	slot, ok := e.pendingSlot(id)
	if !ok {
		return false, nil
	}
	nd := &e.nodes[slot]
	nd.time = t
	nd.seq = e.seq
	e.seq++
	// The new key may order before or after the old one.
	e.siftDown(nd.pos)
	e.siftUp(nd.pos)
	return true, nil
}

// deliver takes the next event into e.cur and hands it to the handler.
// Returns (stop, err).
func (e *Engine) deliver() (bool, error) {
	e.take()
	ev := &e.cur
	if ev.Time < e.now {
		return true, fmt.Errorf("sim: time went backwards: %v -> %v", e.now, ev.Time)
	}
	e.now = ev.Time
	e.Processed++
	e.observe(ev.Time, ev.Kind)
	if err := e.handler(ev); err != nil {
		return true, err
	}
	return ev.Kind == KindEnd, nil
}

// Run delivers events in order until the queue empties, a KindEnd event is
// delivered, the optional horizon passes, the handler errors, or the
// attached context (SetContext) is cancelled — the last case returns
// ctx.Err() so callers can distinguish cancellation from simulation faults.
func (e *Engine) Run() error {
	if err := e.interrupted(); err != nil {
		return err
	}
	for e.Pending() > 0 {
		if e.Processed%ctxStride == 0 {
			if err := e.interrupted(); err != nil {
				return err
			}
		}
		if e.Horizon > 0 && e.PeekTime() > e.Horizon {
			e.take()
			e.now = e.Horizon
			return nil
		}
		stop, err := e.deliver()
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// RunUntil delivers pending events with time strictly below limit, leaving
// later events queued for a future call. The clock advances only to the last
// delivered event — never to limit itself — so a subsequent Schedule at
// exactly limit remains legal. Sharded simulations use this as the barrier
// primitive: each shard's private engine drains up to the barrier time chosen
// by a global coordinator, then parks. Horizon and the attached context are
// not consulted (shard engines are bounded by their callers, not by
// wall-clock safety nets); KindEnd stops delivery as in Run.
func (e *Engine) RunUntil(limit float64) error {
	for e.PeekTime() < limit {
		stop, err := e.deliver()
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Step delivers exactly one event, returning false when the queue is empty.
// Used by tests that need to observe intermediate state.
func (e *Engine) Step() (bool, error) {
	if err := e.interrupted(); err != nil {
		return false, err
	}
	if e.Pending() == 0 {
		return false, nil
	}
	if _, err := e.deliver(); err != nil {
		return false, err
	}
	return true, nil
}

// PeekTime returns the timestamp of the next pending event, on the heap or
// on the lane, or +Inf when both are empty.
func (e *Engine) PeekTime() float64 {
	t := math.Inf(1)
	if len(e.heap) > 0 {
		t = e.nodes[e.heap[0]].time
	}
	if e.laneLen > 0 && e.lane[e.laneHead].time < t {
		t = e.lane[e.laneHead].time
	}
	return t
}
