package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// This file checks the index-addressable 4-ary heap and the ordered lane
// against an independent reference model built on container/heap — the
// implementation the kernel replaced, in which a post is an ordinary event
// with the same seq, and a reschedule is a cancel plus a schedule of the
// same event that takes the next seq. Both sides receive the identical
// operation stream (schedule, cancel, post, reschedule, deliver) and must
// produce the identical delivery sequence under the (time, priority, seq)
// total order. The fuzz target explores cancel-heavy interleavings;
// TestKernelVsReferenceRandom replays fixed pseudorandom streams on every
// plain `go test` run.

// refEvent mirrors one scheduled event in the reference model.
type refEvent struct {
	time      float64
	priority  int
	seq       uint64
	kind      Kind
	core      int
	ref       int
	cancelled bool
	posted    bool
}

// refHeap is a container/heap min-heap over (time, priority, seq).
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// kernelHarness drives an Engine and the reference model in lockstep.
type kernelHarness struct {
	t    *testing.T
	eng  *Engine
	ref  refHeap
	live []struct {
		id EventID
		ev *refEvent
	}
	seq       uint64
	delivered Event // engine handler output, consumed by step()
	gotEvent  bool

	// posts counts posted events not yet delivered; lastPost is the latest
	// post, which a new post must not order before while any is pending.
	posts    int
	lastPost *refEvent

	// dead holds the handles of delivered and cancelled events, which
	// Cancel and Reschedule must refuse even after their slots are reused.
	dead []EventID
}

func newKernelHarness(t *testing.T) *kernelHarness {
	h := &kernelHarness{t: t}
	h.eng = NewEngine(func(e *Event) error {
		h.delivered = *e
		h.gotEvent = true
		return nil
	})
	return h
}

// schedule adds one event to both sides. A negative priority argument means
// "use the kind default", matching Schedule/ScheduleCoreRef.
func (h *kernelHarness) schedule(dt float64, kind Kind, core, priority int) {
	t := h.eng.Now() + dt
	var id EventID
	var err error
	prio := priority
	if priority < 0 {
		prio = int(kind)
		if core >= 0 {
			id, err = h.eng.ScheduleCoreRef(t, kind, core, -1)
		} else {
			core = -1 // plain Schedule carries no core payload
			id, err = h.eng.Schedule(t, kind)
		}
	} else {
		core = -1 // ScheduleWithPriority carries a ref, not a core
		id, err = h.eng.ScheduleWithPriority(t, kind, -1, priority)
	}
	if err != nil {
		h.t.Fatalf("schedule(%v, %v): %v", t, kind, err)
	}
	ev := &refEvent{time: t, priority: prio, seq: h.seq, kind: kind, core: core, ref: -1}
	h.seq++
	heap.Push(&h.ref, ev)
	h.live = append(h.live, struct {
		id EventID
		ev *refEvent
	}{id, ev})
}

// cancel removes live entry k from both sides.
func (h *kernelHarness) cancel(k int) {
	entry := h.live[k]
	if !h.eng.Cancel(entry.id) {
		h.t.Fatalf("Cancel(%v) of a live event returned false", entry.id)
	}
	if h.eng.Cancel(entry.id) {
		h.t.Fatalf("double Cancel(%v) returned true", entry.id)
	}
	entry.ev.cancelled = true
	h.live = append(h.live[:k], h.live[k+1:]...)
	h.dead = append(h.dead, entry.id)
}

// reschedule moves live entry k to now+dt in place. On the reference it is
// a cancel plus a schedule of the same event that takes the next seq; the
// engine's handle stays valid.
func (h *kernelHarness) reschedule(k int, dt float64) {
	entry := &h.live[k]
	t := h.eng.Now() + dt
	pending, processed := h.eng.Pending(), h.eng.Processed
	ok, err := h.eng.Reschedule(entry.id, t)
	if !ok || err != nil {
		h.t.Fatalf("Reschedule(%v, %v) of a live event = %v, %v", entry.id, t, ok, err)
	}
	if h.eng.Pending() != pending || h.eng.Processed != processed {
		h.t.Fatalf("Reschedule changed Pending %d -> %d or Processed %d -> %d",
			pending, h.eng.Pending(), processed, h.eng.Processed)
	}
	old := entry.ev
	old.cancelled = true
	ev := &refEvent{time: t, priority: old.priority, seq: h.seq, kind: old.kind, core: old.core, ref: old.ref}
	h.seq++
	heap.Push(&h.ref, ev)
	entry.ev = ev
}

// rescheduleRefused tries a reschedule that must change nothing: of a
// delivered or cancelled handle, of the zero handle, or of a live event to
// a time before now. The first two return false, the last an error.
func (h *kernelHarness) rescheduleRefused(pick byte, dt float64) {
	pending := h.eng.Pending()
	now := h.eng.Now()
	switch {
	case pick%3 == 0 && len(h.dead) > 0:
		id := h.dead[int(pick/3)%len(h.dead)]
		if ok, err := h.eng.Reschedule(id, now+dt); ok || err != nil {
			h.t.Fatalf("Reschedule of dead handle %v = %v, %v; want false, nil", id, ok, err)
		}
	case pick%3 == 1 && len(h.live) > 0:
		id := h.live[int(pick/3)%len(h.live)].id
		if ok, err := h.eng.Reschedule(id, now-dt-0.125); ok || err == nil {
			h.t.Fatalf("Reschedule of %v before now %v = %v, %v; want an error", id, now, ok, err)
		}
	default:
		if ok, err := h.eng.Reschedule(0, now+dt); ok || err != nil {
			h.t.Fatalf("Reschedule of the zero handle = %v, %v; want false, nil", ok, err)
		}
	}
	if h.eng.Pending() != pending || h.eng.Now() != now {
		h.t.Fatalf("a refused Reschedule changed Pending %d -> %d or now %v -> %v",
			pending, h.eng.Pending(), now, h.eng.Now())
	}
}

// post appends one event to the lane and adds it to the reference as an
// ordinary event with the same seq. dt >= 0 offsets it from the earliest
// legal instant: now, or the last pending post when it is later. A post
// that would order before the pending tail (same instant, lower priority)
// must be refused, with nothing queued and no seq consumed.
func (h *kernelHarness) post(dt float64, kind Kind, core int) {
	t := h.eng.Now()
	if h.posts > 0 && h.lastPost.time > t {
		t = h.lastPost.time
	}
	t += dt
	prio := int(kind)
	if h.posts > 0 && t == h.lastPost.time && prio < h.lastPost.priority {
		pending := h.eng.Pending()
		if err := h.eng.Post(t, kind, core, 0); err == nil {
			h.t.Fatalf("Post(%v, %v) ordering before the pending post (%v, prio %d) was accepted",
				t, kind, h.lastPost.time, h.lastPost.priority)
		}
		if h.eng.Pending() != pending {
			h.t.Fatalf("a refused Post changed Pending from %d to %d", pending, h.eng.Pending())
		}
		return
	}
	ref := int(h.seq % 1000)
	if err := h.eng.Post(t, kind, core, ref); err != nil {
		h.t.Fatalf("Post(%v, %v): %v", t, kind, err)
	}
	ev := &refEvent{time: t, priority: prio, seq: h.seq, kind: kind, core: core, ref: ref, posted: true}
	h.seq++
	heap.Push(&h.ref, ev)
	h.posts++
	h.lastPost = ev
}

// postPast tries a post before now, which must be refused.
func (h *kernelHarness) postPast(dt float64) {
	pending := h.eng.Pending()
	if err := h.eng.Post(h.eng.Now()-dt, KindArrival, 0, 0); err == nil {
		h.t.Fatalf("Post before now %v was accepted", h.eng.Now())
	}
	if h.eng.Pending() != pending {
		h.t.Fatalf("a refused Post changed Pending from %d to %d", pending, h.eng.Pending())
	}
}

// step delivers one event on both sides and compares them.
func (h *kernelHarness) step() {
	// Drop lazily-deleted reference events.
	for len(h.ref) > 0 && h.ref[0].cancelled {
		heap.Pop(&h.ref)
	}
	if len(h.ref) == 0 {
		if h.eng.Pending() != 0 {
			h.t.Fatalf("reference empty but engine has %d pending", h.eng.Pending())
		}
		return
	}
	want := heap.Pop(&h.ref).(*refEvent)
	h.gotEvent = false
	if _, err := step(h.eng); err != nil {
		h.t.Fatalf("step: %v", err)
	}
	if !h.gotEvent {
		h.t.Fatalf("reference delivers (t=%v kind=%v) but engine delivered nothing", want.time, want.kind)
	}
	got := h.delivered
	if got.Time != want.time || got.Kind != want.kind || got.Core != want.core || got.Ref != want.ref {
		h.t.Fatalf("delivery mismatch: engine (t=%v kind=%v core=%d ref=%d), reference (t=%v kind=%v core=%d ref=%d, seq=%d, posted=%v)",
			got.Time, got.Kind, got.Core, got.Ref, want.time, want.kind, want.core, want.ref, want.seq, want.posted)
	}
	if want.posted {
		h.posts--
		return
	}
	// Retire the delivered event from the live set; its handle must now be
	// stale on the engine side too.
	for k, entry := range h.live {
		if entry.ev == want {
			if h.eng.Cancel(entry.id) {
				h.t.Fatalf("Cancel of already-delivered event %v returned true", entry.id)
			}
			h.live = append(h.live[:k], h.live[k+1:]...)
			h.dead = append(h.dead, entry.id)
			break
		}
	}
}

func (h *kernelHarness) liveCount() int {
	return len(h.live)
}

// run interprets a byte stream as an operation program. The op mix is
// deliberately cancel-heavy (2 schedule : 2 cancel : 2 step : 2 post :
// 2 reschedule in expectation, with cancel falling through to step when
// nothing is live) because cancellation is where slot reuse, swap-removal,
// and generation tagging can go wrong. Posts land on or just after the
// earliest legal instant, so they often tie heap events on time and
// priority; reschedules move an event earlier or later on the same grid,
// and now and then try a dead handle or a time before now.
func runKernelProgram(t *testing.T, data []byte) {
	h := newKernelHarness(t)
	kinds := []Kind{KindArrival, KindDeadline, KindCoreIdle, KindQuantum, KindFault}
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	for i < len(data) {
		op := next() % 10
		switch {
		case op < 2: // schedule
			dt := float64(next()%64) * 0.125
			kind := kinds[int(next())%len(kinds)]
			core := int(next()%8) - 1 // -1 means plain Schedule
			priority := -1
			if next()%4 == 0 {
				priority = int(next()%16) - 8
			}
			h.schedule(dt, kind, core, priority)
		case op < 4: // cancel a live event, else fall through to step
			if n := h.liveCount(); n > 0 {
				h.cancel(int(next()) % n)
			} else {
				h.step()
			}
		case op < 6:
			h.step()
		case op < 8: // post, or now and then a post before now
			dt := float64(next()%4) * 0.125
			kind := kinds[int(next())%len(kinds)]
			if b := next(); b%16 == 0 {
				h.postPast(dt + 0.125)
			} else {
				h.post(dt, kind, int(b%8))
			}
		default: // reschedule a live event, or now and then a refused one
			dt := float64(next()%64) * 0.125
			if b := next(); b%4 == 0 || h.liveCount() == 0 {
				h.rescheduleRefused(next(), dt)
			} else {
				h.reschedule(int(next())%h.liveCount(), dt)
			}
		}
	}
	// Drain: every remaining event must come out in the reference order.
	for len(h.ref) > 0 {
		h.step()
	}
	if h.eng.Pending() != 0 {
		t.Fatalf("drained reference but engine still has %d pending", h.eng.Pending())
	}
}

// FuzzKernelVsReference is the fuzz entry point: any byte string is a valid
// program, and the engine must agree with container/heap on all of them.
func FuzzKernelVsReference(f *testing.F) {
	f.Add([]byte{0, 8, 1, 2, 4, 0, 16, 3, 0, 2, 5, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5})
	f.Add([]byte{1, 63, 4, 7, 0, 12, 2, 0, 1, 1, 2, 0, 1, 200, 3, 3, 2, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runKernelProgram(t, data)
	})
}

// TestKernelVsReferenceRandom replays fixed pseudorandom programs on every
// test run, so the model check does not depend on anyone invoking -fuzz.
func TestKernelVsReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 8192)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		runKernelProgram(t, data)
	}
}
