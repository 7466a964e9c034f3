package cluster

import (
	"fmt"
	"sort"

	"goodenough/internal/rng"
)

// View is the dispatcher's window onto the fleet, one slot per machine:
// reachability (up and not partitioned) plus cheap load signals, cached at
// barriers and adjusted as jobs are routed, so reads cost O(1) and never
// advance a machine. Health-aware policies read reachability, queued work
// and idle cores; only the omniscient ideal baseline, through BestDrain,
// weighs queued work against true capacity, including degradations a real
// dispatcher could not observe.
//
// Two indexes keep every pick path sublinear: the eligible machines in
// swap-remove order, maintained on fault transitions, so sampling policies
// draw by rank in O(1); and a min-heap of queued-work/capacity drain
// scores, built on the first BestDrain call and re-keyed in O(log N) on
// every later change.
type View struct {
	queued   []float64
	idle     []int
	capacity []float64
	elig     []int // eligible machines, swap-remove order
	eligPos  []int // machine -> slot in elig, -1 when ineligible
	drain    *drainHeap
}

// newView returns a view of n machines, none of them eligible yet.
func newView(n int) View {
	v := View{
		queued:   make([]float64, n),
		idle:     make([]int, n),
		capacity: make([]float64, n),
		elig:     make([]int, 0, n),
		eligPos:  make([]int, n),
	}
	for m := range v.eligPos {
		v.eligPos[m] = -1
	}
	return v
}

// Machines returns the fleet size.
func (v *View) Machines() int { return len(v.queued) }

// Eligible reports whether machine m can receive work: up and reachable
// from the dispatcher.
func (v *View) Eligible(m int) bool { return v.eligPos[m] >= 0 }

// QueuedWork returns the remaining processing units queued on machine m
// (waiting plus planned, plus everything routed to it since its last
// refresh), the load signal health-aware policies key on.
func (v *View) QueuedWork(m int) float64 { return v.queued[m] }

// HasIdleCore reports whether machine m has a healthy idle core not yet
// claimed by a job routed to it.
func (v *View) HasIdleCore(m int) bool { return v.idle[m] > 0 }

// EligibleCount returns the number of eligible machines.
func (v *View) EligibleCount() int { return len(v.elig) }

// EligibleAt returns the eligible machine at the given rank in [0,
// EligibleCount()). Rank order is arbitrary but deterministic.
func (v *View) EligibleAt(rank int) int { return v.elig[rank] }

// BestDrain returns the eligible machine with the minimum
// queued-work/capacity score (ties to the lower index; a machine with no
// capacity scores as never draining), or ok=false when none is eligible.
func (v *View) BestDrain() (m int, score float64, ok bool) {
	if v.drain == nil {
		v.drain = newDrainHeap(len(v.queued))
		for _, m := range v.elig {
			v.rekey(m)
		}
	}
	if len(v.drain.heap) == 0 {
		return -1, 0, false
	}
	m = v.drain.heap[0]
	return m, v.drain.score[m], true
}

// set refreshes machine m's load signals.
func (v *View) set(m int, queued float64, idle int, capacity float64) {
	v.queued[m] = queued
	v.idle[m] = idle
	v.capacity[m] = capacity
	v.rekey(m)
}

// route adds a job routed to machine m: its work counts as queued, and it
// claims one idle core, until the machine's next refresh.
func (v *View) route(m int, work float64) {
	v.queued[m] += work
	if v.idle[m] > 0 {
		v.idle[m]--
	}
	v.rekey(m)
}

// setEligible moves machine m in or out of the eligible set (swap-remove
// keeps both directions O(1)).
func (v *View) setEligible(m int, ok bool) {
	at := v.eligPos[m]
	if ok {
		if at < 0 {
			v.eligPos[m] = len(v.elig)
			v.elig = append(v.elig, m)
		}
	} else if at >= 0 {
		last := len(v.elig) - 1
		moved := v.elig[last]
		v.elig[at] = moved
		v.eligPos[moved] = at
		v.elig = v.elig[:last]
		v.eligPos[m] = -1
	}
	v.rekey(m)
}

// rekey updates machine m's drain score once the heap exists.
func (v *View) rekey(m int) {
	if v.drain == nil {
		return
	}
	if !v.Eligible(m) {
		v.drain.remove(m)
		return
	}
	s := inf
	if c := v.capacity[m]; c > 0 {
		s = v.queued[m] / c
	}
	v.drain.update(m, s)
}

// Dispatcher picks the machine a job is routed to. Implementations must be
// deterministic: the same View state and call sequence yields the same
// picks (randomized policies draw from a seeded stream).
type Dispatcher interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick returns the chosen machine index and the score it was chosen
	// on, or ok=false when no machine is eligible (the job parks at the
	// dispatcher until one recovers).
	Pick(v *View) (m int, score float64, ok bool)
	// Reset clears cross-run state (cursors, heaps, rng).
	Reset()
}

// idleNotifier is implemented by dispatchers that maintain an idle-machine
// heap; the fleet calls NoteIdle when a machine gains an idle healthy core.
type idleNotifier interface {
	NoteIdle(m int)
}

// Policies lists the accepted dispatch policy names.
func Policies() []string { return []string{"rr", "least-loaded", "p2c", "ideal"} }

// NewDispatcher builds the named policy. k parameterizes power-of-k-choices
// (values < 2 default to 2); seed feeds its sampling stream.
func NewDispatcher(name string, k int, seed uint64) (Dispatcher, error) {
	switch name {
	case "rr":
		return &roundRobin{}, nil
	case "least-loaded":
		return &leastLoaded{}, nil
	case "p2c":
		if k < 2 {
			k = 2
		}
		return &powerOfK{k: k, seed: seed}, nil
	case "ideal":
		return &ideal{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown dispatch policy %q (valid: %v)", name, Policies())
	}
}

// roundRobin cycles through the machines, skipping unreachable ones — the
// fleet analogue of the paper's C-RR core assignment.
type roundRobin struct {
	next int
}

func (r *roundRobin) Name() string { return "rr" }
func (r *roundRobin) Reset()       { r.next = 0 }

func (r *roundRobin) Pick(v *View) (int, float64, bool) {
	n := v.Machines()
	for i := 0; i < n; i++ {
		m := (r.next + i) % n
		if v.Eligible(m) {
			r.next = (m + 1) % n
			return m, v.QueuedWork(m), true
		}
	}
	return -1, 0, false
}

// leastLoaded routes to the reachable machine with the least queued work,
// breaking ties by index.
type leastLoaded struct{}

func (l *leastLoaded) Name() string { return "least-loaded" }
func (l *leastLoaded) Reset()       {}

func (l *leastLoaded) Pick(v *View) (int, float64, bool) {
	best, bestScore := -1, 0.0
	for m := 0; m < v.Machines(); m++ {
		if !v.Eligible(m) {
			continue
		}
		s := v.QueuedWork(m)
		if best < 0 || s < bestScore {
			best, bestScore = m, s
		}
	}
	return best, bestScore, best >= 0
}

// powerOfK is power-of-k-choices over an idle-machine heap: a job goes to
// the lowest-indexed machine known to have an idle core; only when no
// machine is idle does the policy sample k reachable machines from its
// seeded stream and take the least loaded — the classic two-level structure
// of mine-lb-style dispatchers. The heap is lazily invalidated: entries are
// re-checked against the live View on pop, so stale idleness never
// misroutes.
type powerOfK struct {
	k    int
	seed uint64
	src  *rng.Source

	heap   []int
	inHeap []bool

	scratch []int
}

func (p *powerOfK) Name() string { return fmt.Sprintf("p%dc", p.k) }

func (p *powerOfK) Reset() {
	p.src = rng.New(p.seed ^ 0xd15Fa7c4)
	p.heap = p.heap[:0]
	p.inHeap = nil
}

// NoteIdle implements idleNotifier.
func (p *powerOfK) NoteIdle(m int) {
	for len(p.inHeap) <= m {
		p.inHeap = append(p.inHeap, false)
	}
	if p.inHeap[m] {
		return
	}
	p.inHeap[m] = true
	p.heap = append(p.heap, m)
	sort.Ints(p.heap) // tiny; keeps pops deterministic by index
}

func (p *powerOfK) Pick(v *View) (int, float64, bool) {
	// Drain the idle heap first, discarding entries that are no longer
	// idle or reachable.
	for len(p.heap) > 0 {
		m := p.heap[0]
		p.heap = p.heap[1:]
		p.inHeap[m] = false
		if v.Eligible(m) && v.HasIdleCore(m) {
			return m, 0, true
		}
	}
	// No idle machine known: sample k distinct reachable machines by rank
	// and take the least loaded.
	n := v.EligibleCount()
	if n == 0 {
		return -1, 0, false
	}
	k := p.k
	if k > n {
		k = n
	}
	p.scratch = p.scratch[:0]
	for len(p.scratch) < k {
		r := p.src.Intn(n)
		dup := false
		for _, seen := range p.scratch {
			if seen == r {
				dup = true
				break
			}
		}
		if !dup {
			p.scratch = append(p.scratch, r)
		}
	}
	best, bestScore := -1, 0.0
	for _, r := range p.scratch {
		m := v.EligibleAt(r)
		s := v.QueuedWork(m)
		if best < 0 || s < bestScore || (s == bestScore && m < best) {
			best, bestScore = m, s
		}
	}
	return best, bestScore, true
}

// ideal is the omniscient baseline: it weighs each reachable machine's
// queued work against its true current capacity — including degradations
// the dispatcher could not actually see — and routes to the machine with
// the shortest expected drain time. No deployable policy has this
// information; the gap to ideal is each policy's routing regret.
type ideal struct{}

func (i *ideal) Name() string { return "ideal" }
func (i *ideal) Reset()       {}

func (i *ideal) Pick(v *View) (int, float64, bool) { return v.BestDrain() }

const inf = 1e300

// drainHeap is an indexed binary min-heap of machines keyed by
// (drain score, machine index): the backing structure for View.BestDrain.
// Re-keying an entry costs O(log N) and happens only when a machine's
// queued work or capacity actually changes (a routed job, a barrier view
// refresh, a fault transition).
type drainHeap struct {
	heap  []int     // machine indices, heap-ordered
	pos   []int     // machine -> heap slot, -1 when absent
	score []float64 // machine -> current key
}

func newDrainHeap(n int) *drainHeap {
	d := &drainHeap{
		heap:  make([]int, 0, n),
		pos:   make([]int, n),
		score: make([]float64, n),
	}
	for i := range d.pos {
		d.pos[i] = -1
	}
	return d
}

func (d *drainHeap) less(a, b int) bool {
	ma, mb := d.heap[a], d.heap[b]
	if d.score[ma] != d.score[mb] {
		return d.score[ma] < d.score[mb]
	}
	return ma < mb
}

func (d *drainHeap) swap(a, b int) {
	d.heap[a], d.heap[b] = d.heap[b], d.heap[a]
	d.pos[d.heap[a]] = a
	d.pos[d.heap[b]] = b
}

func (d *drainHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !d.less(i, p) {
			return
		}
		d.swap(i, p)
		i = p
	}
}

func (d *drainHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(d.heap) {
			return
		}
		m := l
		if r := l + 1; r < len(d.heap) && d.less(r, l) {
			m = r
		}
		if !d.less(m, i) {
			return
		}
		d.swap(i, m)
		i = m
	}
}

// update sets machine m's score, inserting m if absent.
func (d *drainHeap) update(m int, score float64) {
	d.score[m] = score
	if i := d.pos[m]; i >= 0 {
		d.siftUp(i)
		d.siftDown(d.pos[m])
		return
	}
	d.heap = append(d.heap, m)
	d.pos[m] = len(d.heap) - 1
	d.siftUp(len(d.heap) - 1)
}

// remove drops machine m if present.
func (d *drainHeap) remove(m int) {
	i := d.pos[m]
	if i < 0 {
		return
	}
	last := len(d.heap) - 1
	d.swap(i, last)
	d.heap = d.heap[:last]
	d.pos[m] = -1
	if i < last {
		moved := d.heap[i]
		d.siftUp(i)
		d.siftDown(d.pos[moved])
	}
}
