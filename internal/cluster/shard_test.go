package cluster

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"goodenough/internal/core"
	"goodenough/internal/faults"
	"goodenough/internal/obs"
	"goodenough/internal/sched"
	"goodenough/internal/verify"
	"goodenough/internal/workload"
)

// shardRun executes one fleet scenario — light load over six machines so
// several sit quiescent between jobs, with a crash, a partition, and two
// slowdowns landing mid-run, one on a quantum tick and one between ticks —
// at the given shard count, and returns the full
// event stream, decision stream, and Result. Every node's policy runs under
// an invariant checker, a barrierProbe watches the run, and the run fails on
// any violation.
func shardRun(t *testing.T, shards int) ([]byte, []byte, Result) {
	t.Helper()
	node := sched.Defaults()
	var events, decisions bytes.Buffer
	ej := obs.NewJSONL(&events)
	dl := obs.NewDecisionLog(&decisions)
	specs := []faults.Spec{
		{At: 1.5, Kind: faults.MachineCrash, Target: 2, Duration: 2},
		{At: 2.0, Kind: faults.MachinePartition, Target: 3, Duration: 3},
		{At: 2.5, Kind: faults.MachineSlow, Target: 4, Duration: 2, Value: 0.5},
		{At: 2.7, Kind: faults.MachineSlow, Target: 5, Duration: 1, Value: 0.6},
	}
	cs, err := faults.New(faults.Machines, specs, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := NewDispatcher("rr", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cks checkers
	probe := &barrierProbe{}
	f, err := New(Config{
		Machines:  6,
		Node:      node,
		NewPolicy: cks.newGE(node.QGE),
		Dispatch:  disp,
		Workload: workload.Spec{
			ArrivalRate: 25,
			ParetoAlpha: 3,
			Xmin:        130,
			Xmax:        1000,
			Window:      0.15,
			Duration:    8,
			Seed:        7,
		},
		Faults:    cs,
		Shards:    shards,
		Observer:  obs.Multi(ej, probe),
		Decisions: dl,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe.f = f
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := ej.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := dl.Flush(); err != nil {
		t.Fatal(err)
	}
	label := fmt.Sprintf("K=%d", shards)
	cks.check(t, label)
	probe.check(t, label)
	return events.Bytes(), decisions.Bytes(), res
}

// checkers collects the invariant checkers wrapped around a fleet's node
// policies, one per machine in machine order.
type checkers []*verify.Checker

// newGE returns a NewPolicy factory building checked GE policies.
func (c *checkers) newGE(qge float64) func() sched.Policy {
	return func() sched.Policy {
		ck := verify.Wrap(core.NewGE(qge))
		*c = append(*c, ck)
		return ck
	}
}

// check fails the test on any violation any machine's checker recorded.
func (c checkers) check(t *testing.T, label string) {
	t.Helper()
	for m, ck := range c {
		if !ck.Ok() {
			t.Errorf("%s: machine %d violated %d invariants, first: %v",
				label, m, len(ck.Violations()), ck.Violations()[0])
		}
	}
}

// barrierProbe observes a fleet run and checks, at every machine crash and
// recovery, that every machine has been settled to the fault's barrier
// instant. It also checks that the dispatcher's view is fresh: at every
// crash and recovery, and at the first arrival after any machine fault
// (when the fault's flush has applied whatever the global phase changed,
// such as the replan after a slowdown), every machine the dispatcher can
// pick must have cached view slots equal to a fresh recomputation from its
// live state. The fleet emits those events in the global phase, with every
// shard parked, so reading the machines is race-free.
type barrierProbe struct {
	f      *Fleet
	faults int
	views  int
	stale  []string
	// afterFault is set by any machine fault and cleared by the next
	// arrival, which checks the view.
	afterFault bool
}

// Observe implements obs.Observer.
func (p *barrierProbe) Observe(e obs.Event) {
	switch e.Type {
	case obs.EventMachineDown, obs.EventMachineUp:
		p.faults++
		p.afterFault = true
		for _, n := range p.f.nodes {
			if now := n.d.Server().Now(); now != e.Time {
				p.stale = append(p.stale, fmt.Sprintf("machine %d at %v, fault at %v", n.idx, now, e.Time))
			}
		}
		p.checkView(e)
	case obs.EventMachinePartition, obs.EventMachineDegrade:
		p.afterFault = true
	case obs.EventJobArrive:
		if p.afterFault {
			p.afterFault = false
			p.checkView(e)
		}
	}
}

// check fails the test on anything stale the probe saw, or when it saw
// nothing to check.
func (p *barrierProbe) check(t *testing.T, label string) {
	t.Helper()
	if p.faults == 0 || p.views == 0 {
		t.Errorf("%s: probe too weak: %d faults, %d view checks", label, p.faults, p.views)
	}
	if len(p.stale) > 0 {
		t.Errorf("%s: %d stale machine clocks or views, first: %s", label, len(p.stale), p.stale[0])
	}
}

// checkView compares every eligible machine's cached view slots with the
// signals recomputed from its live state plus its in-flight adjustments.
// Idle cores and capacity must match exactly; queued work within float
// rounding, since jobs routed since the last refresh add to the cached slot
// one by one but to the in-flight total first.
func (p *barrierProbe) checkView(e obs.Event) {
	p.views++
	v := &p.f.view
	for _, n := range p.f.nodes {
		if !v.Eligible(n.idx) {
			continue
		}
		server := n.d.Server()
		queued := server.TotalLoad()
		for _, j := range n.d.Waiting().Peek() {
			queued += j.Remaining()
		}
		queued += n.inflightQW
		idle := max(n.d.IdleCores()-n.inflightJobs, 0)
		capacity := server.Capacity()
		if math.Abs(v.queued[n.idx]-queued) > 1e-9*max(1, math.Abs(queued)) ||
			v.idle[n.idx] != idle || v.capacity[n.idx] != capacity {
			p.stale = append(p.stale, fmt.Sprintf(
				"machine %d view at %v (%v): queued %v idle %d capacity %v, live queued %v idle %d capacity %v",
				n.idx, e.Time, e.Type, v.queued[n.idx], v.idle[n.idx], v.capacity[n.idx],
				queued, idle, capacity))
		}
	}
}

// TestGeneratedChaosFleetUpholdsInvariants runs a 20-machine fleet at the
// critical load through seeded crashes under rr, p2c and ideal, on two
// shards. Every node's policy runs under an invariant checker, whose
// settled rule holds the lazy settling to its contract: a policy always
// sees its machine at the trigger instant. At every fault barrier, every
// machine must sit at the barrier instant, and the dispatcher's view must
// match every eligible machine's live state.
func TestGeneratedChaosFleetUpholdsInvariants(t *testing.T) {
	const machines = 20
	node := sched.Defaults()
	for _, name := range []string{"rr", "p2c", "ideal"} {
		crashes, err := faults.GenerateCluster(11, machines, 4, 20, 1)
		if err != nil {
			t.Fatal(err)
		}
		disp, err := NewDispatcher(name, 0, 11)
		if err != nil {
			t.Fatal(err)
		}
		var cks checkers
		probe := &barrierProbe{}
		f, err := New(Config{
			Machines:  machines,
			Node:      node,
			NewPolicy: cks.newGE(node.QGE),
			Dispatch:  disp,
			Workload: workload.Spec{
				ArrivalRate: node.CriticalLoad * machines,
				ParetoAlpha: 3,
				Xmin:        130,
				Xmax:        1000,
				Window:      0.15,
				Duration:    4,
				Seed:        11,
			},
			Faults:   crashes,
			Shards:   2,
			Observer: probe,
		})
		if err != nil {
			t.Fatal(err)
		}
		probe.f = f
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashes == 0 {
			t.Fatalf("%s: scenario too weak: no crashes", name)
		}
		if res.LostForever != 0 {
			t.Errorf("%s: %d jobs lost forever", name, res.LostForever)
		}
		probe.check(t, name)
		cks.check(t, name)
	}
}

// stripLayout zeroes the fields that describe the execution layout rather
// than the simulation, so Results can be compared across shard counts.
func stripLayout(r Result) Result {
	r.Shards = 0
	r.ShardEvents = nil
	r.ShardMachines = nil
	return r
}

// TestShardDeterminism proves the shard layout is invisible: for every K
// the fleet must produce a byte-identical event stream, byte-identical
// decision stream, and a deeply equal Result versus the sequential (K=1)
// run. This is the regression gate for the barrier protocol — buffered
// shard-phase effects must merge in exactly the order the shared-heap
// implementation produced them.
func TestShardDeterminism(t *testing.T) {
	seqEvents, seqDecisions, seqRes := shardRun(t, 1)
	if len(seqEvents) == 0 {
		t.Fatal("scenario produced no events; the comparison is vacuous")
	}
	if seqRes.Jobs == 0 || seqRes.Crashes == 0 {
		t.Fatalf("scenario too weak: jobs=%d crashes=%d (want both > 0)",
			seqRes.Jobs, seqRes.Crashes)
	}
	if seqRes.Shards != 1 {
		t.Fatalf("Shards = %d, want 1", seqRes.Shards)
	}
	for _, k := range []int{2, 3, 4, 6} {
		events, decisions, res := shardRun(t, k)
		if !bytes.Equal(seqEvents, events) {
			t.Errorf("K=%d: event streams diverge: seq=%d bytes, sharded=%d bytes\nfirst divergence near: %s",
				k, len(seqEvents), len(events), firstDiff(seqEvents, events))
		}
		if !bytes.Equal(seqDecisions, decisions) {
			t.Errorf("K=%d: decision streams diverge: seq=%d bytes, sharded=%d bytes\nfirst divergence near: %s",
				k, len(seqDecisions), len(decisions), firstDiff(seqDecisions, decisions))
		}
		if !reflect.DeepEqual(stripLayout(seqRes), stripLayout(res)) {
			t.Errorf("K=%d: results diverge:\nseq:     %+v\nsharded: %+v", k, seqRes, res)
		}
		want := k
		if want > 6 {
			want = 6
		}
		if res.Shards != want {
			t.Errorf("K=%d: Shards = %d, want %d", k, res.Shards, want)
		}
		var total int64
		machines := 0
		for i := range res.ShardEvents {
			total += res.ShardEvents[i]
			machines += res.ShardMachines[i]
		}
		if machines != 6 {
			t.Errorf("K=%d: ShardMachines sums to %d, want 6", k, machines)
		}
		if total <= 0 {
			t.Errorf("K=%d: shard heaps delivered no events", k)
		}
	}
}

// TestResolveShards pins the auto-sizing rule — min(GOMAXPROCS, N/8),
// raised to ⌈N/128⌉, floored at one, capped at the machine count — over
// fleet sizes and host sizes, and that an explicit count is kept as given.
func TestResolveShards(t *testing.T) {
	auto := []struct {
		machines int
		want     [3]int // at GOMAXPROCS 1, 2, 64
	}{
		{1, [3]int{1, 1, 1}},
		{4, [3]int{1, 1, 1}},
		{10, [3]int{1, 1, 1}},
		{100, [3]int{1, 2, 12}},
		{1000, [3]int{8, 8, 64}},
		{10000, [3]int{79, 79, 79}},
		{100000, [3]int{782, 782, 782}},
	}
	for _, c := range auto {
		for p, procs := range []int{1, 2, 64} {
			if got := resolveShards(0, c.machines, procs); got != c.want[p] {
				t.Errorf("resolveShards(0, %d machines, GOMAXPROCS %d) = %d, want %d",
					c.machines, procs, got, c.want[p])
			}
		}
	}
	explicit := []struct {
		requested, machines, want int
	}{
		{1, 10, 1},
		{4, 10, 4},
		{16, 10, 10}, // capped at machine count
		{2, 1000, 2}, // kept below the auto count
		{3, 10000, 3},
		{500, 1000, 500},
	}
	for _, c := range explicit {
		for _, procs := range []int{1, 2, 64} {
			if got := resolveShards(c.requested, c.machines, procs); got != c.want {
				t.Errorf("resolveShards(%d, %d, GOMAXPROCS %d) = %d, want %d",
					c.requested, c.machines, procs, got, c.want)
			}
		}
	}
}

// firstDiff returns a short window around the first differing byte.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+40, i+40
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return "a: " + string(a[lo:hiA]) + "\nb: " + string(b[lo:hiB])
		}
	}
	return "streams are a prefix of each other"
}
