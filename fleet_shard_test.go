package goodenough

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// shardedChaosRun executes the committed golden chaos scenario at the given
// shard count and dispatch policy, capturing the full event and decision
// streams.
func shardedChaosRun(t *testing.T, shards int, dispatch string) ([]byte, []byte, FleetResult) {
	t.Helper()
	fc := chaosFleetConfig(t)
	fc.Dispatch = dispatch
	fc.Shards = shards
	var events, decisions bytes.Buffer
	res, err := RunFleetWithOptions(fc, RunOptions{Events: &events, Decisions: &decisions})
	if err != nil {
		t.Fatal(err)
	}
	return events.Bytes(), decisions.Bytes(), res
}

// stripShardLayout zeroes the execution-layout fields so FleetResults can be
// compared across shard counts.
func stripShardLayout(r FleetResult) FleetResult {
	r.Shards = 0
	r.ShardEvents = nil
	r.ShardMachines = nil
	return r
}

// goldenFleetPath pins the sequential (K=1) output of the chaos scenario
// under p2c and ideal dispatch. Each event and decision stream runs to
// hundreds of megabytes, so the file stores their sha256 digests and sizes,
// plus the full FleetResult. Regenerate deliberately with:
// go test -run TestFleetShardMatrix -update .
var goldenFleetPath = filepath.Join("testdata", "golden_fleet.txt")

// fleetGoldenLines renders one sequential run as golden-file lines.
func fleetGoldenLines(t *testing.T, dispatch string, events, decisions []byte, res FleetResult) string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s events sha256 %x bytes %d\n%s decisions sha256 %x bytes %d\n%s result %s\n",
		dispatch, sha256.Sum256(events), len(events),
		dispatch, sha256.Sum256(decisions), len(decisions),
		dispatch, raw)
}

// checkGoldenFleet compares the sequential runs against golden_fleet.txt,
// or rewrites it under -update.
func checkGoldenFleet(t *testing.T, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(goldenFleetPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("fleet golden rewritten")
		return
	}
	want, err := os.ReadFile(goldenFleetPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("%s: sequential fleet output diverged from golden; "+
			"inspect, then -update if intended\ngot:\n%swant:\n%s", goldenFleetPath, got, want)
	}
}

// TestFleetShardMatrix is the determinism matrix from the sharding work:
// K ∈ {1, 2, 4, 7} shards over the golden 10-machine chaos scenario must
// produce byte-identical event JSONL, byte-identical decision JSONL, and an
// identical FleetResult (up to the layout-reporting fields). The shard
// count is an execution knob, never a simulation knob. The K=1 runs are
// also pinned against golden_fleet.txt, so behaviour changes show up even
// when every K changes alike.
func TestFleetShardMatrix(t *testing.T) {
	seqEvents, seqDecisions, seqRes := shardedChaosRun(t, 1, "p2c")
	if len(seqEvents) == 0 || len(seqDecisions) == 0 {
		t.Fatal("sequential run produced empty streams; the comparison is vacuous")
	}
	if seqRes.Shards != 1 || len(seqRes.ShardEvents) != 1 {
		t.Fatalf("sequential layout = %d shards (%v), want 1", seqRes.Shards, seqRes.ShardEvents)
	}
	for _, k := range []int{2, 4, 7} {
		events, decisions, res := shardedChaosRun(t, k, "p2c")
		if !bytes.Equal(seqEvents, events) {
			t.Errorf("K=%d: event JSONL diverges from sequential (%d vs %d bytes)",
				k, len(events), len(seqEvents))
		}
		if !bytes.Equal(seqDecisions, decisions) {
			t.Errorf("K=%d: decision JSONL diverges from sequential (%d vs %d bytes)",
				k, len(decisions), len(seqDecisions))
		}
		if !reflect.DeepEqual(stripShardLayout(seqRes), stripShardLayout(res)) {
			t.Errorf("K=%d: results diverge:\nseq:     %+v\nsharded: %+v", k, seqRes, res)
		}
		if res.Shards != k {
			t.Errorf("K=%d: result reports %d shards", k, res.Shards)
		}
		machines := 0
		for _, m := range res.ShardMachines {
			machines += m
		}
		if machines != res.Machines {
			t.Errorf("K=%d: ShardMachines sums to %d, want %d", k, machines, res.Machines)
		}
	}

	// The ideal dispatcher reads the cached capacity view (degraded budgets
	// included); prove its routing is also layout-independent.
	idealSeq, idealSeqDecisions, idealSeqRes := shardedChaosRun(t, 1, "ideal")
	checkGoldenFleet(t, fleetGoldenLines(t, "p2c", seqEvents, seqDecisions, seqRes)+
		fleetGoldenLines(t, "ideal", idealSeq, idealSeqDecisions, idealSeqRes))
	idealSharded, _, idealShardedRes := shardedChaosRun(t, 4, "ideal")
	if !bytes.Equal(idealSeq, idealSharded) {
		t.Error("ideal dispatch: event JSONL diverges between K=1 and K=4")
	}
	if !reflect.DeepEqual(stripShardLayout(idealSeqRes), stripShardLayout(idealShardedRes)) {
		t.Errorf("ideal dispatch: results diverge:\nseq:     %+v\nsharded: %+v",
			idealSeqRes, idealShardedRes)
	}
}

// TestFleetShardRaceHammer drives several sharded chaos fleets concurrently.
// Its value is under -race (CI runs the whole suite so): shard workers must
// never share mutable state across shard boundaries or with another fleet
// instance.
func TestFleetShardRaceHammer(t *testing.T) {
	fc := chaosFleetConfig(t)
	fc.DurationSec = 12
	fc.Shards = 7
	// Keep only the fault windows that open inside the shortened horizon.
	kept := fc.MachineFaults[:0]
	for _, mf := range fc.MachineFaults {
		if mf.AtSec < fc.DurationSec {
			kept = append(kept, mf)
		}
	}
	fc.MachineFaults = kept
	var wg sync.WaitGroup
	results := make([]FleetResult, 4)
	errs := make([]error, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunFleet(fc)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if results[i].LostForever != 0 {
			t.Fatalf("run %d: %d jobs lost forever", i, results[i].LostForever)
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("run %d diverged from run 0:\n%+v\n%+v", i, results[i], results[0])
		}
	}
}
