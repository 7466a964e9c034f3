package cluster

import (
	"strings"
	"testing"

	"goodenough/internal/core"
	"goodenough/internal/faults"
	"goodenough/internal/sched"
	"goodenough/internal/workload"
)

// TestNewRejectsCoreScopeFaults: one Schedule type serves both scopes, so
// the fleet must turn away a machine's core schedule rather than read core
// indices as machines.
func TestNewRejectsCoreScopeFaults(t *testing.T) {
	cores, err := faults.New(faults.Cores, []faults.Spec{
		{At: 1, Kind: faults.CoreFail, Target: 2, Duration: 1},
	}, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := NewDispatcher("rr", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	node := sched.Defaults()
	_, err = New(Config{
		Machines:  4,
		Node:      node,
		NewPolicy: func() sched.Policy { return core.NewGE(node.QGE) },
		Dispatch:  disp,
		Workload: workload.Spec{
			ArrivalRate: 100, ParetoAlpha: 3, Xmin: 130, Xmax: 1000,
			Window: 0.15, Duration: 2, Seed: 1,
		},
		Faults: cores,
	})
	if err == nil || !strings.Contains(err.Error(), "not a machine fault kind") {
		t.Fatalf("core-scope schedule: error %v, want a scope rejection", err)
	}
}
