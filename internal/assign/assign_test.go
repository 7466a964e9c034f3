package assign

import (
	"testing"

	"goodenough/internal/job"
)

func batch(n int) []*job.Job {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = job.New(i, 0, 0.15, 100+float64(i))
	}
	return jobs
}

// allCores is the eligible list of a fault-free m-core machine.
func allCores(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestRoundRobin(t *testing.T) {
	jobs := batch(5)
	RoundRobin{}.Assign(jobs, allCores(3), nil)
	want := []int{0, 1, 2, 0, 1}
	for i, j := range jobs {
		if j.Core != want[i] {
			t.Fatalf("job %d on core %d, want %d", i, j.Core, want[i])
		}
		if j.State != job.StateAssigned {
			t.Fatalf("job %d state %v", i, j.State)
		}
	}
	// RR restarts every batch.
	jobs2 := batch(2)
	RoundRobin{}.Assign(jobs2, allCores(3), nil)
	if jobs2[0].Core != 0 {
		t.Fatalf("plain RR should restart at core 0, got %d", jobs2[0].Core)
	}
}

func TestCumulativeRRPersistsCursor(t *testing.T) {
	c := &CumulativeRR{}
	a := batch(5)
	c.Assign(a, allCores(3), nil)
	b := batch(2)
	c.Assign(b, allCores(3), nil)
	// First batch ended at cursor 5%3=2, so the next batch starts there.
	if b[0].Core != 2 || b[1].Core != 0 {
		t.Fatalf("C-RR cursor not cumulative: got %d,%d want 2,0", b[0].Core, b[1].Core)
	}
	c.Reset()
	d := batch(1)
	c.Assign(d, allCores(3), nil)
	if d[0].Core != 0 {
		t.Fatalf("reset cursor should restart at 0, got %d", d[0].Core)
	}
}

func TestCumulativeRRCoreShrink(t *testing.T) {
	c := &CumulativeRR{}
	c.Assign(batch(7), allCores(8), nil) // cursor = 7
	j := batch(1)
	c.Assign(j, allCores(4), nil) // cursor wraps into [0,4)
	if j[0].Core < 0 || j[0].Core >= 4 {
		t.Fatalf("core out of range after shrink: %d", j[0].Core)
	}
}

func TestCumulativeRRBalance(t *testing.T) {
	// Over many odd-sized batches C-RR stays balanced while RR skews.
	c := &CumulativeRR{}
	countsCRR := make([]int, 3)
	countsRR := make([]int, 3)
	for round := 0; round < 30; round++ {
		bc := batch(2)
		c.Assign(bc, allCores(3), nil)
		for _, j := range bc {
			countsCRR[j.Core]++
		}
		br := batch(2)
		RoundRobin{}.Assign(br, allCores(3), nil)
		for _, j := range br {
			countsRR[j.Core]++
		}
	}
	if countsCRR[0] != 20 || countsCRR[1] != 20 || countsCRR[2] != 20 {
		t.Fatalf("C-RR imbalance: %v", countsCRR)
	}
	if countsRR[2] != 0 {
		t.Fatalf("plain RR with 2-job batches should starve core 2, got %v", countsRR)
	}
}

func TestLeastLoaded(t *testing.T) {
	jobs := batch(2)
	LeastLoaded{}.Assign(jobs, allCores(3), []float64{500, 10, 300})
	if jobs[0].Core != 1 {
		t.Fatalf("first job should go to the idlest core 1, got %d", jobs[0].Core)
	}
	// After the first assignment core 1 has 10+100=110, still the least.
	if jobs[1].Core != 1 {
		t.Fatalf("second job should still pick core 1 (110 < 300), got %d", jobs[1].Core)
	}
}

func TestLeastLoadedUpdatesDuringBatch(t *testing.T) {
	jobs := batch(3)
	LeastLoaded{}.Assign(jobs, allCores(2), []float64{0, 150})
	// Job demands are 100,101,102: job0→core0 (0), now core0=100;
	// job1→core0 (100<150), now core0=201; job2→core1 (150<201).
	if jobs[0].Core != 0 || jobs[1].Core != 0 || jobs[2].Core != 1 {
		t.Fatalf("cores = %d,%d,%d want 0,0,1", jobs[0].Core, jobs[1].Core, jobs[2].Core)
	}
}

func TestEligibleSubsetRoutesAroundFailedCores(t *testing.T) {
	// Core 1 of 3 is failed: the eligible list is [0, 2] and no policy may
	// ever bind a job to core 1.
	eligible := []int{0, 2}
	for _, a := range []Assigner{RoundRobin{}, &CumulativeRR{}, LeastLoaded{}} {
		jobs := batch(6)
		a.Assign(jobs, eligible, []float64{100, 0, 100})
		for i, j := range jobs {
			if j.Core == 1 {
				t.Fatalf("%s bound job %d to failed core 1", a.Name(), i)
			}
			if j.Core != 0 && j.Core != 2 {
				t.Fatalf("%s bound job %d to core %d outside eligible set", a.Name(), i, j.Core)
			}
		}
	}
}

func TestZeroCoresPanics(t *testing.T) {
	for _, a := range []Assigner{RoundRobin{}, &CumulativeRR{}, LeastLoaded{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: zero cores did not panic", a.Name())
				}
			}()
			a.Assign(batch(1), nil, nil)
		}()
	}
}

func TestNames(t *testing.T) {
	if (RoundRobin{}).Name() != "rr" {
		t.Error("rr name")
	}
	if (&CumulativeRR{}).Name() != "c-rr" {
		t.Error("c-rr name")
	}
	if (LeastLoaded{}).Name() != "least-loaded" {
		t.Error("least-loaded name")
	}
}
