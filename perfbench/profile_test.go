package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// protobuf encoding helpers for building a profile by hand.

func pbVarint(x uint64) []byte {
	var b []byte
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func pbUint(field int, v uint64) []byte {
	return append(pbVarint(uint64(field)<<3), pbVarint(v)...)
}

func pbBytes(field int, data []byte) []byte {
	b := append(pbVarint(uint64(field)<<3|2), pbVarint(uint64(len(data)))...)
	return append(b, data...)
}

func pbPacked(field int, xs ...uint64) []byte {
	var data []byte
	for _, x := range xs {
		data = append(data, pbVarint(x)...)
	}
	return pbBytes(field, data)
}

// buildProfile encodes a gzipped profile.proto. Each location is a list of
// function names, innermost (inlined) first; each sample is a count and
// location indexes, leaf first.
func buildProfile(t *testing.T, locs [][]string, samples []struct {
	count int
	locs  []int
}) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	funcID := map[string]uint64{}
	var msg []byte
	msg = append(msg, pbBytes(1, append(pbUint(1, 1), pbUint(2, 2)...))...)
	msg = append(msg, pbBytes(1, append(pbUint(1, 3), pbUint(2, 4)...))...)
	for _, s := range samples {
		ids := make([]uint64, len(s.locs))
		for i, l := range s.locs {
			ids[i] = uint64(l + 1)
		}
		body := append(pbPacked(1, ids...), pbPacked(2, uint64(s.count), uint64(s.count)*2e6)...)
		msg = append(msg, pbBytes(2, body)...)
	}
	var funcs []byte
	for i, names := range locs {
		body := pbUint(1, uint64(i+1))
		for _, name := range names {
			id, ok := funcID[name]
			if !ok {
				id = uint64(len(funcID) + 1)
				funcID[name] = id
				strs = append(strs, name)
				funcs = append(funcs, pbBytes(5, append(pbUint(1, id), pbUint(2, uint64(len(strs)-1))...))...)
			}
			body = append(body, pbBytes(4, pbUint(1, id))...)
		}
		msg = append(msg, pbBytes(4, body)...)
	}
	msg = append(msg, funcs...)
	for _, s := range strs {
		msg = append(msg, pbBytes(6, []byte(s))...)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldProfile(t *testing.T) {
	locs := [][]string{
		{"goodenough/internal/qopt.Solve"},             // 0
		{"goodenough/internal/core.(*GE).Schedule"},    // 1
		{"goodenough/internal/sched.(*Runner).invoke"}, // 2
		{"runtime.mallocgc"},                           // 3
		{"goodenough/internal/job.New"},                // 4
		{"runtime.scanobject"},                         // 5
		{"runtime.gcDrain"},                            // 6
		{"runtime.gcBgMarkWorker"},                     // 7
		{"syscall.Syscall"},                            // 8
		{"internal/poll.(*FD).Read"},                   // 9
		{"net/http.(*persistConn).readLoop"},           // 10
		{"goodenough/internal/cut.level[...]", "goodenough/internal/core.(*GE).Schedule"}, // 11: inlined
		{"goodenough/internal/server.(*Journal).append"},                                  // 12
		{"goodenough/internal/server.(*Server).execute"},                                  // 13
		{"main.(*traceSink).Observe"},                                                     // 14
		{"runtime.futex"},                                                                 // 15
		{"runtime.schedule"},                                                              // 16
	}
	samples := []struct {
		count int
		locs  []int
	}{
		{12, []int{0, 1, 2}}, // qopt under (*GE).Schedule
		{2, []int{3, 4, 2}},  // allocation: counts toward job, the nearest repo caller
		{1, []int{5, 6, 7}},  // GC worker: runtime, and GC
		{1, []int{8, 9, 10}}, // no repo frame, not only runtime: net
		{1, []int{11, 2}},    // inlined cut frame inside (*GE).Schedule
		{1, []int{12, 13}},   // journal append
		{1, []int{14, 2}},    // the benchmark's own sink
		{1, []int{15, 16}},   // idle scheduler: runtime, not GC
	}
	got, err := parseProfile(buildProfile(t, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) || len(got[4].frames) != 3 || got[4].frames[0] != "goodenough/internal/cut.level[...]" {
		t.Fatalf("parsed samples = %+v", got)
	}
	want := map[string]float64{
		"qopt.self_frac":      0.60,
		"job.self_frac":       0.10,
		"runtime.self_frac":   0.10,
		"net.self_frac":       0.05,
		"cut.self_frac":       0.05,
		"server.self_frac":    0.05,
		"bench.self_frac":     0.05,
		"core.cum_frac":       0.65,
		"server.journal_frac": 0.05,
		"runtime.gc_frac":     0.05,
	}
	shares := foldProfile(got)
	for k, v := range want {
		if math.Abs(shares[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, shares[k], v)
		}
	}
	for k, v := range shares {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected share %s = %v", k, v)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"goodenough.Run": "goodenough",
		"goodenough/internal/sched.(*Runner).handle.func1":       "goodenough/internal/sched",
		"goodenough/internal/cut.F[goodenough/internal/job.Job]": "goodenough/internal/cut",
		"net/http.(*conn).serve":                                 "net/http",
		"main.main":                                              "main",
		"runtime.gcBgMarkWorker":                                 "runtime",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
