package faults

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// streamDigest hashes every field of every event — time, kind, target and
// payload — floats by their bits, so any change to a generated stream (one
// event, one ulp) changes it.
func streamDigest(events []Event) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, e := range events {
		put(math.Float64bits(e.At))
		put(uint64(e.Kind))
		put(uint64(e.Target))
		put(math.Float64bits(e.Value))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedStreamsPinned pins the generators' output bit for bit: the
// per-core stream behind gesim -fault-mtbf, and the machine stream of the
// fleet-chaos benchmark tuple (1000 machines, a 2 s horizon, MTBF 60 s,
// MTTR 5 s) at its two seeds.
func TestGeneratedStreamsPinned(t *testing.T) {
	core, err := Generate(2017, 16, 600, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	fleet1, err := GenerateCluster(1, 1000, 2, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	fleet1009, err := GenerateCluster(1009, 1000, 2, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		events []Event
		n      int
		digest string
	}{
		{"Generate(2017, 16, 600, 100, 10)", core.Events(), 168,
			"2be463938fd1089b4deaaffbce19704e08ae15ed7185fec5e5654ad4a80a363e"},
		{"GenerateCluster(1, 1000, 2, 60, 5)", fleet1.Events(), 68,
			"b6aaa77fad9b3999de91ac1a6beb1b1e8d36e17735b953a9f5e26db9f3fe0717"},
		{"GenerateCluster(1009, 1000, 2, 60, 5)", fleet1009.Events(), 76,
			"1fbcf019016127c20c62031f2a2357831c384ca920781b9b94f7c56cb888eec8"},
	} {
		if got := streamDigest(c.events); len(c.events) != c.n || got != c.digest {
			t.Errorf("%s: %d events, digest %s; want %d events, digest %s",
				c.name, len(c.events), got, c.n, c.digest)
		}
	}
}
