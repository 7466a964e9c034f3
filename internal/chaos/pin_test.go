package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// windowDigest hashes every field of every window, floats by their bits, so
// any change to a generated schedule — one window, one ulp — changes it.
func windowDigest(specs []Spec) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range specs {
		put(math.Float64bits(s.At))
		put(uint64(s.Kind))
		put(math.Float64bits(s.Duration))
		put(math.Float64bits(s.Delay))
		put(math.Float64bits(s.Jitter))
		put(uint64(s.Code))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedSchedulesPinned pins Generate's output bit for bit for the
// two kinds that carry a payload: latency (delay and jitter) and http-error
// (the 503 code).
func TestGeneratedSchedulesPinned(t *testing.T) {
	latency, err := Generate(7, 600, 10, 3, Latency, 0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	httpErr, err := Generate(11, 600, 10, 3, HTTPError, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		specs  []Spec
		n      int
		digest string
	}{
		{"Generate(7, 600, 10, 3, Latency, 0.05, 0.01)", latency.specs, 39,
			"17b70304ec4ca1a9985070c8f1e6db20c1fcc64248c8f0d47ab190646276ca9b"},
		{"Generate(11, 600, 10, 3, HTTPError, 0, 0)", httpErr.specs, 48,
			"4e21d5cf48ba0b4f728af97229b362a1372d0ada160811543a61f517f762b95e"},
	} {
		if got := windowDigest(c.specs); len(c.specs) != c.n || got != c.digest {
			t.Errorf("%s: %d windows, digest %s; want %d windows, digest %s",
				c.name, len(c.specs), got, c.n, c.digest)
		}
	}
}
