package main

import (
	"strings"
	"testing"

	"goodenough/internal/chaos"
)

// TestParseSpecs checks that -spec decodes a schedule, and that a
// misspelled key is an error naming the key rather than a silently dropped
// field (a "duraton" would make the window permanent).
func TestParseSpecs(t *testing.T) {
	specs, err := parseSpecs(`[{"at":2,"kind":"latency","duration":5,"delay":0.2},{"at":8,"kind":"http-error","duration":1,"code":503}]`)
	if err != nil {
		t.Fatal(err)
	}
	want := []chaos.Spec{
		{At: 2, Kind: chaos.Latency, Duration: 5, Delay: 0.2},
		{At: 8, Kind: chaos.HTTPError, Duration: 1, Code: 503},
	}
	if len(specs) != len(want) || specs[0] != want[0] || specs[1] != want[1] {
		t.Fatalf("parseSpecs = %+v, want %+v", specs, want)
	}
	if _, err := parseSpecs(`[{"at":2,"kind":"blackhole","duraton":5}]`); err == nil || !strings.Contains(err.Error(), `"duraton"`) {
		t.Fatalf("misspelled key: error %v, want one naming \"duraton\"", err)
	}
	if _, err := parseSpecs(`[{"at":2,"kind":"blackhole","duration":5}] x`); err == nil {
		t.Fatal("trailing data accepted")
	}
}
