package main

import (
	"strings"
	"testing"

	"goodenough/internal/chaos"
)

// TestParseSpecs checks that -spec decodes a schedule with ParseKind's
// kind names, aliases included, and that a misspelled key is an error
// naming the key rather than a silently dropped field (a "duraton" would
// make the window permanent).
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

	aliases, err := parseSpecs(`[{"at":1,"kind":"stall"},{"at":3,"kind":"5xx"}]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(aliases) != 2 || aliases[0].Kind != chaos.Blackhole || aliases[1].Kind != chaos.HTTPError {
		t.Fatalf("aliases stall and 5xx decoded as %+v, want blackhole and http-error", aliases)
	}
	if _, err := parseSpecs(`[{"at":1,"kind":"brownout"}]`); err == nil || !strings.Contains(err.Error(), `"brownout"`) {
		t.Fatalf("unknown kind: error %v, want one naming \"brownout\"", err)
	}
	if specs, err := parseSpecs(`[{"at":1,"kind":1}]`); err == nil {
		t.Fatalf("numeric kind accepted as %+v", specs)
	}
}
