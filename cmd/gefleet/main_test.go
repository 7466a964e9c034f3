package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"goodenough"
)

// TestParseChaosFile checks that -chaos @file decodes the committed fleet
// scenario into the specs the fixture loader of the fleet tests builds
// (json.Unmarshal of the same file into []MachineFaultSpec), field by
// field, and that the inline form decodes the same.
func TestParseChaosFile(t *testing.T) {
	const path = "../../testdata/fleet_chaos.json"
	got, err := parseChaos("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	want := []goodenough.MachineFaultSpec{
		{AtSec: 3, Kind: "crash", Machine: 1, DurationSec: 6},
		{AtSec: 5, Kind: "crash", Machine: 4, DurationSec: 8},
		{AtSec: 8, Kind: "partition", Machine: 7, DurationSec: 10},
		{AtSec: 10, Kind: "slow", Machine: 2, DurationSec: 12, Factor: 0.5},
		{AtSec: 14, Kind: "crash", Machine: 9, DurationSec: 5},
		{AtSec: 20, Kind: "crash", Machine: 1, DurationSec: 4},
		{AtSec: 21, Kind: "slow", Machine: 6, DurationSec: 7, Factor: 0.6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("-chaos @%s:\n got %+v\nwant %+v", path, got, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fixture []goodenough.MachineFaultSpec
	if err := json.Unmarshal(raw, &fixture); err != nil {
		t.Fatal(err)
	}
	inline, err := parseChaos(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fixture, want) || !reflect.DeepEqual(inline, want) {
		t.Fatalf("fixture decoding %+v and inline -chaos %+v differ from %+v", fixture, inline, want)
	}
	if _, err := parseChaos(`[{"at": "soon"}]`); err == nil {
		t.Fatal("malformed -chaos accepted")
	}
}

// TestParseChaosRejectsUnknownKey: a misspelled key is an error naming the
// key, not a silently dropped field ("duraton" would make machine 1's crash
// last to the end of the run), and so is trailing data.
func TestParseChaosRejectsUnknownKey(t *testing.T) {
	_, err := parseChaos(`[{"at":2,"kind":"crash","machine":1,"duraton":3}]`)
	if err == nil || !strings.Contains(err.Error(), `"duraton"`) {
		t.Fatalf("misspelled key: error %v, want one naming \"duraton\"", err)
	}
	if _, err := parseChaos(`[{"at":2,"kind":"crash","machine":1,"duration":3}] x`); err == nil {
		t.Fatal("trailing data accepted")
	}
}
