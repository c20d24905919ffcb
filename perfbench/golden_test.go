package main

import (
	"encoding/json"
	"testing"
)

func TestCorruptedGoldenDigestFails(t *testing.T) {
	var g schedGolden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Digests) != evalWorlds*evalSlots {
		t.Fatalf("golden has %d digests, want %d", len(g.Digests), evalWorlds*evalSlots)
	}
	if err := compareGolden(g, g); err != nil {
		t.Fatalf("golden against itself: %v", err)
	}
	bad := g
	bad.Digests = append([]string(nil), g.Digests...)
	bad.Digests[2] = "0000000000000000"
	if err := compareGolden(bad, g); err == nil {
		t.Fatal("corrupted digest accepted")
	}
	bad = g
	bad.AccessKm += 1e-12
	if err := compareGolden(bad, g); err == nil {
		t.Fatal("changed access distance accepted")
	}
}
