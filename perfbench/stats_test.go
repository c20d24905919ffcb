package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestTailAtRefusesThinTails(t *testing.T) {
	xs := make([]float64, 999)
	if _, err := tailAt(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got, err := tailAt(xs, 0.99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
}

func TestQuantileCountsFailuresAsMisses(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 2; i++ {
		xs[i] = math.Inf(1) // failed operations
	}
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if got := quantile(xs, 0.5); got != 1 {
		t.Fatalf("median = %v, want 1", got)
	}
}

func TestWindowedIgnoresOneDisturbedWindow(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 100; i++ {
		xs[i] = 50 // one bad window of five
	}
	if got := windowed(xs, 5, 0.5); got != 1 {
		t.Fatalf("windowed median = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "slot", Start: 0, End: 100, Parent: -1},
		{Name: "core.round", Start: 0, End: 30, Parent: 0},
		{Name: "plan.encode", Start: 40, End: 100, Parent: 0},
	}
	self := selfTimes(spans)
	if self[0] != 10 || self[1] != 30 || self[2] != 60 {
		t.Fatalf("self times %v, want [10 30 60]", self)
	}
	if got := namedShare(spans, "slot"); got != 0.9 {
		t.Fatalf("named share %v, want 0.9", got)
	}
	rows := layerTable(spans)
	if rows[0].layer != "plan" || rows[1].layer != "core" || rows[2].layer != "slot" {
		t.Fatalf("layer order %+v", rows)
	}
}
