package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteResultsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_5.json")
	in := []benchResult{
		{Name: "Schedule/workers=1", NsPerOp: 3.9e6, BytesPerOp: 1754278, AllocsPerOp: 1942},
		{Name: "JaccardBitset", NsPerOp: 60.5, BytesPerOp: 0, AllocsPerOp: 0},
	}
	if err := writeResults(path, in); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []benchResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(out) != len(in) || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

// TestRunSuite executes a trivial benchmark through the harness and
// checks the artifact line it produces.
func TestRunSuite(t *testing.T) {
	results := runSuite([]namedBench{{name: "Noop", fn: func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
	}}})
	if len(results) != 1 || results[0].Name != "Noop" || results[0].NsPerOp < 0 {
		t.Fatalf("runSuite = %+v", results)
	}
}

// TestRunQuickSuite executes the full quick suite end to end through
// the harness — every benchmark body runs at least once and produces a
// sane artifact line.
func TestRunQuickSuite(t *testing.T) {
	benches, err := benchmarks(true)
	if err != nil {
		t.Fatal(err)
	}
	results := runSuite(benches)
	if len(results) != len(benches) {
		t.Fatalf("%d results for %d benches", len(results), len(benches))
	}
	for _, res := range results {
		if res.NsPerOp <= 0 {
			t.Errorf("%s reported %v ns/op", res.Name, res.NsPerOp)
		}
	}
}

// TestServeReplayQuick runs the open-loop serving-tier replay at its
// smoke scale end to end: every instance count completes, accepts the
// whole stream, and reports positive throughput.
func TestServeReplayQuick(t *testing.T) {
	results, err := serveReplayBenches(true)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"ServeReplay/instances=1",
		"ServeReplay/instances=2",
		"ServeReplay/instances=4",
		"ServeReplay/instances=8",
	}
	if len(results) != len(want) {
		t.Fatalf("%d replay results, want %d", len(results), len(want))
	}
	for i, res := range results {
		if res.Name != want[i] {
			t.Errorf("result %d = %q, want %q", i, res.Name, want[i])
		}
		if res.Requests == 0 || res.ReqPerSec <= 0 || res.NsPerOp <= 0 {
			t.Errorf("%s: empty or non-positive line %+v", res.Name, res)
		}
		if res.Requests != results[0].Requests {
			t.Errorf("%s replayed %d requests, instances=1 replayed %d — stream must be shared",
				res.Name, res.Requests, results[0].Requests)
		}
	}
}

// TestBenchmarkSuiteShape checks the quick suite assembles the headline
// benchmarks without running them (a full run is CI's job).
func TestBenchmarkSuiteShape(t *testing.T) {
	benches, err := benchmarks(true)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"Schedule/workers=1",
		"Schedule/workers=4",
		"Schedule/workers=8",
		"ScheduleSharded",
		"JaccardSet",
		"JaccardBitset",
		"MCMFSolveReuse",
		"ServerIngest",
		"ServerIngestParallel",
		"ServerLookup",
		"WALAppend/policy=always",
		"WALAppend/policy=interval",
		"WALAppend/policy=none",
		"WALRecoveryReplay",
	}
	if len(benches) != len(want) {
		t.Fatalf("suite has %d benchmarks, want %d", len(benches), len(want))
	}
	for i, nb := range benches {
		if nb.name != want[i] {
			t.Errorf("bench %d = %q, want %q", i, nb.name, want[i])
		}
		if nb.fn == nil {
			t.Errorf("bench %q has nil body", nb.name)
		}
	}
}
