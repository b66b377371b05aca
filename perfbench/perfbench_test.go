package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"scanshare"
)

func tinyRun(t *testing.T, workload string, seed int64, trace, corrupt bool) *result {
	t.Helper()
	res, err := run(runConfig{
		workload:   workload,
		seed:       seed,
		seconds:    0.3,
		trace:      trace,
		tiny:       true,
		spansPath:  filepath.Join(t.TempDir(), "spans.jsonl.gz"),
		corruptRef: corrupt,
	})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	return res
}

// A tiny run of every workload, on two seeds, is correct and emits every
// declared metric with its unit: the end-to-end ones untraced, the
// per-layer ones traced.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				res := tinyRun(t, w.Name, seed, false, false)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("seed %d: correct %v, %d of %d failed", seed, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(endToEnd) {
					t.Errorf("seed %d: %d end-to-end metrics, want %d", seed, len(res.Metrics), len(endToEnd))
				}
				for _, m := range endToEnd {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
						t.Errorf("seed %d: %s = %+v (present %v), want a positive value in %s", seed, m.Name, got, ok, m.Unit)
					}
				}
			}
			res := tinyRun(t, w.Name, 1, true, false)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced: %d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("traced: %s = %+v (present %v), want a finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if d := res.Metrics["trace.dropped"].Value; d != 0 {
				t.Errorf("traced run dropped %v events", d)
			}
		})
	}
}

// A corrupted oracle reference must fail the run, on every workload.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := tinyRun(t, w.Name, 1, false, true)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted reference: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

// Inputs derive from the seed alone.
func TestSeededInputs(t *testing.T) {
	rows := func(seed int64) []byte {
		var ts []scanshare.Tuple
		if err := lineitemGen(500, seed, func(t scanshare.Tuple) error {
			ts = append(ts, t)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return scanshare.EncodeAggRows(ts)
	}
	if !bytes.Equal(rows(3), rows(3)) {
		t.Error("lineitem rows differ for one seed")
	}
	if bytes.Equal(rows(3), rows(4)) {
		t.Error("lineitem rows equal for two seeds")
	}
	if a, b := statements(16, 3), statements(16, 3); a[5] != b[5] {
		t.Error("statement pools differ for one seed")
	}
	if a, b := statements(16, 3), statements(16, 4); a[5] == b[5] {
		t.Error("statement pools equal for two seeds")
	}
}

// BENCHMARK.json and workloads.json are what manifest.go declares; run
// `go run . -manifest` from this directory after changing it.
func TestManifestsUpToDate(t *testing.T) {
	bench, shapes, err := manifests()
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{"../BENCHMARK.json": bench, "workloads.json": shapes} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale; regenerate it with go run . -manifest", path)
		}
	}
}
