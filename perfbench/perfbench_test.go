package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// endToEndNames are the metrics every end-to-end run prints.
var endToEndNames = []string{
	"setup_s", "cells_per_s", "cpu_ms_per_cell", "alloc_bytes_per_cell", "allocs_per_cell", "peak_rss_mb",
}

func prepareTiny(t *testing.T, w workload) inputs {
	t.Helper()
	in, err := w.prepare(defaultSeed, sizeTiny)
	if err != nil {
		t.Fatalf("%s: prepare: %v", w.name, err)
	}
	return in
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := prepareTiny(t, w)
			res, err := endToEnd(w, in, defaultSeed, 50*time.Millisecond, sizeTiny)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("end-to-end: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, endToEndNames)

			path := filepath.Join(t.TempDir(), "trace.json")
			res, err = traced(w, in, defaultSeed, 150*time.Millisecond, path, sizeTiny)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			names := make([]string, len(perLayer))
			for i, m := range perLayer {
				names[i] = m.name
			}
			checkMetrics(t, res, names)
			if s := res.Metrics["host.speed"].Value; !(s > 0) {
				t.Errorf("host.speed = %g, want > 0", s)
			}
		})
	}
}

func checkMetrics(t *testing.T, res result, names []string) {
	t.Helper()
	if len(res.Metrics) != len(names) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(names))
	}
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok {
			t.Errorf("metric %s missing", n)
			continue
		}
		if m.Unit == "" {
			t.Errorf("metric %s has no unit", n)
		}
	}
}

func TestSelfTimesWithinCellTime(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := prepareTiny(t, w)
			rec := newRecorder(false)
			if _, err := in.traced(rec); err != nil {
				t.Fatal(err)
			}
			cellTotal := 0.0
			for _, d := range rec.durations("cell") {
				cellTotal += d
			}
			if cellTotal == 0 {
				t.Fatal("no traced cells")
			}
			layers := 0.0
			for name, self := range rec.selfTimes() {
				if self < 0 {
					t.Errorf("layer %s self time %g < 0", name, self)
				}
				if name != "cell" {
					layers += self
				}
			}
			if layers > cellTotal {
				t.Errorf("layer self times sum to %gs, more than the %gs of traced cell time", layers, cellTotal)
			}
		})
	}
}

func TestPinnedDigestMismatchFailsEveryCell(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := prepareTiny(t, w)
			want, ok := pinnedTiny[w.name]
			if !ok {
				t.Fatalf("no pinned tiny digest for %s", w.name)
			}
			pinnedTiny[w.name] = "0" + want[1:]
			defer func() { pinnedTiny[w.name] = want }()
			res, err := endToEnd(w, in, defaultSeed, 10*time.Millisecond, sizeTiny)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed != res.Attempted {
				t.Errorf("perturbed pin: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func TestSamplesAreSpreadAndBounded(t *testing.T) {
	if got := sampleIndexes(3, 6); len(got) != 3 {
		t.Errorf("sampleIndexes(3, 6) = %v", got)
	}
	got := sampleIndexes(100, 4)
	want := []int{0, 25, 50, 75}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sampleIndexes(100, 4) = %v, want %v", got, want)
		}
	}
	if pct, _ := tail(make([]float64, 10)); pct != 0 {
		t.Errorf("tail of 10 samples = p%g, want none", pct)
	}
	if pct, _ := tail(make([]float64, 1000)); pct != 99 {
		t.Errorf("tail of 1000 samples = p%g, want p99", pct)
	}
}

// TestBenchmarkJSONMatchesProgram keeps the repository's BENCHMARK.json and
// the metrics this program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not a perfbench workload", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndNames) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, perfbench prints %d", len(doc.EndToEnd), len(endToEndNames))
	}
	for _, m := range doc.EndToEnd {
		found := false
		for _, n := range endToEndNames {
			found = found || n == m.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json end-to-end metric %s is not printed", m.Name)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench prints %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], perfbench prints %s [%s]",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
