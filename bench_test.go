package helixpipe

// This file holds the benchmark harness required by the reproduction: one
// testing.B benchmark per paper table and figure (regenerating its rows),
// plus micro-benchmarks of the core machinery. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks report domain metrics via b.ReportMetric where meaningful
// (headline speedup, simulated tokens/s).

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
)

func benchTable(b *testing.B, fn func() (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty experiment")
		}
	}
}

// BenchmarkTable1 regenerates paper Table 1 (layer FLOPs/memory accounting).
func BenchmarkTable1(b *testing.B) {
	benchTable(b, func() (*bench.Table, error) { return bench.Table1(), nil })
}

// BenchmarkTable2 regenerates paper Table 2 (analytic vs simulated bubbles).
func BenchmarkTable2(b *testing.B) {
	benchTable(b, func() (*bench.Table, error) { return bench.Table2(), nil })
}

// BenchmarkTable3 regenerates paper Table 3 (model configurations).
func BenchmarkTable3(b *testing.B) {
	benchTable(b, func() (*bench.Table, error) { return bench.Table3(), nil })
}

// BenchmarkFigure3 regenerates paper Figure 3 (layer phase breakdown).
func BenchmarkFigure3(b *testing.B) {
	benchTable(b, func() (*bench.Table, error) { return bench.Figure3(), nil })
}

// BenchmarkFigure4 regenerates paper Figure 4 (1F1B activation memory).
func BenchmarkFigure4(b *testing.B) {
	benchTable(b, func() (*bench.Table, error) { return bench.Figure4(), nil })
}

// BenchmarkFigure8 regenerates the six panels of paper Figure 8 (normalized
// throughput across models, clusters, pipeline sizes, sequence lengths) and
// reports the headline 7B/128k/p8/H20 gain over the best baseline.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := bench.Figure8All()
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) != 6 {
			b.Fatalf("want 6 panels, got %d", len(tables))
		}
	}
	s := bench.NewScenario(model.Model7B(), costmodel.H20Cluster(), 131072, 8)
	row, err := s.ThroughputRow()
	if err != nil {
		b.Fatal(err)
	}
	bestBaseline := 0.0
	for _, m := range []sched.Method{sched.Method1F1B, sched.MethodZB1P, sched.MethodAdaPipe} {
		if row[m] > bestBaseline {
			bestBaseline = row[m]
		}
	}
	b.ReportMetric((row[sched.MethodHelix]/bestBaseline-1)*100, "headline-gain-%")
}

// BenchmarkFigure9 regenerates paper Figure 9 (compute vs comm overlap).
func BenchmarkFigure9(b *testing.B) {
	benchTable(b, func() (*bench.Table, error) { return bench.Figure9(), nil })
}

// BenchmarkFigure10 regenerates paper Figure 10 (per-stage peak memory).
func BenchmarkFigure10(b *testing.B) {
	benchTable(b, bench.Figure10)
}

// BenchmarkFigure11 regenerates paper Figure 11 (recomputation ablation).
func BenchmarkFigure11(b *testing.B) {
	benchTable(b, bench.Figure11)
}

// BenchmarkChunkedMLP regenerates the section 4.4.2 fragmentation study.
func BenchmarkChunkedMLP(b *testing.B) {
	benchTable(b, bench.ChunkedMLPTable)
}

// BenchmarkMicroBatchSaturation runs the section 3.1 saturation extension.
func BenchmarkMicroBatchSaturation(b *testing.B) {
	benchTable(b, bench.MicroBatchSaturation)
}

// BenchmarkInterleavedComparison runs the section 6.2 ablation.
func BenchmarkInterleavedComparison(b *testing.B) {
	benchTable(b, bench.InterleavedComparison)
}

// BenchmarkZB1PSensitivity runs the backward-W share sensitivity extension.
func BenchmarkZB1PSensitivity(b *testing.B) {
	benchTable(b, bench.ZB1PSensitivity)
}

// headlineSession builds the paper's headline configuration (7B, 128k, p=8)
// for the micro-benchmarks.
func headlineSession(b *testing.B) *Session {
	b.Helper()
	s, err := NewSession(Model7B(), H20Cluster(), WithSeqLen(131072), WithStages(8))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkBuildHelixPlan measures HelixPipe plan construction at the
// headline scale (p=8, m=16, 32 layers).
func BenchmarkBuildHelixPlan(b *testing.B) {
	s := headlineSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(MethodHelix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateHelix measures one simulated headline iteration and
// reports simulated tokens/s.
func BenchmarkSimulateHelix(b *testing.B) {
	s := headlineSession(b)
	plan, err := s.Plan(MethodHelix)
	if err != nil {
		b.Fatal(err)
	}
	engine := NewSimEngine(SimOptions{})
	var tput float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := engine.Run(plan)
		if err != nil {
			b.Fatal(err)
		}
		tput = report.SimResult().Throughput(s.TokensPerIteration())
	}
	b.ReportMetric(tput, "simulated-tokens/s")
}

// BenchmarkLargeSweep measures a full Session.Sweep — every registered
// method across four sequence lengths and three pipeline sizes (144 cells) —
// and reports cells simulated per second. This is the wall-clock number the
// engine rewrite and cost-book memoization target; the repository
// benchmark's sweep-grid workload (perfbench) times the same cell pipeline
// end to end through Session.Execute.
func BenchmarkLargeSweep(b *testing.B) {
	s, err := NewSession(Model3B(), A800Cluster())
	if err != nil {
		b.Fatal(err)
	}
	sw := Sweep{
		SeqLens: []int{8192, 16384, 32768, 65536},
		Stages:  []int{2, 4, 8},
	}
	cells := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := s.Sweep(sw)
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) == 0 {
			b.Fatal("empty sweep")
		}
		cells = len(reports)
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()*float64(b.N), "cells/s")
}

// BenchmarkZB1PListScheduling measures the cost-driven ZB1P constructor.
func BenchmarkZB1PListScheduling(b *testing.B) {
	s := headlineSession(b)
	costs := s.Costs()
	cfg := ScheduleConfig{Stages: 8, MicroBatches: 16, Layers: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ZB1P(cfg, costs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNumericIteration measures one numeric pipeline iteration of the
// tiny model under HelixPipe (goroutines + channels + real tensors).
func BenchmarkNumericIteration(b *testing.B) {
	cfg := TinyModel()
	m := NewNumericModel(cfg, 1)
	plan, err := BuildHelix(ScheduleConfig{Stages: 2, MicroBatches: 4, Layers: cfg.Layers},
		UnitCosts(0), HelixOptions{Fold: 2, Recompute: true})
	if err != nil {
		b.Fatal(err)
	}
	batches := make([]MicroBatch, 4)
	for i := range batches {
		batches[i] = SyntheticBatch(cfg, 1, 16, uint64(i)+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunNumeric(plan, m, batches); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMul measures the parallel GEMM kernel on a transformer-ish
// shape (tokens x hidden x 4*hidden).
func BenchmarkMatMul(b *testing.B) {
	a := tensor.New(256, 128)
	w := tensor.New(128, 512)
	for i := range a.Data {
		a.Data[i] = float32(i%7) * 0.1
	}
	for i := range w.Data {
		w.Data[i] = float32(i%5) * 0.01
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(a, w)
	}
}

// BenchmarkCausalAttention measures the causal flash-attention-style kernel.
func BenchmarkCausalAttention(b *testing.B) {
	q := tensor.New(2, 64, 64)
	k := tensor.New(2, 64, 64)
	v := tensor.New(2, 64, 64)
	for i := range q.Data {
		q.Data[i] = float32(i%11) * 0.02
		k.Data[i] = float32(i%13) * 0.02
		v.Data[i] = float32(i%17) * 0.02
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.CausalAttentionForward(q, k, v, 4)
	}
}

// BenchmarkReferenceStep measures the single-device reference iteration.
func BenchmarkReferenceStep(b *testing.B) {
	cfg := model.TinyTest()
	m := nn.NewModel(cfg, 3)
	batches := []nn.MicroBatch{nn.SyntheticBatch(cfg, 1, 16, 9)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ReferenceStep(m, batches)
	}
}
