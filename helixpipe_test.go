package helixpipe

import (
	"strings"
	"testing"
)

// TestPublicAPISimulation exercises the simulation surface end to end.
func TestPublicAPISimulation(t *testing.T) {
	s, err := NewSession(Model3B(), H20Cluster(),
		WithSeqLen(65536), WithStages(4), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{Method1F1B, MethodHelix} {
		plan, err := s.Plan(m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if err := ValidatePlan(plan); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		report, err := s.Simulate(m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if report.Sim.IterationSeconds <= 0 {
			t.Errorf("%s: non-positive iteration", m)
		}
		if out := report.TimelineASCII(100); !strings.Contains(out, "P0") {
			t.Errorf("%s: timeline broken", m)
		}
		if out := report.TimelineSVG(800); !strings.Contains(out, "<svg") {
			t.Errorf("%s: SVG broken", m)
		}
	}
}

// TestPublicAPIHelixWins checks the headline through the public API only.
func TestPublicAPIHelixWins(t *testing.T) {
	s, err := NewSession(Model7B(), H20Cluster(), WithSeqLen(131072), WithStages(8))
	if err != nil {
		t.Fatal(err)
	}
	tput := map[Method]float64{}
	for _, m := range []Method{Method1F1B, MethodHelix} {
		report, err := s.Simulate(m)
		if err != nil {
			t.Fatal(err)
		}
		tput[m] = report.Sim.TokensPerSecond
	}
	if tput[MethodHelix] <= tput[Method1F1B] {
		t.Errorf("HelixPipe (%f) should beat 1F1B (%f) at 128k", tput[MethodHelix], tput[Method1F1B])
	}
}

// TestPublicAPINumeric exercises the numeric training surface.
func TestPublicAPINumeric(t *testing.T) {
	report, err := Train(TrainConfig{
		Model: TinyModel(), Method: MethodHelix,
		Stages: 2, MicroBatches: 4, Batch: 1, SeqLen: 8,
		Steps: 2, LR: 1e-3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Losses) != 2 {
		t.Fatalf("want 2 losses, got %d", len(report.Losses))
	}
	for _, l := range report.Losses {
		if l <= 0 {
			t.Error("loss must be positive at init scale")
		}
	}
	if _, err := Train(TrainConfig{}); err == nil {
		t.Error("empty train config must error")
	}
}

// TestPublicAPIParityHelpers checks GradDiff and ReferenceStep wiring.
func TestPublicAPIParityHelpers(t *testing.T) {
	cfg := TinyModel()
	m1 := NewNumericModel(cfg, 3)
	m2 := NewNumericModel(cfg, 3)
	batches := []MicroBatch{SyntheticBatch(cfg, 1, 8, 1), SyntheticBatch(cfg, 1, 8, 2)}
	plan, err := BuildHelix(ScheduleConfig{Stages: 2, MicroBatches: 2, Layers: cfg.Layers},
		UnitCosts(0), HelixOptions{Fold: 1, Recompute: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunNumeric(plan, m1, batches)
	if err != nil {
		t.Fatal(err)
	}
	refLoss, refGrads := ReferenceStep(m2, batches)
	if res.Loss != refLoss {
		t.Errorf("loss mismatch: %v vs %v", res.Loss, refLoss)
	}
	if d := GradDiff(res.Grads, refGrads); d != 0 {
		t.Errorf("gradients differ by %g", d)
	}
}

// TestPublicAPIMisc covers the small helpers.
func TestPublicAPIMisc(t *testing.T) {
	if len(Methods()) < 6 {
		t.Error("Methods() incomplete")
	}
	if AttnStage(0, 3, 4) != 0 {
		t.Error("AttnStage mapping wrong")
	}
	for _, mc := range []ModelConfig{Model1B3(), Model3B(), Model7B(), Model13B(), TinyModel()} {
		if err := mc.Validate(); err != nil {
			t.Error(err)
		}
	}
	if H20Cluster().Validate() != nil || A800Cluster().Validate() != nil {
		t.Error("cluster presets invalid")
	}
	s, err := NewSession(Model3B(), A800Cluster(), WithSeqLen(32768), WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Costs().LayerDur(0) <= 0 {
		t.Error("cost book broken")
	}
}
