package sched

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/model"
)

func testCfg(p, m, layers int) Config { return Config{Stages: p, MicroBatches: m, Layers: layers} }

func realCosts(t *testing.T) Costs {
	t.Helper()
	w := costmodel.NewWorkload(model.Model7B(), costmodel.H20Cluster(), model.Shape{B: 1, S: 32768})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewCosts(w, model.BatchSpec{}, nil)
}

func TestConfigValidate(t *testing.T) {
	if err := testCfg(4, 8, 16).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Stages: 0, MicroBatches: 1, Layers: 4},
		{Stages: 2, MicroBatches: 0, Layers: 4},
		{Stages: 2, MicroBatches: 2, Layers: 0},
		{Stages: 3, MicroBatches: 2, Layers: 4}, // indivisible
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

// TestGeneratorsProduceValidPlans is the core schedule test: every generator
// under several pipeline shapes must produce a plan that passes the token
// dataflow machine, exact op counting, and stash conservation.
func TestGeneratorsProduceValidPlans(t *testing.T) {
	costs := realCosts(t)
	shapes := []struct{ p, m, layers int }{
		{2, 4, 8},
		{4, 8, 16},
		{8, 16, 32},
		{4, 4, 8},  // m == p
		{2, 8, 2},  // single layer per stage
		{4, 12, 8}, // m not a multiple of 2p
	}
	type gen struct {
		name  string
		build func(Config) (*Plan, error)
	}
	gens := []gen{
		{"GPipe", func(c Config) (*Plan, error) { return GPipe(c, costs) }},
		{"1F1B", func(c Config) (*Plan, error) { return OneFOneB(c, costs) }},
		{"ZB1P", func(c Config) (*Plan, error) { return ZB1P(c, costs) }},
		{"AdaPipe-loose", func(c Config) (*Plan, error) { return AdaPipe(c, costs, 0) }},
		{"AdaPipe-tight", func(c Config) (*Plan, error) {
			full := costs.SegStash[0] + costs.SegStash[1] + costs.SegStash[2]
			budget := int64(c.Stages) * int64(c.Layers/c.Stages) * full / 2
			return AdaPipe(c, costs, budget)
		}},
		{"Interleaved", func(c Config) (*Plan, error) { return Interleaved(c, costs, 2) }},
	}
	for _, g := range gens {
		for _, sh := range shapes {
			cfg := testCfg(sh.p, sh.m, sh.layers)
			if g.name == "Interleaved" && cfg.Layers%(cfg.Stages*2) != 0 {
				continue
			}
			plan, err := g.build(cfg)
			if err != nil {
				t.Errorf("%s %+v: %v", g.name, sh, err)
				continue
			}
			if err := Validate(plan); err != nil {
				t.Errorf("%s %+v: %v", g.name, sh, err)
			}
		}
	}
}

// TestComputeTotalsAgree verifies that schedules performing identical work
// report identical total compute seconds: GPipe == 1F1B == ZB1P (reordering
// changes nothing), while AdaPipe with recomputation is strictly larger.
func TestComputeTotalsAgree(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 8, 16)
	gp, err := GPipe(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	zb, err := ZB1P(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	if d := gp.ComputeSeconds() - ob.ComputeSeconds(); d > 1e-9 || d < -1e-9 {
		t.Errorf("GPipe and 1F1B compute totals differ by %g", d)
	}
	if d := zb.ComputeSeconds() - ob.ComputeSeconds(); d > 1e-9 || d < -1e-9 {
		t.Errorf("ZB1P and 1F1B compute totals differ by %g", d)
	}
	full := costs.SegStash[0] + costs.SegStash[1] + costs.SegStash[2]
	tight := int64(cfg.Stages) * int64(cfg.Layers/cfg.Stages) * full / 2
	ap, err := AdaPipe(cfg, costs, tight)
	if err != nil {
		t.Fatal(err)
	}
	if ap.ComputeSeconds() <= ob.ComputeSeconds() {
		t.Error("AdaPipe under memory pressure must pay recomputation time")
	}
}

// Test1F1BSteadyState verifies the canonical 1F1B structure: after warmup,
// the last stage strictly alternates forward and backward micro batches.
func Test1F1BSteadyState(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 8, 8)
	plan, err := OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	last := plan.Ops[cfg.Stages-1]
	var steps []string
	for _, op := range last {
		switch {
		case op.Kind == KRecv && !op.Tag.Back:
			steps = append(steps, "F") // one forward step begins per input recv
		case op.Kind == KBackwardB && op.Layer == LayerHead:
			steps = append(steps, "B")
		}
	}
	// Stage p-1 has no warmup: F B F B ... F B.
	for i, s := range steps {
		want := "F"
		if i%2 == 1 {
			want = "B"
		}
		if s != want {
			t.Fatalf("last stage step %d = %s, want %s (steps %v)", i, s, want, steps)
		}
	}
	if len(steps) != 2*cfg.MicroBatches {
		t.Fatalf("last stage has %d F/B steps, want %d", len(steps), 2*cfg.MicroBatches)
	}
}

// TestGPipeIsFILO verifies GPipe's first-in-last-out backward order.
func TestGPipeIsFILO(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(2, 4, 4)
	plan, err := GPipe(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	for s, ops := range plan.Ops {
		lastF, firstB := -1, len(ops)
		var fOrder, bOrder []int
		for i, op := range ops {
			if op.Layer < 0 {
				continue
			}
			if op.Kind == KForward {
				if i > lastF {
					lastF = i
				}
				if op.Seg == model.SegPre && op.Layer == plan.Ops[s][1].Layer {
					fOrder = append(fOrder, op.MB)
				}
			}
			if op.Kind == KBackwardB {
				if i < firstB {
					firstB = i
				}
				if op.Seg == model.SegPre {
					bOrder = append(bOrder, op.MB)
				}
			}
		}
		if lastF > firstB {
			t.Errorf("stage %d: forward op at %d after backward op at %d", s, lastF, firstB)
		}
		for i := 1; i < len(bOrder); i++ {
			if bOrder[i] > bOrder[i-1] {
				t.Errorf("stage %d: backward micro batches not in FILO order: %v", s, bOrder)
				break
			}
		}
		_ = fOrder
	}
}

// TestZB1PDefersW verifies the defining ZB1P property: on the first stage,
// at least one weight-gradient op executes after the last backward-B
// (filling the drain bubble), and backward-B ops never wait for W of the
// same micro batch (B and W are decoupled).
func TestZB1PDefersW(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 8, 16)
	plan, err := ZB1P(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	ops := plan.Ops[0]
	lastB, lastW := -1, -1
	for i, op := range ops {
		if op.Kind == KBackwardB && op.Layer >= 0 {
			lastB = i
		}
		if op.Kind == KBackwardW {
			lastW = i
		}
	}
	if lastW < lastB {
		t.Error("ZB1P stage 0 should finish with deferred weight gradients after the last backward-B")
	}
	// Count W ops strictly after the last B: the drain bubble filler.
	deferred := 0
	for i := lastB + 1; i < len(ops); i++ {
		if ops[i].Kind == KBackwardW {
			deferred++
		}
	}
	if deferred == 0 {
		t.Error("ZB1P deferred no weight gradients into the drain phase")
	}
}

// TestZB1PHoldsEmbedGradStash verifies the section 5.4 observation: the last
// stage accumulates fp32 embedding-gradient stashes across micro batches
// because the head backward-W is deferred. The running stash balance at the
// last stage must exceed what 1F1B (immediate W) ever holds.
func TestZB1PHoldsEmbedGradStash(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 8, 16)
	peakOf := func(p *Plan, stage int) int64 {
		var bal, peak int64
		for _, op := range p.Ops[stage] {
			bal += op.Alloc - op.Free
			if bal > peak {
				peak = bal
			}
		}
		return peak
	}
	zb, err := ZB1P(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	last := cfg.Stages - 1
	if peakOf(zb, last) <= peakOf(ob, last) {
		t.Errorf("ZB1P last-stage stash peak (%d) should exceed 1F1B (%d)",
			peakOf(zb, last), peakOf(ob, last))
	}
}

// TestAdaPipeAdaptsToBudget verifies the two AdaPipe behaviours: with a
// loose budget it reduces to an even, recompute-free 1F1B; with a tight
// budget it recomputes on the early (memory-pressured) stages.
func TestAdaPipeAdaptsToBudget(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 8, 16)
	loose, err := AdaPipe(cfg, costs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range loose.Ops {
		for _, op := range ops {
			if op.Kind == KRecompute {
				t.Fatal("AdaPipe with unlimited memory should not recompute")
			}
		}
	}
	full := costs.SegStash[0] + costs.SegStash[1] + costs.SegStash[2]
	// Budget fits stage 0's 1F1B residency only if half the layers recompute.
	budget := int64(cfg.Stages) * int64(cfg.Layers/cfg.Stages) * full / 2
	tight, err := AdaPipe(cfg, costs, budget)
	if err != nil {
		t.Fatal(err)
	}
	recomputes := 0
	for _, op := range tight.Ops[0] {
		if op.Kind == KRecompute {
			recomputes++
		}
	}
	if recomputes == 0 {
		t.Error("AdaPipe under memory pressure should recompute on stage 0")
	}
	if err := Validate(tight); err != nil {
		t.Fatal(err)
	}
}

// TestAdaPipeInfeasible verifies the error path when no partition fits.
func TestAdaPipeInfeasible(t *testing.T) {
	costs := realCosts(t)
	if _, err := AdaPipe(testCfg(4, 8, 16), costs, 1); err == nil {
		t.Error("1-byte budget must be infeasible")
	}
}

// TestBuildDispatch exercises the registry-driven method dispatcher.
func TestBuildDispatch(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 8, 16)
	for _, m := range []Method{MethodGPipe, Method1F1B, MethodZB1P, MethodAdaPipe, MethodInterleaved} {
		plan, err := Build(m, cfg, costs, BuildParams{})
		if err != nil {
			t.Errorf("Build(%s): %v", m, err)
			continue
		}
		if plan.Method != m {
			t.Errorf("Build(%s) produced method %s", m, plan.Method)
		}
	}
	// Helix methods are registered by internal/core, which this package
	// does not (and must not) import: unlinked methods are unknown here.
	if _, err := Build(MethodHelix, cfg, costs, BuildParams{}); err == nil {
		t.Error("helix methods must not be buildable without internal/core linked")
	}
	// Lookup is case-insensitive.
	if _, ok := Lookup("zb1p"); !ok {
		t.Error("Lookup must resolve method names case-insensitively")
	}
	if _, ok := Lookup("no-such-method"); ok {
		t.Error("Lookup must reject unknown names")
	}
}

// TestUnitCosts checks the didactic 1:3:2 cost book used by the figure
// experiments.
func TestUnitCosts(t *testing.T) {
	c := UnitCosts(0)
	if c.Seg[model.SegPre][model.Forward] != 1 ||
		c.Seg[model.SegAttn][model.Forward] != 3 ||
		c.Seg[model.SegPost][model.Forward] != 2 {
		t.Error("UnitCosts must encode the paper's 1:3:2 ratio")
	}
	for _, seg := range model.Segments {
		f := c.Seg[seg][model.Forward]
		bw := c.Seg[seg][model.BackwardB] + c.Seg[seg][model.BackwardW]
		if diff := bw - f; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("segment %v: backward time %g != forward %g (figures draw them equal)", seg, bw, f)
		}
	}
	if c.SegStashBFree[model.SegAttn] != c.SegStash[model.SegAttn] {
		t.Error("attention stash must be fully released by backward-B")
	}
}

// TestValidatorCatchesCorruption corrupts a valid plan in several ways and
// expects the validator to object to each.
func TestValidatorCatchesCorruption(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(2, 4, 4)
	fresh := func() *Plan {
		p, err := OneFOneB(cfg, costs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := fresh()
	if err := Validate(base); err != nil {
		t.Fatal(err)
	}

	// Drop a compute op: count violation.
	p := fresh()
	for i, op := range p.Ops[0] {
		if op.Kind == KBackwardB && op.Layer >= 0 {
			p.Ops[0] = append(p.Ops[0][:i], p.Ops[0][i+1:]...)
			break
		}
	}
	if err := Validate(p); err == nil {
		t.Error("validator missed a dropped backward op")
	}

	// Swap a recv before... rather: remove a send: deadlock.
	p = fresh()
	for i, op := range p.Ops[0] {
		if op.Kind == KSend {
			p.Ops[0] = append(p.Ops[0][:i], p.Ops[0][i+1:]...)
			break
		}
	}
	if err := Validate(p); err == nil {
		t.Error("validator missed a dropped send")
	}

	// Reorder forward before its input recv on stage 1: missing token.
	p = fresh()
	ops := p.Ops[1]
	if ops[0].Kind == KRecv && ops[1].Kind == KForward {
		ops[0], ops[1] = ops[1], ops[0]
	}
	if err := Validate(p); err == nil {
		t.Error("validator missed compute before its input recv")
	}

	// Leak stash bytes.
	p = fresh()
	for i := range p.Ops[0] {
		if p.Ops[0][i].Kind == KForward && p.Ops[0][i].Alloc > 0 {
			p.Ops[0][i].Alloc += 1024
			break
		}
	}
	if err := Validate(p); err == nil {
		t.Error("validator missed a stash leak")
	}
}

// TestPlanAccessors covers the small accessor helpers.
func TestPlanAccessors(t *testing.T) {
	costs := realCosts(t)
	plan, err := OneFOneB(testCfg(2, 2, 4), costs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumOps() <= 0 {
		t.Error("NumOps must be positive")
	}
	sum := plan.StageComputeSeconds(0) + plan.StageComputeSeconds(1)
	if d := sum - plan.ComputeSeconds(); d > 1e-12 || d < -1e-12 {
		t.Error("stage compute seconds must sum to plan total")
	}
	if BoundAct.String() == "" || KForward.String() == "" || KSend.String() == "" {
		t.Error("stringers must not be empty")
	}
	if len(Methods()) < 6 {
		t.Error("Methods() should list all implemented schedules")
	}
}

// TestUnreceivedSendErrorDeterministic pins the "never received" error of a
// plan with two unreceived messages: it must name the earliest such send in
// (stage, program order) on every call, not whichever message a map
// iteration happens to reach first.
func TestUnreceivedSendErrorDeterministic(t *testing.T) {
	plan, err := OneFOneB(testCfg(2, 2, 2), UnitCosts(0))
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 holds both micro batches' layer-1 activations by the end of
	// its program, so it may send them again; stage 1 never receives them.
	plan.Ops[0] = append(plan.Ops[0],
		Op{Kind: KSend, MB: 1, Peer: 1, Tag: Tag{MB: 1, Layer: 1, Bound: BoundAct}},
		Op{Kind: KSend, MB: 0, Peer: 1, Tag: Tag{MB: 0, Layer: 1, Bound: BoundAct}})
	const want = "sched: message act/l1/mb1/f from 0 to 1 sent 1 times but never received"
	for i := 0; i < 20; i++ {
		if err := Validate(plan); err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %q", i, err, want)
		}
	}
}
