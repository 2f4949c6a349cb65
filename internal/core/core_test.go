package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
)

func testCosts(t *testing.T) sched.Costs {
	t.Helper()
	w := costmodel.NewWorkload(model.Model7B(), costmodel.H20Cluster(), model.Shape{B: 1, S: 32768})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return sched.NewCosts(w)
}

func TestPlacement(t *testing.T) {
	const p = 4
	// Section 4.2 example facts.
	if PreOwner(0, p) != 0 {
		t.Error("pre-attention of layer 0 must live on stage 0")
	}
	for l := 0; l < 16; l++ {
		if PreOwner(l, p) != l%p {
			t.Errorf("PreOwner(%d) = %d", l, PreOwner(l, p))
		}
		if PostOwner(l, p) != (l+1)%p {
			t.Errorf("PostOwner(%d) = %d", l, PostOwner(l, p))
		}
		for mb := 0; mb < 8; mb++ {
			if AttnStage(l, mb, p) != (l+mb+1)%p {
				t.Errorf("AttnStage(%d,%d) = %d", l, mb, AttnStage(l, mb, p))
			}
		}
	}
	// Unit L lands on stage 0 when p divides L: the two pipeline ends share
	// a stage, so the tied embedding stays local (section 4.6).
	if UnitOwner(16, p) != 0 {
		t.Error("final unit must return to stage 0")
	}
}

// TestAttentionParallelism verifies the defining property of the attention
// parallel partition: for any fixed layer, the attention computations of p
// consecutive micro batches land on p distinct stages.
func TestAttentionParallelism(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		for l := 0; l < 3*p; l++ {
			seen := map[int]bool{}
			for mb := 0; mb < p; mb++ {
				seen[AttnStage(l, mb, p)] = true
			}
			if len(seen) != p {
				t.Errorf("p=%d layer %d: attention of %d micro batches uses only %d stages", p, l, p, len(seen))
			}
		}
	}
}

// TestBuildVariantsValid builds every HelixPipe variant over several shapes
// and runs the full plan validator (token dataflow, counts, stash balance).
func TestBuildVariantsValid(t *testing.T) {
	costs := testCosts(t)
	variants := []struct {
		name string
		opt  Options
		want sched.Method
	}{
		{"naive", Options{Fold: 1, Recompute: true}, sched.MethodHelixNaive},
		{"twofold", Options{Fold: 2, Recompute: true}, sched.MethodHelix},
		{"norecompute", Options{Fold: 2, Recompute: false}, sched.MethodHelixNoRecompute},
	}
	shapes := []struct{ p, layers int }{
		{2, 8}, {4, 16}, {8, 32}, {4, 4},
	}
	for _, v := range variants {
		for _, sh := range shapes {
			m := 2 * sh.p * v.opt.Fold / v.opt.Fold // base m = 2p
			if v.opt.Fold == 2 && m%(2*sh.p) != 0 {
				m = 2 * sh.p
			}
			cfg := sched.Config{Stages: sh.p, MicroBatches: m, Layers: sh.layers}
			plan, err := Build(cfg, costs, v.opt)
			if err != nil {
				t.Errorf("%s p=%d: %v", v.name, sh.p, err)
				continue
			}
			if plan.Method != v.want {
				t.Errorf("%s: method %s, want %s", v.name, plan.Method, v.want)
			}
			if err := sched.Validate(plan); err != nil {
				t.Errorf("%s p=%d L=%d: %v", v.name, sh.p, sh.layers, err)
			}
		}
	}
}

// TestBuildMultiLoop exercises FILO with multiple loops (m a larger multiple
// of fold*p) for both folds.
func TestBuildMultiLoop(t *testing.T) {
	costs := testCosts(t)
	for _, fold := range []int{1, 2} {
		for _, loops := range []int{1, 2, 3} {
			p := 4
			cfg := sched.Config{Stages: p, MicroBatches: loops * fold * p, Layers: 8}
			plan, err := Build(cfg, costs, Options{Fold: fold, Recompute: true})
			if err != nil {
				t.Fatalf("fold=%d loops=%d: %v", fold, loops, err)
			}
			if err := sched.Validate(plan); err != nil {
				t.Errorf("fold=%d loops=%d: %v", fold, loops, err)
			}
		}
	}
}

func TestBuildRejectsBadConfigs(t *testing.T) {
	costs := testCosts(t)
	cases := []struct {
		cfg sched.Config
		opt Options
	}{
		{sched.Config{Stages: 4, MicroBatches: 6, Layers: 8}, Options{Fold: 2, Recompute: true}},  // m not multiple of 2p
		{sched.Config{Stages: 4, MicroBatches: 6, Layers: 8}, Options{Fold: 1, Recompute: true}},  // m not multiple of p
		{sched.Config{Stages: 1, MicroBatches: 2, Layers: 4}, Options{Fold: 1, Recompute: true}},  // p < 2
		{sched.Config{Stages: 4, MicroBatches: 8, Layers: 10}, Options{Fold: 2, Recompute: true}}, // L % p != 0
		{sched.Config{Stages: 4, MicroBatches: 8, Layers: 8}, Options{Fold: 3, Recompute: true}},  // bad fold
	}
	for i, tc := range cases {
		if _, err := Build(tc.cfg, costs, tc.opt); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestParameterOwnershipBalanced verifies that the helix mapping gives every
// stage exactly L/p pre-attention and L/p post-attention segments — the
// model-state balance claim of section 4.2.
func TestParameterOwnershipBalanced(t *testing.T) {
	costs := testCosts(t)
	cfg := sched.Config{Stages: 4, MicroBatches: 8, Layers: 16}
	plan, err := Build(cfg, costs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pre := make(map[int]map[int]bool) // stage -> layer set
	post := make(map[int]map[int]bool)
	for s, ops := range plan.Ops {
		pre[s] = map[int]bool{}
		post[s] = map[int]bool{}
		for _, op := range ops {
			if op.Kind == sched.KForward && op.Layer >= 0 {
				if op.Seg == model.SegPre {
					pre[s][op.Layer] = true
				}
				if op.Seg == model.SegPost {
					post[s][op.Layer] = true
				}
			}
		}
	}
	per := cfg.Layers / cfg.Stages
	for s := 0; s < cfg.Stages; s++ {
		if len(pre[s]) != per || len(post[s]) != per {
			t.Errorf("stage %d owns %d pre and %d post segments, want %d each",
				s, len(pre[s]), len(post[s]), per)
		}
	}
}

// TestAttentionSpreadInPlan verifies in the generated plan that attention
// forward ops of one layer within one loop are spread over all p stages.
func TestAttentionSpreadInPlan(t *testing.T) {
	costs := testCosts(t)
	cfg := sched.Config{Stages: 4, MicroBatches: 8, Layers: 8}
	plan, err := Build(cfg, costs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stagesOf := map[int]map[int]bool{} // layer -> stage set (first loop only)
	for s, ops := range plan.Ops {
		for _, op := range ops {
			if op.Kind == sched.KForward && op.Layer >= 0 && op.Seg == model.SegAttn && op.MB < 4 {
				if stagesOf[op.Layer] == nil {
					stagesOf[op.Layer] = map[int]bool{}
				}
				stagesOf[op.Layer][s] = true
			}
		}
	}
	for l := 0; l < cfg.Layers; l++ {
		if len(stagesOf[l]) != cfg.Stages {
			t.Errorf("layer %d: attention spread over %d stages, want %d", l, len(stagesOf[l]), cfg.Stages)
		}
	}
}

// TestRecomputeCutsStash verifies that the recomputation variant allocates
// 4x less stash at forward time than the no-recompute variant (section 4.5).
func TestRecomputeCutsStash(t *testing.T) {
	costs := testCosts(t)
	cfg := sched.Config{Stages: 4, MicroBatches: 8, Layers: 16}
	peakFwd := func(opt Options) int64 {
		plan, err := Build(cfg, costs, opt)
		if err != nil {
			t.Fatal(err)
		}
		var worst int64
		for _, ops := range plan.Ops {
			var bal, peak int64
			for _, op := range ops {
				// Count only forward allocations to isolate the stash policy.
				if op.Kind == sched.KForward {
					bal += op.Alloc
				}
				if op.Kind == sched.KBackwardB || op.Kind == sched.KBackwardW {
					bal -= op.Free
				}
				if bal > peak {
					peak = bal
				}
			}
			if peak > worst {
				worst = peak
			}
		}
		return worst
	}
	with := peakFwd(Options{Fold: 2, Recompute: true})
	without := peakFwd(Options{Fold: 2, Recompute: false})
	ratio := float64(without) / float64(with)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("no-recompute/recompute stash ratio = %.2f, want about 4 (paper section 4.5)", ratio)
	}
}

// TestNaiveUsesBlockingSends verifies the naive FILO schedule marks its
// sends blocking (Figure 6a) while the two-fold schedule sends async.
func TestNaiveUsesBlockingSends(t *testing.T) {
	costs := testCosts(t)
	cfg := sched.Config{Stages: 4, MicroBatches: 8, Layers: 8}
	naive, err := Build(cfg, costs, Options{Fold: 1, Recompute: true})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Build(cfg, costs, Options{Fold: 2, Recompute: true})
	if err != nil {
		t.Fatal(err)
	}
	check := func(p *sched.Plan, wantBlocking bool) {
		for _, ops := range p.Ops {
			for _, op := range ops {
				if op.Kind == sched.KSend && op.Blocking != wantBlocking {
					t.Fatalf("%s: send blocking=%v, want %v", p.Method, op.Blocking, wantBlocking)
				}
			}
		}
	}
	check(naive, true)
	check(two, false)
}

// TestHelixCommVolume verifies every helix boundary message uses the helix
// volumes (2bsh-scale), never the layerwise activation volume, and that each
// layer contributes exactly 2 forward sends per micro batch.
func TestHelixCommVolume(t *testing.T) {
	costs := testCosts(t)
	cfg := sched.Config{Stages: 4, MicroBatches: 8, Layers: 8}
	plan, err := Build(cfg, costs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sends := 0
	for _, ops := range plan.Ops {
		for _, op := range ops {
			if op.Kind != sched.KSend {
				continue
			}
			if op.Tag.Bound == sched.BoundAct {
				t.Fatal("helix plans must not use the layerwise activation boundary")
			}
			if !op.Tag.Back {
				sends++
			}
		}
	}
	// Two sends per layer per micro batch, minus the co-located cases: the
	// attention of micro batch mb at layer l runs on the pre owner itself
	// when mb = p-1 (mod p) and on the post owner when mb = 0 (mod p).
	m := cfg.MicroBatches
	want := 2*cfg.Layers*m - 2*cfg.Layers*(m/cfg.Stages)
	if sends != want {
		t.Errorf("forward sends = %d, want %d", sends, want)
	}
}

// referenceSchedule is the list scheduler the ready list replaced: every
// step rescans all tasks in (key, id) order, skips the done ones and those
// with an unfinished prerequisite, and runs the first with the earliest
// start. It is quadratic in the task count.
func referenceSchedule(b *helixBuilder) error {
	p := b.cfg.Stages
	b.ops = make([][]sched.Op, p)
	b.arrival = make([]float64, 4*b.cfg.MicroBatches*b.cfg.Layers)
	b.clock = make([]float64, p)
	b.sendFree = make([]float64, p)
	b.recvFree = make([]float64, p)
	done := make([]bool, len(b.tasks))
	order := make([]int, len(b.tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, c := b.tasks[order[i]], b.tasks[order[j]]
		if a.key != c.key {
			return lessKey(a.key, c.key)
		}
		return a.id < c.id
	})
	for remaining := len(b.tasks); remaining > 0; remaining-- {
		bestIdx, bestStart := -1, math.MaxFloat64
		for _, id := range order {
			t := &b.tasks[id]
			if done[id] {
				continue
			}
			ready := true
			for _, pre := range t.prereqs {
				if !done[pre] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			start := math.Max(b.clock[t.stage], b.firstInputArrival(t))
			if start < bestStart-1e-15 {
				bestIdx, bestStart = id, start
			}
		}
		if bestIdx < 0 {
			return fmt.Errorf("reference scheduler wedged with %d tasks remaining", remaining)
		}
		b.runTask(&b.tasks[bestIdx])
		done[bestIdx] = true
	}
	return nil
}

// TestReadyListMatchesReferenceScan pins the ready-list scheduler to the
// quadratic candidate scan: both must emit identical programs for every
// variant, pipeline size and micro-batch count, on flat, variable-length
// and placed heterogeneous cost books (the last varies StageMB per stage).
// It also checks each stage's op slice was allocated at its final size.
func TestReadyListMatchesReferenceScan(t *testing.T) {
	w := costmodel.NewWorkload(model.Model3B(), costmodel.A800Cluster(), model.Shape{B: 1, S: 16384})
	books := map[string]func(p, m int) (sched.Costs, model.BatchSpec){
		"flat": func(p, m int) (sched.Costs, model.BatchSpec) { return sched.NewCosts(w), model.BatchSpec{} },
		"varlen": func(p, m int) (sched.Costs, model.BatchSpec) {
			spec := model.BatchSpec{Shapes: make([]model.Shape, m)}
			for i := range spec.Shapes {
				spec.Shapes[i] = model.Shape{B: 1, S: 4096 << (i * 5 % 4)}
			}
			return sched.NewBatchCosts(w, spec), spec
		},
		"placed": func(p, m int) (sched.Costs, model.BatchSpec) {
			c := cluster.DGXA800x2H20x2()
			devs := make([]int, p)
			for i := range devs {
				devs[i] = i * 5 % c.Devices() // spread over both device generations
			}
			topo, err := cluster.Resolve(c, cluster.Placement{Devices: devs}, cluster.Perturb{SlowDevice: -1})
			if err != nil {
				t.Fatal(err)
			}
			return sched.NewPlacedCosts(w, topo), model.BatchSpec{}
		},
	}
	for name, book := range books {
		for _, fold := range []int{1, 2} {
			for _, recompute := range []bool{true, false} {
				for _, p := range []int{2, 4, 8} {
					for _, m := range []int{fold * p, 2 * fold * p} {
						costs, spec := book(p, m)
						cfg := sched.Config{Stages: p, MicroBatches: m, Layers: 16, Batch: spec}
						opt := Options{Fold: fold, Recompute: recompute}
						label := fmt.Sprintf("%s fold=%d recompute=%v p=%d m=%d", name, fold, recompute, p, m)
						plan, err := Build(cfg, costs, opt)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						ref := &helixBuilder{cfg: cfg, costs: costs, opt: opt}
						ref.buildTasks()
						if err := referenceSchedule(ref); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !reflect.DeepEqual(plan.Ops, ref.ops) {
							t.Errorf("%s: ready-list plan differs from the reference scan", label)
						}
						for s, ops := range plan.Ops {
							if len(ops) != cap(ops) {
								t.Errorf("%s: stage %d holds %d ops in a slice sized %d", label, s, len(ops), cap(ops))
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkHelixBuild measures HelixPipe plan construction on the paper's
// 3B/A800 configuration at 64k (p=8, m=16), the plan the engine and
// validator benchmarks use. The alloc-gate CI step pins its allocs/op to
// testdata/alloc_budget.json.
func BenchmarkHelixBuild(b *testing.B) {
	cfg, costs := helixBuildInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg, costs, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func helixBuildInputs() (sched.Config, sched.Costs) {
	mc := model.Model3B()
	w := costmodel.NewWorkload(mc, costmodel.A800Cluster(), model.Shape{B: 1, S: 65536})
	return sched.Config{Stages: 8, MicroBatches: 16, Layers: mc.Layers}, sched.NewCosts(w)
}

// TestHelixBuildAllocBudget enforces helix_build_allocs_per_op of
// testdata/alloc_budget.json in-process; CI's alloc gate re-checks it from
// BenchmarkHelixBuild's -benchmem output.
func TestHelixBuildAllocBudget(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget struct {
		HelixBuildAllocsPerOp float64 `json:"helix_build_allocs_per_op"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	cfg, costs := helixBuildInputs()
	got := testing.AllocsPerRun(10, func() {
		if _, err := Build(cfg, costs, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget.HelixBuildAllocsPerOp {
		t.Errorf("helix build allocates %.1f allocs/op, budget %.1f (testdata/alloc_budget.json)",
			got, budget.HelixBuildAllocsPerOp)
	}
}
