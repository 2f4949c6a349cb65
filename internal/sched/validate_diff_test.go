package sched

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/model"
)

// newRejections are the checks Validate makes that the reference validator
// does not: each is named by a marker in its error text and lists the
// mutations that may trigger it. Everywhere else the two must agree.
var newRejections = []struct {
	marker    string
	mutations []string
}{
	// A compute op's Layer outside [LayerHead, Layers) or Seg outside
	// model.Segments; the reference counts it under a key nothing checks.
	{"layer out of range", []string{"layer+1", "layer-1", "fuzz"}},
	{"segment out of range", []string{"fuzz"}},
	// A comm tag's MB, Layer, Bound or Chunk out of range.
	{"tag out of range", []string{"chunk+1", "fuzz"}},
	// A second send of a Tag while the first is in flight; the reference
	// counts both and fails later, or accepts two matching recvs.
	{"is in flight", []string{"duplicate", "fuzz"}},
}

// neverReceived marks the reference's "never received" error class, whose
// message the reference picks in map order.
const neverReceived = "but never received"

// checkAgainstReference reports whether Validate's verdict got agrees with
// the reference verdict want for a plan produced by the named mutation, and
// the new rejection that explains a disagreement, if any.
func checkAgainstReference(got, want error, mutation string) (rejection string, ok bool) {
	switch {
	case got == nil && want == nil:
		return "", true
	case got != nil && want != nil && got.Error() == want.Error():
		return "", true
	case got != nil && want != nil && strings.Contains(got.Error(), neverReceived) &&
		strings.Contains(want.Error(), neverReceived):
		return "", true
	}
	if got == nil {
		return "", false
	}
	for _, r := range newRejections {
		if strings.Contains(got.Error(), r.marker) {
			for _, m := range r.mutations {
				if m == mutation {
					return r.marker, true
				}
			}
		}
	}
	return "", false
}

// validatePair runs Validate and the reference on the same plan.
func validatePair(p *Plan) (got, want error) {
	p.validated = false
	got = Validate(p)
	want = referenceValidate(p)
	return got, want
}

// diffPlan is one built plan of the differential lattice.
type diffPlan struct {
	name string
	plan *Plan
}

// diffPlans builds every registered method at stages {2,4,8} and micro
// batches {p, 2p, 4p}, on a fixed-length and a variable-length batch,
// skipping the geometries a method rejects. The registered methods are the
// layer-wise ones: internal/core registers the HelixPipe variants, and this
// package's tests must not link it (TestBuildDispatch).
func diffPlans(t testing.TB) []diffPlan {
	t.Helper()
	w := costmodel.NewWorkload(model.Model3B(), costmodel.A800Cluster(), model.Shape{B: 1, S: 8192})
	var out []diffPlan
	for _, reg := range Registrations() {
		for _, p := range []int{2, 4, 8} {
			for _, m := range []int{p, 2 * p, 4 * p} {
				for _, varlen := range []bool{false, true} {
					cfg := Config{Stages: p, MicroBatches: m, Layers: 2 * p}
					costs := NewCosts(w)
					if varlen {
						cfg.Batch.Shapes = make([]model.Shape, m)
						for i := range cfg.Batch.Shapes {
							cfg.Batch.Shapes[i] = model.Shape{B: 1, S: 2048 << (i % 3)}
						}
						costs = NewBatchCosts(w, cfg.Batch)
					}
					plan, err := reg.Build(cfg, costs, BuildParams{})
					if err != nil {
						continue // geometry the method does not support
					}
					out = append(out, diffPlan{fmt.Sprintf("%s/p%d/m%d/varlen=%v", reg.Name, p, m, varlen), plan})
				}
			}
		}
	}
	return out
}

// mutations are the deterministic single-op corruptions of the
// differential test. Each returns the mutated copy of one stage program.
var mutations = []struct {
	name  string
	apply func(ops []Op, i, stages int) []Op
}{
	{"drop", func(ops []Op, i, _ int) []Op { return append(ops[:i:i], ops[i+1:]...) }},
	{"duplicate", func(ops []Op, i, _ int) []Op { return append(ops[:i+1:i+1], ops[i:]...) }},
	{"swap", func(ops []Op, i, _ int) []Op {
		if i+1 < len(ops) {
			ops[i], ops[i+1] = ops[i+1], ops[i]
		}
		return ops
	}},
	{"mb+1", func(ops []Op, i, _ int) []Op { ops[i].MB++; return ops }},
	{"mb-1", func(ops []Op, i, _ int) []Op { ops[i].MB--; return ops }},
	{"layer+1", func(ops []Op, i, _ int) []Op { ops[i].Layer++; return ops }},
	{"layer-1", func(ops []Op, i, _ int) []Op { ops[i].Layer--; return ops }},
	{"peer", func(ops []Op, i, stages int) []Op { ops[i].Peer = (ops[i].Peer + 1) % stages; return ops }},
	{"chunk+1", func(ops []Op, i, _ int) []Op { ops[i].Tag.Chunk++; return ops }},
	{"alloc+1", func(ops []Op, i, _ int) []Op { ops[i].Alloc++; return ops }},
}

// withStage returns a shallow copy of base whose program for stage s is ops.
func withStage(base *Plan, s int, ops []Op) *Plan {
	q := *base
	q.Ops = append([][]Op(nil), base.Ops...)
	q.Ops[s] = ops
	return &q
}

// TestValidateMatchesReference is the differential test of the dense
// validator against the map-based one it replaced: over every built plan of
// the lattice, and over single-op mutations of about 8 ops spread across
// each plan, both must return the same verdict and error text, up to the
// "never received" class and the listed new rejections.
func TestValidateMatchesReference(t *testing.T) {
	rejected := map[string]int{}
	checked := 0
	for _, dp := range diffPlans(t) {
		if got, want := validatePair(dp.plan); got != nil || want != nil {
			t.Fatalf("%s: built plan rejected: got %v, reference %v", dp.name, got, want)
		}
		total := dp.plan.NumOps()
		stride := max(total/8, 1)
		for s, flat := 0, 0; s < dp.plan.Stages; s++ {
			for i := range dp.plan.Ops[s] {
				flat++
				if flat%stride != 0 {
					continue
				}
				for _, mut := range mutations {
					ops := append([]Op(nil), dp.plan.Ops[s]...)
					q := withStage(dp.plan, s, mut.apply(ops, i, dp.plan.Stages))
					got, want := validatePair(q)
					checked++
					rejection, ok := checkAgainstReference(got, want, mut.name)
					if !ok {
						t.Errorf("%s: %s of stage %d op %d (%v):\n got %v\nwant %v",
							dp.name, mut.name, s, i, dp.plan.Ops[s][i], got, want)
					}
					if rejection != "" {
						rejected[rejection+" <- "+mut.name]++
					}
				}
			}
		}
	}
	t.Logf("%d mutated plans; new rejections: %v", checked, rejected)
}

// FuzzValidate overwrites one op of a built plan with fuzzed fields and
// checks that Validate never panics and agrees with the reference
// validator, up to the exceptions of the differential test. It mutates the
// differential lattice's smaller plans (p <= 4, m = 2p, fixed length), and
// its seed corpus is ops of those plans, unchanged.
func FuzzValidate(f *testing.F) {
	var plans []*Plan
	for _, dp := range diffPlans(f) {
		if p := dp.plan; p.Stages <= 4 && p.MicroBatches == 2*p.Stages && len(p.Batch.Shapes) == 0 {
			plans = append(plans, p)
		}
	}
	for pi, plan := range plans {
		for s, ops := range plan.Ops {
			for i := 0; i < len(ops); i += max(len(ops)/4, 1) {
				op := ops[i]
				flat := i
				for _, prev := range plan.Ops[:s] {
					flat += len(prev)
				}
				f.Add(uint8(pi), uint16(flat), int8(op.Kind), int16(op.MB), int16(op.Layer), int8(op.Seg),
					int8(op.Peer), int16(op.Tag.MB), int16(op.Tag.Layer), int8(op.Tag.Bound), op.Tag.Back,
					int16(op.Tag.Chunk), op.Alloc, op.Free)
			}
		}
	}
	f.Fuzz(func(t *testing.T, planIdx uint8, opIdx uint16, kind int8, mb, layer int16, seg, peer int8,
		tagMB, tagLayer int16, bound int8, back bool, chunk int16, alloc, free int64) {
		base := plans[int(planIdx)%len(plans)]
		k := int(opIdx) % base.NumOps()
		s := 0
		for k >= len(base.Ops[s]) {
			k -= len(base.Ops[s])
			s++
		}
		ops := append([]Op(nil), base.Ops[s]...)
		op := &ops[k]
		op.Kind, op.MB, op.Layer, op.Seg, op.Peer = OpKind(kind), int(mb), int(layer), model.Segment(seg), int(peer)
		op.Tag = Tag{MB: int(tagMB), Layer: int(tagLayer), Bound: Boundary(bound), Back: back, Chunk: int(chunk)}
		op.Alloc, op.Free = alloc, free
		got, want := validatePair(withStage(base, s, ops))
		if _, ok := checkAgainstReference(got, want, "fuzz"); !ok {
			t.Fatalf("stage %d op %d = %v:\n got %v\nwant %v", s, k, *op, got, want)
		}
	})
}
