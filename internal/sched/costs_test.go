package sched

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
)

// mixedLinkCluster is a two-node topology with an NVLink box and a PCIe box
// of the same GPU generation, joined by InfiniBand. The NVLink node's link
// parameters equal the flat A800 ClusterSpec's, so a stage placed there is
// priced bit-identically to the flat book.
func mixedLinkCluster() cluster.Cluster {
	return cluster.Cluster{
		Name: "mixed-link-test",
		GPU:  "A800",
		Nodes: []cluster.Node{
			{Name: "nv", Devices: 8, Intra: cluster.Link{Class: cluster.ClassNVLink, GBps: 200, LatencySec: 6e-6}},
			{Name: "pcie", Devices: 8, Intra: cluster.Link{Class: cluster.ClassPCIe, GBps: 24, LatencySec: 3e-6}},
		},
		Inter: cluster.Link{Class: cluster.ClassIB, GBps: 46, LatencySec: 12e-6},
	}
}

func placedTestWorkload(t *testing.T) costmodel.Workload {
	t.Helper()
	w := costmodel.NewWorkload(model.Model3B(), costmodel.A800Cluster(), model.Shape{B: 1, S: 16384})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

func resolveTest(t *testing.T, c cluster.Cluster, devices []int, pt cluster.Perturb) *cluster.Topology {
	t.Helper()
	topo, err := cluster.Resolve(c, cluster.Placement{Devices: devices}, pt)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestPlacedCostsPCIeStageSlower pins the tentpole's pricing contract: the
// same stage of the same plan is strictly slower when its device sits in a
// PCIe box than in an NVLink box — the intra-stage sequence-parallel
// collectives serialize at the placed link's bandwidth — while the emitted op
// order does not change at all.
func TestPlacedCostsPCIeStageSlower(t *testing.T) {
	w := placedTestWorkload(t)
	c := mixedLinkCluster()
	cfg := testCfg(2, 4, 8)
	none := cluster.Perturb{SlowDevice: -1}

	nvTopo := resolveTest(t, c, []int{0, 1}, none)   // both stages in the NVLink box
	pcieTopo := resolveTest(t, c, []int{0, 8}, none) // stage 1 in the PCIe box

	nvCosts := NewCosts(w, model.BatchSpec{}, nvTopo)
	pcieCosts := NewCosts(w, model.BatchSpec{}, pcieTopo)

	nvPlan, err := OneFOneB(cfg, nvCosts)
	if err != nil {
		t.Fatal(err)
	}
	pciePlan, err := OneFOneB(cfg, pcieCosts)
	if err != nil {
		t.Fatal(err)
	}

	// Identical op order: the plans differ only in durations.
	for s := range nvPlan.Ops {
		if len(nvPlan.Ops[s]) != len(pciePlan.Ops[s]) {
			t.Fatalf("stage %d op count differs: %d vs %d", s, len(nvPlan.Ops[s]), len(pciePlan.Ops[s]))
		}
		for i := range nvPlan.Ops[s] {
			a, b := nvPlan.Ops[s][i], pciePlan.Ops[s][i]
			a.Dur, b.Dur = 0, 0
			if a != b {
				t.Fatalf("stage %d op %d differs beyond duration: %+v vs %+v", s, i, nvPlan.Ops[s][i], pciePlan.Ops[s][i])
			}
		}
	}

	// Stage 0 sits in the NVLink box under both placements: identical book.
	if nvCosts.StageMB(0, 0) != pcieCosts.StageMB(0, 0) {
		t.Error("stage 0 book changed although its placement did not")
	}
	// Stage 1's PCIe book must be slower on every SP-collective-bearing
	// segment duration, and strictly so overall.
	nv1, pcie1 := nvCosts.StageMB(1, 0), pcieCosts.StageMB(1, 0)
	strict := false
	for _, seg := range model.Segments {
		for _, kind := range []OpKind{KForward, KBackwardB, KBackwardW} {
			a, b := nv1.SegDur(seg, kind), pcie1.SegDur(seg, kind)
			if b < a {
				t.Errorf("PCIe-placed %v/%v faster than NVLink-placed: %g < %g", seg, kind, b, a)
			}
			if b > a {
				strict = true
			}
		}
	}
	if !strict {
		t.Error("no segment priced strictly slower in the PCIe box")
	}
	// Message volumes are shape-derived and placement-invariant.
	if nv1.BoundBytes != pcie1.BoundBytes {
		t.Error("boundary bytes changed with placement")
	}
}

// TestPlacedCostsNVLinkMatchesFlat pins bit-exactness: on a topology whose
// intra links equal the flat ClusterSpec's NVLink parameters, the placed
// books must equal the flat book bit for bit — placement resolution is free
// for the homogeneous configurations the golden corpus covers.
func TestPlacedCostsNVLinkMatchesFlat(t *testing.T) {
	w := placedTestWorkload(t)
	topo := resolveTest(t, mixedLinkCluster(), []int{0, 1}, cluster.Perturb{SlowDevice: -1})
	flat := NewCosts(w, model.BatchSpec{}, nil)
	placed := NewCosts(w, model.BatchSpec{}, topo)
	if len(placed.PerStage) != 2 {
		t.Fatalf("placed costs carry %d stage books, want 2", len(placed.PerStage))
	}
	for s := range placed.PerStage {
		if placed.StageMB(s, 0) != flat.MB(0) {
			t.Errorf("stage %d NVLink book differs from the flat book", s)
		}
	}
}

// TestPerturbStretchesOwnStageOnly pins the straggler contract: a slow
// device stretches exactly its own stage's book, by exactly its factor, and
// leaves every other stage's book bit-identical to the unperturbed one.
func TestPerturbStretchesOwnStageOnly(t *testing.T) {
	w := placedTestWorkload(t)
	c := mixedLinkCluster()
	devices := []int{0, 1, 2, 3}
	const slowStage = 2
	const factor = 1.5
	clean := resolveTest(t, c, devices, cluster.Perturb{SlowDevice: -1})
	pt := cluster.Perturb{SlowDevice: devices[slowStage], SlowFactor: factor}
	perturbed := resolveTest(t, c, devices, pt)

	cleanCosts := NewCosts(w, model.BatchSpec{}, clean)
	slowCosts := NewCosts(w, model.BatchSpec{}, perturbed)
	for s := 0; s < len(devices); s++ {
		got, want := slowCosts.StageMB(s, 0), cleanCosts.StageMB(s, 0)
		if s != slowStage {
			if got != want {
				t.Errorf("stage %d book changed although only stage %d's device is slow", s, slowStage)
			}
			continue
		}
		for _, seg := range model.Segments {
			for _, kind := range []OpKind{KForward, KBackwardB, KBackwardW} {
				if g, exp := got.SegDur(seg, kind), want.SegDur(seg, kind)*factor; g != exp {
					t.Errorf("slow stage %v/%v duration %g, want exactly %g", seg, kind, g, exp)
				}
			}
		}
		if got.HeadFB != want.HeadFB*factor || got.EmbedF != want.EmbedF*factor {
			t.Error("slow stage embed/head durations not stretched by exactly the factor")
		}
		if got.BoundBytes != want.BoundBytes || got.SegStash != want.SegStash {
			t.Error("slow stage byte fields changed; only durations may stretch")
		}
	}
}

// TestPlacedBatchCostsPerStage checks the variable-length path: per-stage
// books exist per micro batch, and the PCIe stage's book is slower for every
// shape.
func TestPlacedBatchCostsPerStage(t *testing.T) {
	w := placedTestWorkload(t)
	spec := model.BatchSpec{Shapes: []model.Shape{{B: 1, S: 16384}, {B: 1, S: 8192}}}
	topo := resolveTest(t, mixedLinkCluster(), []int{0, 8}, cluster.Perturb{SlowDevice: -1})
	costs := NewCosts(w, spec, topo)
	if len(costs.PerStage) != 2 {
		t.Fatalf("placed batch costs carry %d stage books, want 2", len(costs.PerStage))
	}
	for mb := range spec.Shapes {
		nv, pcie := costs.StageMB(0, mb), costs.StageMB(1, mb)
		if pcie.SegDur(model.SegPost, KForward) <= nv.SegDur(model.SegPost, KForward) {
			t.Errorf("mb %d: PCIe stage not strictly slower than NVLink stage", mb)
		}
		if nv.BoundBytes != costs.MB(mb).BoundBytes {
			t.Errorf("mb %d: placed book bytes differ from flat book bytes", mb)
		}
	}
}

// TestNewCostsMatchesReference pins NewCosts against the four constructors
// it replaced (costs_ref_test.go), picked the way Session.Costs picked them:
// every accessor agrees over in-range and out-of-range stage and micro-batch
// indices, for both paper testbeds, fixed, uniform and variable-length
// batches, and flat, NVLink, mixed NVLink+PCIe and perturbed placements.
func TestNewCostsMatchesReference(t *testing.T) {
	h20Cluster := mixedLinkCluster()
	h20Cluster.GPU = "H20"
	h20Cluster.Nodes[0].Intra.GBps = 450
	workloads := []struct {
		name    string
		w       costmodel.Workload
		cluster cluster.Cluster
	}{
		{"3B/A800", costmodel.NewWorkload(model.Model3B(), costmodel.A800Cluster(), model.Shape{B: 1, S: 16384}), mixedLinkCluster()},
		{"7B/H20", costmodel.NewWorkload(model.Model7B(), costmodel.H20Cluster(), model.Shape{B: 1, S: 32768}), h20Cluster},
	}
	batches := []struct {
		name  string
		batch model.BatchSpec
	}{
		{"none", model.BatchSpec{}},
		{"uniform", model.BatchSpec{Shapes: []model.Shape{{B: 1, S: 8192}, {B: 1, S: 8192}, {B: 1, S: 8192}, {B: 1, S: 8192}}}},
		{"variable", model.BatchSpec{Shapes: []model.Shape{{B: 1, S: 16384}, {B: 2, S: 4096}, {B: 1, S: 8192}, {B: 1, S: 16384}, {B: 1, S: 2048}}}},
	}
	none := cluster.Perturb{SlowDevice: -1}
	placements := []struct {
		name    string
		devices []int
		pt      *cluster.Perturb
	}{
		{"flat", nil, nil},
		{"nvlink", []int{0, 1, 2, 3}, &none},
		{"nvlink+pcie", []int{0, 1, 8, 9}, &none},
		{"slow", []int{0, 1, 2, 3}, &cluster.Perturb{SlowDevice: 2, SlowFactor: 1.5, Jitter: 0.1, Seed: 7}},
	}
	for _, wl := range workloads {
		for _, bt := range batches {
			for _, pl := range placements {
				name := wl.name + "/" + bt.name + "/" + pl.name
				var topo *cluster.Topology
				if pl.pt != nil {
					topo = resolveTest(t, wl.cluster, pl.devices, *pl.pt)
				}
				got := NewCosts(wl.w, bt.batch, topo)
				want := refSessionCosts(wl.w, bt.batch, topo)
				if len(got.PerStage) != len(want.PerStage) {
					t.Fatalf("%s: %d stage books, reference has %d", name, len(got.PerStage), len(want.PerStage))
				}
				if got.Variable() != want.Variable() {
					t.Errorf("%s: Variable %v, reference %v", name, got.Variable(), want.Variable())
				}
				for _, bytes := range []int64{0, 1, 1 << 20, got.BoundBytes[BoundAct]} {
					if g, r := got.P2PTime(bytes), want.P2PTime(bytes); g != r {
						t.Errorf("%s: P2PTime(%d) %g, reference %g", name, bytes, g, r)
					}
				}
				mbs := len(bt.batch.Shapes) + 4
				for mb := -2; mb < mbs; mb++ {
					if got.MB(mb) != want.MB(mb) {
						t.Errorf("%s: MB(%d) differs from the reference", name, mb)
					}
					if got.MeanMB(mb) != want.MeanMB(mb) {
						t.Errorf("%s: MeanMB(%d) differs from the reference", name, mb)
					}
					for s := -2; s < len(pl.devices)+2; s++ {
						if got.StageMB(s, mb) != want.StageMB(s, mb) {
							t.Errorf("%s: StageMB(%d, %d) differs from the reference", name, s, mb)
						}
					}
				}
			}
		}
	}
}
