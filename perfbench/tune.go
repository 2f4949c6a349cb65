package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	helixpipe "repro"
	"repro/internal/tune"
)

// tune-varlen: Session.Autotune over a seeded long-tail variable-length
// workload on the mixed-generation DGX-A800x2-H20x2 preset with a degraded
// NVLink class, crossing orders × stages × every method under a memory
// budget, with every placement strategy searched per surviving point.

type tuneInputs struct {
	spec []byte
}

// tuneMicroBatches is the workload's micro-batch count. The seed draws the
// micro-batch lengths; fixing their count keeps the plan sizes, and so the
// work per round, alike across seeds.
const tuneMicroBatches = 18

func prepareTune(seed uint64, sz size) (inputs, error) {
	m := tuneMicroBatches
	if sz == sizeTiny {
		m = 4
	}
	dist, _ := helixpipe.LengthDistByName("longtail")
	lengths, err := helixpipe.SampleLengths(dist, m, 8192, 65536, seed)
	if err != nil {
		return nil, err
	}
	shapes := make([]helixpipe.Shape, m)
	for i, l := range lengths {
		shapes[i] = helixpipe.Shape{B: 1, S: l}
	}
	spec := helixpipe.ExperimentSpec{
		Model: "3B", Cluster: "DGX-A800x2-H20x2", SeqLen: 65536, Perturb: "link=nvlinkx0.15",
		Workload: &helixpipe.SpecWorkload{Shapes: shapes},
		Tune: &helixpipe.SpecTune{Stages: []int{2, 4, 8}, BudgetGB: 40,
			Orders: []string{"packed", "longest", "balanced"}},
	}
	if sz == sizeTiny {
		spec.Tune.Stages = []int{2}
		spec.Tune.Orders = []string{"packed"}
		spec.Methods = []string{"1F1B", "HelixPipe"}
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return &tuneInputs{spec: blob}, nil
}

// tuneKeep is what verify samples.
type tuneKeep struct {
	spec *helixpipe.ExperimentSpec
	res  *helixpipe.TuneResult
}

// resolveTune parses and resolves the spec; the TuneSpec it returns is
// complete, so Autotune fills no defaults into it.
func (in *tuneInputs) resolveTune() (*helixpipe.ExperimentSpec, *helixpipe.Session, helixpipe.TuneSpec, error) {
	spec, err := helixpipe.ParseSpec(bytes.NewReader(in.spec))
	if err != nil {
		return nil, nil, helixpipe.TuneSpec{}, err
	}
	base, rs, err := spec.Resolve()
	if err != nil {
		return nil, nil, helixpipe.TuneSpec{}, err
	}
	if rs.Tune == nil {
		return nil, nil, helixpipe.TuneSpec{}, fmt.Errorf("spec resolved to a %s run, not tune", rs.Kind)
	}
	return spec, base, *rs.Tune, nil
}

func (in *tuneInputs) round() (*roundOut, error) {
	t0 := time.Now()
	spec, base, ts, err := in.resolveTune()
	if err != nil {
		return nil, err
	}
	so := newStreamObs()
	ts.Sink = so
	res, err := base.Autotune(ts)
	if err != nil {
		return nil, err
	}
	out := tuneOut(res)
	out.setup = so.firstStart().Sub(t0)
	out.keep = &tuneKeep{spec: spec, res: res}
	return out, nil
}

// tuneOut books a tuner result: every grid point resolved, evaluated or
// pruned, is one cell; prunes are outcomes, not failures.
func tuneOut(res *helixpipe.TuneResult) *roundOut {
	d := newDigester()
	invariant := 0
	for _, p := range res.Points {
		d.add(fmt.Sprintf("%s %s %s", p.Candidate, p.Placement, fmt.Sprint(p.PlacementDevices)),
			p.IterationSeconds, p.TokensPerSecond, p.BubbleFraction, float64(p.PeakBytes))
	}
	reasons := make([]string, 0, len(res.Pruned))
	prePrune := 0
	for r, n := range res.Pruned {
		reasons = append(reasons, r)
		if r != tune.PruneSim && r != tune.PruneMeasured {
			prePrune += n
		}
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		d.add("pruned "+r, float64(res.Pruned[r]))
	}
	for _, p := range res.Points {
		if seqInvariantMethods[string(p.Method)] {
			invariant++
		}
	}
	// The invariant share counts evaluated points; pruned ones never build.
	return &roundOut{
		cells:  res.GridSize,
		digest: d.sum(),
		props:  props{seqInvariant: share(invariant, len(res.Points)), pruned: share(prePrune, res.GridSize)},
	}
}

func (in *tuneInputs) verify(out *roundOut) (checked, failed int, err error) {
	keep := out.keep.(*tuneKeep)
	_, base, ts, err := in.resolveTune()
	if err != nil {
		return 0, 0, err
	}
	byName := map[string]helixpipe.BatchSpec{}
	for _, w := range ts.Workloads {
		byName[w.Name] = w.Batch
	}
	for _, i := range sampleIndexes(len(keep.res.Points), verifySamples) {
		checked++
		if !tunePointAgrees(base, ts, byName, keep.res.Points[i]) {
			failed++
		}
	}
	return checked, failed, nil
}

// tunePointAgrees re-evaluates one point alone, through a fresh search over
// a one-point grid (no shared cost memo), and compares the modelled
// numbers bit for bit.
func tunePointAgrees(base *helixpipe.Session, ts helixpipe.TuneSpec, byName map[string]helixpipe.BatchSpec, p tune.Point) bool {
	one := ts
	one.Sink = nil
	one.Methods = []helixpipe.Method{p.Method}
	one.Stages = []int{p.Stages}
	one.SeqLens = nil
	one.Workloads = []helixpipe.TuneWorkload{{Name: p.Workload, Batch: byName[p.Workload]}}
	if p.Order != "" {
		one.Orders = []string{p.Order}
	}
	res, err := base.Autotune(one)
	if err != nil || len(res.Points) != 1 {
		return false
	}
	q := res.Points[0]
	return q.IterationSeconds == p.IterationSeconds && q.TokensPerSecond == p.TokensPerSecond &&
		q.PeakBytes == p.PeakBytes && q.Placement == p.Placement &&
		fmt.Sprint(q.PlacementDevices) == fmt.Sprint(p.PlacementDevices) &&
		!math.IsNaN(q.BubbleFraction) && q.BubbleFraction == p.BubbleFraction
}

func (in *tuneInputs) traced(rec *recorder) (*roundOut, error) {
	var (
		base *helixpipe.Session
		ts   helixpipe.TuneSpec
		err  error
	)
	t0 := time.Now()
	rec.do("spec", 0, -1, 0, func(int32) { _, base, ts, err = in.resolveTune() })
	if err != nil {
		return nil, err
	}
	// The tuner's pool reports each point's start and finish through the
	// sink; those become the point spans.
	so := newStreamObs()
	ts.Sink = so
	var search *tune.Search
	rec.do("tune.prune", 0, -1, 0, func(int32) {
		search, err = tune.NewSearch(base.Model(), base.Cluster(), ts)
	})
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	for range search.Points() {
		// The search records every outcome itself.
	}
	res := search.Result()
	so.mu.Lock()
	for i, s := range so.started {
		if f, ok := so.finished[i]; ok {
			rec.add("tune.point", -1, so.worker[i], s, f)
		}
	}
	so.mu.Unlock()
	for _, r := range tunePruneReasons {
		rec.setExtra("tune.pruned."+r, float64(res.Pruned[r]))
	}
	rec.setExtra("tune.eval_ratio", share(res.Evaluated, res.GridSize))
	rec.setExtra("tune.cost_evals", float64(res.CostModelEvals))

	shadowStart := time.Now()
	// The evaluated points again through the session's own layers: cost
	// book, every placement strategy, build, validate, simulate. The tuner
	// prices flat cost books while the session prices placement-resolved
	// ones, so on this mixed-generation cluster the two disagree; the share
	// of points where they do is reported, not counted as failed cells.
	byName := map[string]helixpipe.BatchSpec{}
	for _, w := range ts.Workloads {
		byName[w.Name] = w.Batch
	}
	cells := make([]cellJob, 0, len(res.Points))
	for _, p := range res.Points {
		cells = append(cells, cellJob{method: p.Method, placements: helixpipe.PlacementStrategies(),
			derive: func() (*helixpipe.Session, error) {
				batch := byName[p.Workload]
				if p.Order != "" {
					order, _ := helixpipe.MBOrderByName(p.Order)
					var err error
					if batch, err = batch.Ordered(order); err != nil {
						return nil, err
					}
				}
				return base.With(helixpipe.WithStages(p.Stages), helixpipe.WithWorkload(batch))
			}})
	}
	reports := rec.runCells(cells, nil)
	if rec.sampleCells == 0 {
		mismatch := 0
		for i, r := range reports {
			if r == nil || r.Sim.IterationSeconds != res.Points[i].IterationSeconds {
				mismatch++
			}
		}
		rec.setExtra("tune.session_mismatch_share", share(mismatch, len(reports)))
	}
	out := tuneOut(res)
	out.setup = setup
	out.shadow = time.Since(shadowStart)
	return out, nil
}
