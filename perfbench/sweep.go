package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	helixpipe "repro"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/tune"
)

// sweep-grid: every registered method × seeded sequence lengths × stages
// {2,4,8} on 3B/A800 and 7B/H20 flat clusters, through Session.Execute.
// Each round resolves fresh sessions, so every cell misses the report
// cache: plan build, validate and simulate do the work.

// sweepConfigs are the (model, flat cluster) pairs of one round.
var sweepConfigs = [][2]string{{"3B", "A800"}, {"7B", "H20"}}

// sweepStrata are the sequence-length pools one length is drawn from
// each; stratifying keeps the work per round alike across seeds.
var sweepStrata = [][]int{
	{16384, 24576, 32768, 40960},
	{49152, 57344, 65536, 73728},
	{81920, 90112, 98304, 106496, 114688, 122880, 131072},
}

type sweepInputs struct {
	specs [][]byte
}

func prepareSweep(seed uint64, sz size) (inputs, error) {
	rnd := rand.New(rand.NewPCG(seed, 0x5eed))
	stages := []int{2, 4, 8}
	strata := sweepStrata
	var methods []string
	if sz == sizeTiny {
		stages, strata = []int{2}, strata[:1]
		methods = []string{"1F1B", "ZB1P", "HelixPipe"}
	}
	in := &sweepInputs{}
	for _, cfg := range sweepConfigs {
		m, _ := helixpipe.ModelByName(cfg[0])
		cl, _ := helixpipe.ClusterByName(cfg[1])
		var seqs []int
		for _, pool := range strata {
			// Draw from the stratum, falling back to shorter lengths until
			// one fits the GPU for every method and stage count by the
			// memsim estimate, so a memory verdict never turns cells into
			// failures.
			i := rnd.IntN(len(pool))
			for ; i >= 0 && !fitsGPU(m, cl, pool[i], stages); i-- {
			}
			if i < 0 {
				return nil, fmt.Errorf("no %s/%s length in %v fits the GPU", cfg[0], cfg[1], pool)
			}
			seqs = append(seqs, pool[i])
		}
		spec := helixpipe.ExperimentSpec{
			Model: cfg[0], Cluster: cfg[1], SeqLen: seqs[0], Methods: methods,
			Sweep: &helixpipe.SpecSweep{SeqLens: seqs, Stages: stages},
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, blob)
	}
	return in, nil
}

// fitsGPU reports whether the tuner's memsim estimate admits every method
// at seq on every stage count with the GPU's full memory as the budget.
func fitsGPU(m model.Config, cl costmodel.ClusterSpec, seq int, stages []int) bool {
	s, err := tune.NewSearch(m, cl, tune.Spec{SeqLens: []int{seq}, Stages: stages,
		MicroBatches: []int{0}, MicroBatchSizes: []int{1}})
	if err != nil {
		return false
	}
	res := s.Result()
	return res.Pruned[tune.PruneMemory] == 0 && res.Pruned[tune.PruneGeometry] == 0
}

// sweepKeep is what verify samples: each submission's spec and reports.
type sweepKeep struct {
	specs   []*helixpipe.ExperimentSpec
	reports [][]*helixpipe.Report
}

func (in *sweepInputs) round() (*roundOut, error) {
	out := &roundOut{}
	keep := &sweepKeep{}
	d := newDigester()
	invariant := 0
	for _, blob := range in.specs {
		t0 := time.Now()
		spec, err := helixpipe.ParseSpec(bytes.NewReader(blob))
		if err != nil {
			return nil, err
		}
		base, _, err := spec.Resolve()
		if err != nil {
			return nil, err
		}
		so := newStreamObs()
		session, err := base.With(helixpipe.WithEventSink(so))
		if err != nil {
			return nil, err
		}
		var reports []*helixpipe.Report
		for r, err := range session.Execute(spec) {
			so.yield()
			out.cells++
			if err != nil {
				out.failed++
				d.add("error")
				reports = append(reports, nil)
				continue
			}
			digestReport(d, r)
			if seqInvariantMethods[string(r.Method)] {
				invariant++
			}
			reports = append(reports, r)
		}
		out.setup += so.firstStart().Sub(t0)
		out.streams = append(out.streams, so)
		keep.specs = append(keep.specs, spec)
		keep.reports = append(keep.reports, reports)
	}
	out.digest = d.sum()
	out.props = props{seqInvariant: share(invariant, out.cells)}
	out.keep = keep
	return out, nil
}

// digestReport adds one cell's modelled numbers to the digest.
func digestReport(d *digester, r *helixpipe.Report) {
	label := fmt.Sprintf("%s seq=%d p=%d m=%d", r.Method, r.SeqLen, r.Stages, r.MicroBatches)
	if r.Sim == nil {
		d.add(label)
		return
	}
	d.add(label, r.Sim.IterationSeconds, r.Sim.TokensPerSecond, r.Sim.BubbleFraction,
		float64(r.Sim.MaxPeakStashBytes))
}

// verifySamples is how many cells per submission verify re-simulates.
const verifySamples = 6

func (in *sweepInputs) verify(out *roundOut) (checked, failed int, err error) {
	keep := out.keep.(*sweepKeep)
	for i, spec := range keep.specs {
		base, _, err := spec.Resolve()
		if err != nil {
			return checked, failed, err
		}
		reports := keep.reports[i]
		for _, j := range sampleIndexes(len(reports), verifySamples) {
			checked++
			r := reports[j]
			if r == nil {
				failed++
				continue
			}
			cell, err := base.With(helixpipe.WithSeqLen(r.SeqLen), helixpipe.WithStages(r.Stages),
				helixpipe.WithoutReportCache())
			if err != nil {
				return checked, failed, err
			}
			direct, err := cell.Simulate(r.Method)
			if err != nil || !sameReport(r, direct) {
				failed++
			}
		}
	}
	return checked, failed, nil
}

// sameReport compares two reports byte for byte after stripping telemetry
// from copies.
func sameReport(a, b *helixpipe.Report) bool {
	ca, cb := *a, *b
	helixpipe.StripTelemetry([]*helixpipe.Report{&ca, &cb})
	ja, err1 := json.Marshal(&ca)
	jb, err2 := json.Marshal(&cb)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// sampleIndexes spreads k indexes evenly over [0, n).
func sampleIndexes(n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

func (in *sweepInputs) traced(rec *recorder) (*roundOut, error) {
	out := &roundOut{}
	d := newDigester()
	for _, blob := range in.specs {
		var (
			spec *helixpipe.ExperimentSpec
			base *helixpipe.Session
			rs   helixpipe.RunSet
			err  error
		)
		t0 := time.Now()
		rec.do("spec", 0, -1, 0, func(int32) {
			if spec, err = helixpipe.ParseSpec(bytes.NewReader(blob)); err == nil {
				base, rs, err = spec.Resolve()
			}
		})
		out.setup += time.Since(t0)
		if err != nil {
			return nil, err
		}
		cache := helixpipe.NewReportCacheInRegistry(rec.reg)
		cells := make([]cellJob, len(rs.Cells))
		for i, c := range rs.Cells {
			cellSpec := *spec
			cellSpec.Sweep = nil
			cellSpec.Methods = []string{string(c.Method)}
			cellSpec.SeqLen, cellSpec.Stages = c.SeqLen, c.Stages
			cells[i] = cellJob{method: c.Method, spec: &cellSpec, encode: true,
				derive: func() (*helixpipe.Session, error) {
					return base.With(helixpipe.WithSeqLen(c.SeqLen), helixpipe.WithStages(c.Stages))
				}}
		}
		reports := rec.runCells(cells, cache)
		for _, r := range reports {
			out.cells++
			if r == nil {
				out.failed++
				d.add("error")
				continue
			}
			digestReport(d, r)
		}
		st := cache.StatsDetail()
		rec.cacheStats(st)
	}
	out.digest = d.sum()
	return out, nil
}
