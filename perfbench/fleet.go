package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	helixpipe "repro"
	"repro/internal/cluster"
	"repro/internal/fleet"
)

// fleet-stream: Session.Fleet of a long seeded Poisson job stream drawn
// from a few templates on DGX-A800x4 with greedy placement. Nearly every
// job hits the report cache, so cache keying, lookups and the fleet engine
// do the work; build, validate and simulate run only on the few misses.

type fleetInputs struct {
	spec []byte
}

func prepareFleet(seed uint64, sz size) (inputs, error) {
	spec := helixpipe.ExperimentSpec{
		Model: "3B", Cluster: "DGX-A800x4", SeqLen: 16384, Stages: 8, Placement: "greedy",
		Methods: []string{"HelixPipe"},
		Fleet: &helixpipe.SpecFleet{
			Policy: "bestfit", Jobs: 3000, Arrival: "poisson", RatePerHour: 200, Seed: seed, Iterations: 50,
			Templates: []helixpipe.SpecFleetTemplate{
				{Name: "short-8k", Weight: 3, Stages: 4, SeqLen: 8192},
				{Name: "long-16k", Weight: 2, Stages: 8, SeqLen: 16384},
				{Name: "urgent-8k", Weight: 1, Stages: 4, SeqLen: 8192, Priority: 5, Iterations: 20},
			},
		},
	}
	if sz == sizeTiny {
		spec.Fleet.Jobs = 40
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return &fleetInputs{spec: blob}, nil
}

// resolveFleet parses and resolves the spec into its session and
// materialized job stream.
func (in *fleetInputs) resolveFleet() (*helixpipe.Session, helixpipe.RunSet, error) {
	spec, err := helixpipe.ParseSpec(bytes.NewReader(in.spec))
	if err != nil {
		return nil, helixpipe.RunSet{}, err
	}
	base, rs, err := spec.Resolve()
	if err != nil {
		return nil, helixpipe.RunSet{}, err
	}
	if rs.Fleet == nil {
		return nil, helixpipe.RunSet{}, fmt.Errorf("spec resolved to a %s run, not fleet", rs.Kind)
	}
	return base, rs, nil
}

// fleetKeep is what verify samples.
type fleetKeep struct {
	base *helixpipe.Session
	fs   *helixpipe.FleetSpec
	rep  *helixpipe.FleetReport
}

func (in *fleetInputs) round() (*roundOut, error) {
	t0 := time.Now()
	base, rs, err := in.resolveFleet()
	if err != nil {
		return nil, err
	}
	fs := *rs.Fleet
	fs.Cache = helixpipe.NewReportCache()
	// The fleet engine has no cell-start event; its set-up ends where the
	// benchmark hands it the materialized stream.
	setup := time.Since(t0)
	rep, err := base.Fleet(fs)
	if err != nil {
		return nil, err
	}
	out := fleetOut(rep)
	out.setup = setup
	out.keep = &fleetKeep{base: base, fs: &fs, rep: rep}
	return out, nil
}

// fleetOut books a fleet report: every job priced is one cell.
func fleetOut(rep *helixpipe.FleetReport) *roundOut {
	d := newDigester()
	for _, j := range rep.JobRecords {
		d.add(fmt.Sprintf("%s %v", j.ID, j.Devices), j.IterationSec, j.StartSec, j.EndSec)
	}
	d.add("fleet", rep.MakespanSec, rep.Utilization, rep.Fragmentation)
	return &roundOut{
		cells:  len(rep.JobRecords),
		digest: d.sum(),
		props:  props{cacheHit: share(rep.CacheHits, rep.CacheHits+rep.CacheMisses)},
	}
}

func (in *fleetInputs) verify(out *roundOut) (checked, failed int, err error) {
	keep := out.keep.(*fleetKeep)
	topo, _ := keep.base.Topology()
	for _, i := range sampleIndexes(len(keep.rep.JobRecords), verifySamples) {
		checked++
		rec := keep.rep.JobRecords[i]
		r, err := simulateJob(topo, keep.fs.Jobs[i].Spec, rec.Devices)
		if err != nil || r.Sim.IterationSeconds != rec.IterationSec {
			failed++
		}
	}
	return checked, failed, nil
}

// carveOf rebuilds the sub-cluster a job's devices form.
func carveOf(topo helixpipe.ClusterTopology, devices []int) (cluster.Cluster, []int) {
	devs := slices.Clone(devices)
	slices.Sort(devs)
	return fleet.Carve(topo, devs)
}

// simulateJob prices one job directly and uncached: resolve its spec,
// carve its devices, search its placement, simulate.
func simulateJob(topo helixpipe.ClusterTopology, spec *helixpipe.ExperimentSpec, devices []int) (*helixpipe.Report, error) {
	base, rs, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	sub, _ := carveOf(topo, devices)
	cell, err := base.With(helixpipe.WithCluster(sub), helixpipe.WithoutReportCache())
	if err != nil {
		return nil, err
	}
	method := helixpipe.Method(spec.Methods[0])
	p, err := cell.PlacementFor(method, rs.Placement, rs.PlacementSeed)
	if err != nil {
		return nil, err
	}
	if cell, err = cell.With(helixpipe.WithPlacement(p)); err != nil {
		return nil, err
	}
	return cell.Simulate(method)
}

func (in *fleetInputs) traced(rec *recorder) (*roundOut, error) {
	var (
		base *helixpipe.Session
		rs   helixpipe.RunSet
		err  error
	)
	t0 := time.Now()
	rec.do("spec", 0, -1, 0, func(int32) { base, rs, err = in.resolveFleet() })
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	fs := *rs.Fleet
	fs.Cache = helixpipe.NewReportCacheInRegistry(rec.reg)
	var rep *helixpipe.FleetReport
	rec.do("fleet", 0, -1, 0, func(int32) { rep, err = base.Fleet(fs) })
	if err != nil {
		return nil, err
	}
	rec.cacheStats(fs.Cache.StatsDetail())
	jobs := len(rep.JobRecords)
	rec.setExtra("fleet.us_per_job", median(rec.durations("fleet"))*1e6/float64(jobs))
	rec.setExtra("fleet.hit_ratio", share(rep.CacheHits, rep.CacheHits+rep.CacheMisses))
	rec.setExtra("fleet.sim_misses", float64(rep.CacheMisses))
	out := fleetOut(rep)
	out.setup = setup

	// Replay every priced job through the cache layer from the benchmark's
	// side, on a fresh cache: the key of its spec and carve, then a lookup
	// that misses once per distinct shape (and runs the pipeline below the
	// cache) and hits after.
	replayStart := time.Now()
	topo, _ := base.Topology()
	replay := helixpipe.NewReportCacheInRegistry(rec.reg)
	cells := make([]cellJob, jobs)
	for i, jr := range rep.JobRecords {
		spec := fs.Jobs[i].Spec
		sub, _ := carveOf(topo, jr.Devices)
		cells[i] = cellJob{
			method: helixpipe.Method(spec.Methods[0]), spec: spec,
			keyExtra:      []string{"carve=" + fleet.Signature(sub)},
			placements:    []string{rs.Placement},
			placementSeed: rs.PlacementSeed,
			derive: func() (*helixpipe.Session, error) {
				b, _, err := spec.Resolve()
				if err != nil {
					return nil, err
				}
				return b.With(helixpipe.WithCluster(sub))
			},
		}
	}
	reports := rec.runCells(cells, replay)
	for i, r := range reports {
		if rec.sampleCells == 0 && (r == nil || r.Sim.IterationSeconds != rep.JobRecords[i].IterationSec) {
			out.failed++
		}
	}
	out.shadow = time.Since(replayStart)
	return out, nil
}
