package main

import (
	"math"
	"time"
)

// layerMetric names one per-layer metric of the traced run and its unit.
type layerMetric struct{ name, unit string }

// benchIDs are the paper experiments' table ids, in AllExperiments order.
var benchIDs = []string{
	"table1", "table2", "table3", "fig3", "fig4",
	"fig8-1.3B-H20", "fig8-1.3B-A800", "fig8-3B-H20", "fig8-3B-A800", "fig8-7B-H20", "fig8-7B-A800",
	"fig9", "fig10", "fig11",
	"chunk", "saturation", "interleaved", "zb1p-sensitivity",
}

// tunePruneReasons are the tuner's prune reasons.
var tunePruneReasons = []string{
	"geometry", "memory-budget", "build-error", "sim-error", "memory-measured", "placement",
}

// perLayer lists every per-layer metric a traced run prints. A layer the
// workload does not exercise reads 0.
var perLayer = func() []layerMetric {
	out := []layerMetric{
		{"spec.resolve_us", "us"},
		{"sched.costs.calls", "count"},
		{"sched.costs.us_p50", "us"},
	}
	for _, l := range []string{"sched.build", "sched.validate"} {
		out = append(out,
			layerMetric{l + ".ms_p50", "ms"}, layerMetric{l + ".ms_p99", "ms"},
			layerMetric{l + ".allocs_per_call", "count"}, layerMetric{l + ".bytes_per_call", "B"},
			layerMetric{l + ".self_share", "ratio"})
	}
	out = append(out,
		layerMetric{"sim.ms_p50", "ms"}, layerMetric{"sim.ms_p99", "ms"},
		layerMetric{"sim.allocs_per_call", "count"}, layerMetric{"sim.ops_per_s", "1/s"},
		layerMetric{"sim.pool_reuse_ratio", "ratio"}, layerMetric{"sim.self_share", "ratio"},
		layerMetric{"report.encode_us_p50", "us"}, layerMetric{"report.bytes_per_cell", "B"},
		layerMetric{"report.self_share", "ratio"},
		layerMetric{"cache.hit_ratio", "ratio"}, layerMetric{"cache.key_us_p50", "us"},
		layerMetric{"cache.hit_us_p50", "us"}, layerMetric{"cache.bytes", "B"},
		layerMetric{"cache.self_share", "ratio"},
		layerMetric{"stream.first_ms", "ms"}, layerMetric{"stream.busy_ratio", "ratio"},
		layerMetric{"stream.wait_ms_p50", "ms"},
		layerMetric{"tune.prune_phase_ms", "ms"}, layerMetric{"tune.point_ms_p50", "ms"},
		layerMetric{"tune.point_ms_p99", "ms"}, layerMetric{"tune.eval_ratio", "ratio"},
	)
	for _, r := range tunePruneReasons {
		out = append(out, layerMetric{"tune.pruned." + r, "count"})
	}
	out = append(out,
		layerMetric{"tune.cost_evals", "count"},
		layerMetric{"tune.session_mismatch_share", "ratio"},
		layerMetric{"cluster.placement_ms_p50", "ms"}, layerMetric{"cluster.placement_calls", "count"},
		layerMetric{"cluster.self_share", "ratio"},
		layerMetric{"fleet.us_per_job", "us"}, layerMetric{"fleet.hit_ratio", "ratio"},
		layerMetric{"fleet.sim_misses", "count"},
	)
	for _, id := range benchIDs {
		out = append(out, layerMetric{"bench." + id + ".ms", "ms"})
	}
	out = append(out,
		layerMetric{"cell.ms_p50", "ms"}, layerMetric{"cell.ms_p99", "ms"},
		layerMetric{"cell.tail_pct", "%"}, layerMetric{"cell.samples", "count"},
		layerMetric{"cell.unattributed_share", "ratio"},
		layerMetric{"trace.overhead_ratio", "ratio"},
		layerMetric{"host.speed", "ratio"},
		layerMetric{"workload.seq_invariant_share", "ratio"},
		layerMetric{"workload.cache_hit_share", "ratio"},
		layerMetric{"workload.pruned_share", "ratio"},
	)
	return out
}()

// layerMetrics assembles the per-layer metrics of a traced run.
func layerMetrics(rec, allocRec *recorder, plain, traced []roundStats) map[string]metric {
	v := map[string]float64{}
	ms := func(d []float64, q float64) float64 { return quantile(d, q) * 1e3 }
	us := func(d []float64, q float64) float64 { return quantile(d, q) * 1e6 }

	v["spec.resolve_us"] = us(rec.durations("spec"), 0.5)
	costs := rec.durations("sched.costs")
	v["sched.costs.calls"] = float64(len(costs)) / float64(len(traced))
	v["sched.costs.us_p50"] = us(costs, 0.5)

	self := rec.selfTimes()
	cells := rec.durations("cell")
	cellTotal := 0.0
	for _, d := range cells {
		cellTotal += d
	}
	selfShare := func(names ...string) float64 {
		if cellTotal == 0 {
			return 0
		}
		s := 0.0
		for _, n := range names {
			s += self[n]
		}
		return s / cellTotal
	}
	for _, l := range []string{"sched.build", "sched.validate", "sim"} {
		d := rec.durations(l)
		v[l+".ms_p50"], v[l+".ms_p99"] = ms(d, 0.5), ms(d, 0.99)
		v[l+".allocs_per_call"], v[l+".bytes_per_call"] = allocRec.allocsPerCall(l)
		v[l+".self_share"] = selfShare(l)
	}
	simTotal := 0.0
	for _, d := range rec.durations("sim") {
		simTotal += d
	}
	if simTotal > 0 {
		v["sim.ops_per_s"] = float64(rec.simOps.Load()) / simTotal
	}

	v["report.encode_us_p50"] = us(rec.durations("report"), 0.5)
	if n := rec.reports.Load(); n > 0 {
		v["report.bytes_per_cell"] = float64(rec.reportBytes.Load()) / float64(n)
	}
	v["report.self_share"] = selfShare("report")

	hits, misses := rec.cacheHits.Load(), rec.cacheMisses.Load()
	if hits+misses > 0 {
		v["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["cache.key_us_p50"] = us(rec.durations("cache.key"), 0.5)
	v["cache.hit_us_p50"] = us(rec.durations("cache.hit"), 0.5)
	v["cache.bytes"] = float64(rec.cacheBytes.Load()) / float64(len(traced))
	v["cache.self_share"] = selfShare("cache.key", "cache.do", "cache.hit")

	placement := rec.durations("cluster.placement")
	v["cluster.placement_ms_p50"] = ms(placement, 0.5)
	v["cluster.placement_calls"] = float64(len(placement)) / float64(len(traced))
	v["cluster.self_share"] = selfShare("cluster.placement")

	v["tune.prune_phase_ms"] = ms(rec.durations("tune.prune"), 0.5)
	points := rec.durations("tune.point")
	v["tune.point_ms_p50"], v["tune.point_ms_p99"] = ms(points, 0.5), ms(points, 0.99)
	for _, id := range benchIDs {
		v["bench."+id+".ms"] = ms(rec.durations("bench."+id), 0.5)
	}

	pct, tailVal := tail(cells)
	v["cell.ms_p50"] = ms(cells, 0.5)
	v["cell.ms_p99"] = tailVal * 1e3
	v["cell.tail_pct"] = pct
	v["cell.samples"] = float64(len(cells))
	v["cell.unattributed_share"] = selfShare("cell")

	tracedRate := make([]float64, len(traced))
	for i, r := range traced {
		tracedRate[i] = r.rate()
	}
	plainRate := make([]float64, len(plain))
	speed := make([]float64, 0, len(plain)+len(traced))
	for i, r := range plain {
		plainRate[i] = r.rate()
		speed = append(speed, r.speed)
	}
	v["trace.overhead_ratio"] = median(tracedRate) / median(plainRate)
	for _, r := range traced {
		speed = append(speed, r.speed)
	}
	v["host.speed"] = median(speed)

	streamMetrics(v, plain)
	last := plain[len(plain)-1].out.props
	v["workload.seq_invariant_share"] = last.seqInvariant
	v["workload.cache_hit_share"] = last.cacheHit
	v["workload.pruned_share"] = last.pruned

	rec.mu.Lock()
	for k, x := range rec.extras {
		v[k] = x
	}
	rec.mu.Unlock()

	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		x := v[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[m.name] = metric{x, m.unit}
	}
	return out
}

// streamMetrics derives the stream layer's figures from the progress
// events of the untraced rounds' Session.Execute submissions.
func streamMetrics(v map[string]float64, plain []roundStats) {
	var first, waits []float64
	var busy, capacity time.Duration
	for _, r := range plain {
		for _, so := range r.out.streams {
			so.mu.Lock()
			if len(so.yielded) > 0 {
				first = append(first, so.yielded[0].Sub(so.t0).Seconds())
			}
			workers := map[int]bool{}
			var lo, hi time.Time
			for i, s := range so.started {
				f, ok := so.finished[i]
				if !ok {
					continue
				}
				busy += f.Sub(s)
				workers[so.worker[i]] = true
				if lo.IsZero() || s.Before(lo) {
					lo = s
				}
				if f.After(hi) {
					hi = f
				}
				if i < len(so.yielded) {
					waits = append(waits, so.yielded[i].Sub(f).Seconds())
				}
			}
			capacity += time.Duration(len(workers)) * hi.Sub(lo)
			so.mu.Unlock()
		}
	}
	if len(first) == 0 {
		return
	}
	v["stream.first_ms"] = median(first) * 1e3
	if capacity > 0 {
		v["stream.busy_ratio"] = float64(busy) / float64(capacity)
	}
	v["stream.wait_ms_p50"] = median(waits) * 1e3
}
