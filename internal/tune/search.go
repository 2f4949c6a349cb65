package tune

import (
	"fmt"
	"iter"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Search accounting mirrors into the default obs registry: the evaluated-
// point and memoized-cost-eval totals as plain counters, the per-reason
// prune totals as one labeled counter family.
var (
	tunePointsC    = obs.Default().Counter("helix_tune_points_total")
	tuneCostEvalsC = obs.Default().Counter("helix_tune_cost_evals_total")
)

func (s *Search) prune(reason string) {
	s.res.Pruned[reason]++
	obs.Default().Counter("helix_tune_pruned_total", "reason", reason).Inc()
}

// PruneError reports one discarded grid point of a streaming search: the
// candidate, the constraint that discarded it (PruneBuild, PruneSim,
// PrunePlacement or PruneMeasured), and the underlying cause.
type PruneError struct {
	// Candidate is the discarded grid point.
	Candidate Candidate
	// Reason is the Prune* constraint name.
	Reason string
	// Err is the underlying failure.
	Err error
}

func (e *PruneError) Error() string { return fmt.Sprintf("pruned (%s): %v", e.Reason, e.Err) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *PruneError) Unwrap() error { return e.Err }

// survivor is a grid point that passed the cheap pruning phases.
type survivor struct {
	Candidate
	estPeak int64 // memsim activation peak + model states
}

// shapeKey memoizes cost books: cost-model evaluation depends only on the
// micro-batch shape (b, s) — or, for workload candidates, on the workload
// and its order — so the whole method x stages x micro-batch cross product
// shares one evaluation per shape.
type shapeKey struct {
	b, s     int
	workload string
	order    string
}

// Search is a prepared, streamable autotuner run. NewSearch validates the
// spec and runs the cheap phases (grid enumeration, geometry and memory
// pruning, cost-book memoization); Points streams the expensive phase — one
// simulated Point or PruneError per surviving grid point, in deterministic
// grid order, each yielded as soon as it is available; Result finalizes the
// accounting and rankings over whatever Points has yielded so far. Run
// wires the three together for callers that want the collected Result.
type Search struct {
	m      model.Config
	cl     costmodel.ClusterSpec
	spec   Spec
	budget int64

	res       *Result
	survivors []survivor
	costs     map[shapeKey]sched.Costs
	workloads map[string]model.BatchSpec
}

// NewSearch validates the spec against the model and cluster and runs the
// cheap pruning phases, returning a Search ready to stream. It errors only
// on an unusable spec or inputs; prunable grid points are counted, never
// fatal.
func NewSearch(m model.Config, cl costmodel.ClusterSpec, spec Spec) (*Search, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("tune: invalid model: %w", err)
	}
	if err := cl.Validate(); err != nil {
		return nil, fmt.Errorf("tune: invalid cluster: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	methods := sched.Methods()
	if len(spec.Methods) > 0 {
		// Resolve to canonical registry names: the per-method memory
		// profiles (stageTrace, stateBytes) switch on them, so a
		// case-variant spelling must not fall through to the default.
		methods = make([]sched.Method, 0, len(spec.Methods))
		for _, method := range spec.Methods {
			r, ok := sched.Lookup(string(method))
			if !ok {
				return nil, fmt.Errorf("tune: unknown method %q", method)
			}
			methods = append(methods, r.Name)
		}
	}
	budget := spec.MemoryBudgetBytes
	if budget == 0 {
		budget = int64(cl.GPU.MemoryGB * float64(1<<30))
	}

	s := &Search{
		m: m, cl: cl, spec: spec, budget: budget,
		res: &Result{
			Model:             m.Name,
			Cluster:           cl.Name,
			MemoryBudgetBytes: budget,
			Pruned:            map[string]int{},
		},
		costs:     map[shapeKey]sched.Costs{},
		workloads: map[string]model.BatchSpec{},
	}
	if spec.Cluster != nil {
		s.res.Topology = spec.Cluster.Name
	}
	grid := spec.grid(methods)
	s.res.GridSize = len(grid)
	for _, w := range spec.Workloads {
		s.workloads[w.Name] = w.Batch
	}

	// Phase 1: cheap pruning. Geometry first, then the memsim peak-memory
	// estimate — no cost model, no plan building, no simulation. The
	// estimate is order-independent (its outstanding window holds the
	// largest micro batches), so ordered variants share the verdict.
	for _, c := range grid {
		if c.Stages <= 0 || c.MicroBatches <= 0 || c.MicroBatchSize <= 0 ||
			c.SeqLen <= 0 || m.Layers%c.Stages != 0 {
			s.prune(PruneGeometry)
			continue
		}
		w := costmodel.NewWorkload(m, cl, model.Shape{B: c.MicroBatchSize, S: c.SeqLen})
		est, err := estimatePeak(w, c, s.batchOf(c), budget)
		if err != nil || est > budget {
			s.prune(PruneMemory)
			continue
		}
		s.survivors = append(s.survivors, survivor{Candidate: c, estPeak: est})
	}

	// Phase 2: memoized cost books, one per distinct shape key; this is
	// what keeps CostModelEvals strictly below the naive grid size.
	for _, sv := range s.survivors {
		key := keyOf(sv.Candidate)
		if _, ok := s.costs[key]; ok {
			continue
		}
		var batch model.BatchSpec
		if b := s.batchOf(sv.Candidate); b != nil {
			batch = *b
		}
		w := costmodel.NewWorkload(m, cl, model.Shape{B: key.b, S: key.s})
		s.costs[key] = sched.NewCosts(w, batch, nil)
		s.res.CostModelEvals++
		tuneCostEvalsC.Inc()
	}
	return s, nil
}

func keyOf(c Candidate) shapeKey {
	if c.Workload != "" {
		return shapeKey{workload: c.Workload, order: c.Order}
	}
	return shapeKey{b: c.MicroBatchSize, s: c.SeqLen}
}

// batchOf resolves a candidate's workload name (and order) to its batch
// spec; fixed-length candidates resolve to nil.
func (s *Search) batchOf(c Candidate) *model.BatchSpec {
	if c.Workload == "" {
		return nil
	}
	b := s.workloads[c.Workload]
	if c.Order != "" {
		// Order names are validated by Spec.Validate, so Ordered cannot
		// fail here.
		b, _ = b.Ordered(model.MBOrder(c.Order))
	}
	return &b
}

// Points streams the expensive phase: the surviving grid points run on an
// ordered worker pool (pool.Ordered, Spec.Workers wide; a launch window a
// few pool widths ahead of the yield cursor caps buffered results) and are
// yielded in deterministic grid order as soon as each simulation completes —
// evaluated points as (Point, nil), discarded ones as (Point{},
// *PruneError). A prune never aborts the remaining points. The stream
// records everything it yields into the Search's accounting, so Result
// after draining equals what Run returns; breaking early launches nothing
// further and leaves a partial (but consistent) Result. Points may be
// consumed once.
func (s *Search) Points() iter.Seq2[Point, error] {
	workers := s.spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type outcome struct {
		point  Point
		reason string // empty on success
	}
	sink := s.spec.Sink
	outcomes := pool.Ordered(len(s.survivors), workers, func(i, w int) (outcome, error) {
		sv := s.survivors[i]
		var start time.Time
		if sink != nil {
			start = time.Now()
			sink.Emit(obs.Event{Kind: obs.CellStarted, Label: sv.Candidate.String(),
				Index: i, Total: len(s.survivors), Worker: w})
		}
		point, reason, err := evaluate(s.m, s.cl, s.spec, sv.Candidate,
			s.batchOf(sv.Candidate), sv.estPeak, s.budget, s.costs[keyOf(sv.Candidate)])
		if sink != nil {
			sink.Emit(obs.Event{Kind: obs.CellFinished, Label: sv.Candidate.String(),
				Index: i, Total: len(s.survivors), Worker: w,
				Duration: time.Since(start), Err: err})
		}
		return outcome{point: point, reason: reason}, err
	})
	return func(yield func(Point, error) bool) {
		i := 0
		for o, err := range outcomes {
			sv := s.survivors[i]
			i++
			if o.reason != "" {
				s.prune(o.reason)
				s.res.Errors = append(s.res.Errors, err.Error())
				if !yield(Point{}, &PruneError{Candidate: sv.Candidate, Reason: o.reason, Err: err}) {
					return
				}
				continue
			}
			s.res.Points = append(s.res.Points, o.point)
			tunePointsC.Inc()
			if !yield(o.point, nil) {
				return
			}
			if s.spec.budgetMet(o.point) {
				// The budget target is met: stop the stream here. In-flight
				// jobs drain into their buffered slots and are discarded;
				// nothing further launches.
				s.res.StoppedEarly = true
				return
			}
		}
	}
}

// Result finalizes the accounting — evaluated count, best-per-scenario
// picks, Pareto frontier — over the points streamed so far and returns the
// collected Result.
func (s *Search) Result() *Result {
	s.res.Evaluated = len(s.res.Points)
	s.res.Best = bestPerScenario(s.spec, s.res.Points)
	s.res.Frontier = paretoFrontier(s.spec, s.res.Points)
	return s.res
}

// Run searches the spec's grid for the given model on the given cluster: a
// thin collector that drains the Search's point stream and returns the
// ranked Result. Build and simulation failures of individual grid points
// are counted and recorded, never fatal; Run errors only on an unusable
// spec or inputs.
func Run(m model.Config, cl costmodel.ClusterSpec, spec Spec) (*Result, error) {
	search, err := NewSearch(m, cl, spec)
	if err != nil {
		return nil, err
	}
	for range search.Points() {
		// Outcomes are recorded by the stream itself; draining it is all a
		// collector does.
	}
	return search.Result(), nil
}

// evaluate builds and simulates one surviving candidate. A non-empty reason
// (PruneBuild, PruneSim, PrunePlacement or PruneMeasured) reports a
// discarded point. Under a cluster topology the candidate searches the
// spec's placement strategies and keeps the best placement's result.
func evaluate(m model.Config, cl costmodel.ClusterSpec, spec Spec, c Candidate, batch *model.BatchSpec,
	estPeak, budget int64, costs sched.Costs) (Point, string, error) {
	cfg := sched.Config{Stages: c.Stages, MicroBatches: c.MicroBatches, Layers: m.Layers}
	tokens := int64(c.MicroBatchSize) * int64(c.SeqLen) * int64(c.MicroBatches)
	padFraction := 0.0
	if batch != nil {
		cfg.Batch = *batch
		tokens = batch.TotalTokens()
		padFraction = batch.PadFraction()
	}
	activationBudget := budget - stateBytes(m, cl, c.Method, c.Stages)
	plan, err := sched.Build(c.Method, cfg, costs, sched.BuildParams{MemoryBudget: activationBudget})
	if err != nil {
		return Point{}, PruneBuild, fmt.Errorf("%s: %w", c, err)
	}

	var simRes *sim.Result
	var best cluster.Placement
	if spec.Cluster != nil {
		pt := cluster.Perturb{SlowDevice: -1}
		if spec.Perturb != nil {
			pt = *spec.Perturb
		}
		simRes, best, err = simulatePlacements(plan, *spec.Cluster, spec.Placements, pt, cl)
		if err != nil {
			reason := PruneSim
			if c.Stages > spec.Cluster.Devices() {
				reason = PrunePlacement
			}
			return Point{}, reason, fmt.Errorf("%s: %w", c, err)
		}
	} else {
		simRes, err = sim.Run(plan, sim.Options{SMPenalty: cl.CommSMPenalty})
		if err != nil {
			return Point{}, PruneSim, fmt.Errorf("%s: %w", c, err)
		}
	}
	peak := simRes.MaxPeakStashBytes() + stateBytes(m, cl, c.Method, c.Stages)
	if peak > budget {
		// The cheap estimate admitted the point but the simulation measured
		// it over budget: discard it rather than recommend an OOM.
		return Point{}, PruneMeasured, fmt.Errorf(
			"%s: measured peak %d exceeds budget %d", c, peak, budget)
	}
	point := Point{
		Candidate:          c,
		Placement:          best.Strategy,
		PlacementDevices:   best.Devices,
		PadFraction:        padFraction,
		TokensPerIteration: tokens,
		EstimatedPeakBytes: estPeak,
		PeakBytes:          peak,
		IterationSeconds:   simRes.IterationSeconds,
		TokensPerSecond:    simRes.Throughput(tokens),
		BubbleFraction:     bubbleFraction(simRes),
	}
	if tokens > 0 {
		point.SecondsPerToken = simRes.IterationSeconds / float64(tokens)
	}
	return point, "", nil
}

// simulatePlacements runs the plan once per placement strategy on the
// topology and returns the fastest iteration's result and placement. The
// greedy search seeds from zero, so results are deterministic.
func simulatePlacements(plan *sched.Plan, topo cluster.Cluster, strategies []string,
	pt cluster.Perturb, cl costmodel.ClusterSpec) (*sim.Result, cluster.Placement, error) {
	if len(strategies) == 0 {
		strategies = cluster.Strategies()
	}
	if plan.Stages > topo.Devices() {
		return nil, cluster.Placement{}, fmt.Errorf(
			"%d stages exceed the %d devices of %s", plan.Stages, topo.Devices(), topo.Name)
	}
	traffic := plan.TrafficMatrix()
	var bestRes *sim.Result
	var bestPlace cluster.Placement
	var firstErr error
	for _, strategy := range strategies {
		// Candidate links are priced as the perturbation leaves them, so a
		// degraded fabric steers the search away from the broken links and the
		// ranking matches the perturbed simulation below.
		place, err := cluster.Generate(strategy, topo, plan.Stages, traffic, cluster.SearchOptions{Perturb: pt})
		if err == nil {
			var topoView *cluster.Topology
			topoView, err = cluster.Resolve(topo, place, pt)
			if err == nil {
				plan.Placement = place.Devices
				var res *sim.Result
				res, err = sim.Run(plan, sim.Options{SMPenalty: cl.CommSMPenalty, Topology: topoView})
				if err == nil {
					if bestRes == nil || res.IterationSeconds < bestRes.IterationSeconds {
						bestRes, bestPlace = res, place
					}
					continue
				}
			}
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("placement %s: %w", strategy, err)
		}
	}
	if bestRes == nil {
		return nil, cluster.Placement{}, firstErr
	}
	plan.Placement = bestPlace.Devices
	return bestRes, bestPlace, nil
}

func bubbleFraction(r *sim.Result) float64 {
	if r.IterationSeconds <= 0 {
		return 0
	}
	return r.BubbleSeconds() / r.IterationSeconds
}

// estimatePeak returns the candidate's per-GPU peak-memory estimate: the
// memsim caching-allocator replay of the most loaded stage's activation
// trace plus model states. The replay costs a few hundred allocator
// operations — the "cheap" in cheap pruning. For workload candidates the
// trace carries per-micro-batch stashes (largest first — the conservative
// outstanding window).
func estimatePeak(w costmodel.Workload, c Candidate, batch *model.BatchSpec, budget int64) (int64, error) {
	states := stateBytes(w.Model, w.Cluster, c.Method, c.Stages)
	if states >= budget {
		// Model states alone exhaust the budget; no activation trace needed.
		return states, nil
	}
	tr := stageTrace(w, c, batch)
	cfg := memsim.DefaultConfig()
	cfg.SegmentBytes = 64 << 20
	st, err := memsim.EstimatePeak(cfg, tr)
	if err != nil {
		return 0, err
	}
	return st.PeakReservedBytes + states, nil
}

// stashProfile discriminates how much one layer stashes per method.
type stashProfile int

const (
	stashFull  stashProfile = iota // every activation (16bsh per layer)
	stashHelix                     // recomputation without attention (4bsh)
	stashInput                     // full recomputation floor (1bsh)
)

// layerStashBytes returns one layer's per-GPU stash for a shape under a
// profile.
func layerStashBytes(w costmodel.Workload, sh model.Shape, p stashProfile) int64 {
	seqPar := int64(w.Cluster.GPUsPerNode)
	switch p {
	case stashHelix:
		return w.Model.HelixStashElems(sh) * model.FP16Bytes / seqPar
	case stashInput:
		return sh.Tokens() * int64(w.Model.Hidden) * model.FP16Bytes / seqPar
	default:
		return w.Model.LayerActivationElems(sh) * model.FP16Bytes / seqPar
	}
}

// stageTrace maps a candidate onto the allocation trace of its most loaded
// pipeline stage. The per-method profiles follow the paper's analysis
// (Equations 2 and 4, Table 2): what varies between schedules is how much
// one layer stashes and how many micro batches stay outstanding at once. On
// a variable-length workload the outstanding window holds the workload's
// largest micro batches — the worst case any pick order can reach.
func stageTrace(w costmodel.Workload, c Candidate, batch *model.BatchSpec) memsim.StageTrace {
	seqPar := int64(w.Cluster.GPUsPerNode)
	unit := w.Shape.Tokens() * int64(w.Model.Hidden) * model.FP16Bytes / seqPar

	tr := memsim.StageTrace{
		LayersPerStage: w.Model.Layers / c.Stages,
		// The MLP working set of one layer: input, the two 4bsh
		// intermediates, output — the buffers whose irregular sizes carve
		// the pool (section 4.4.2). On variable-length workloads this is the
		// largest micro batch's working set.
		TransientBytes: []int64{unit, 4 * unit, 4 * unit, unit},
	}
	profile := stashFull
	switch c.Method {
	case sched.MethodGPipe:
		// All forwards before any backward: every micro batch outstanding.
		tr.OutstandingMB = c.MicroBatches
	case sched.MethodInterleaved:
		// Interleaving adds up to one extra in-flight micro batch at the
		// first stage over plain 1F1B.
		tr.OutstandingMB = min(c.Stages+1, c.MicroBatches)
	case sched.MethodZB1P:
		// Equation 4: ZB1P's worst stage matches 1F1B's first stage, plus
		// the last stage's fp32 embedding-gradient stash for deferred W.
		tr.OutstandingMB = min(c.Stages, c.MicroBatches)
		tr.ResidentBytes = embedGradResidents(w, c.Stages-1)
	case sched.MethodZB2P:
		// ZB2P admits roughly a second pipeline's worth of warmup forwards
		// for its smaller bubble, doubling ZB1P's outstanding count.
		tr.OutstandingMB = min(2*c.Stages, c.MicroBatches)
		tr.ResidentBytes = embedGradResidents(w, c.Stages-1)
	case sched.MethodAdaPipe:
		// AdaPipe recomputes adaptively under the budget; its floor is full
		// recomputation, which keeps only each layer's input.
		profile, tr.OutstandingMB = stashInput, min(c.Stages, c.MicroBatches)
	case sched.MethodHelix, sched.MethodHelixNaive:
		// Table 2: the FILO schedules stash all m micro batches, but
		// recomputation without attention keeps only 4bsh per layer.
		profile, tr.OutstandingMB = stashHelix, c.MicroBatches
	case sched.MethodHelixNoRecompute:
		tr.OutstandingMB = c.MicroBatches
	default:
		// Unknown registered methods get the 1F1B profile: the most common
		// steady state, p outstanding micro batches of full layer stashes.
		tr.OutstandingMB = min(c.Stages, c.MicroBatches)
	}
	tr.StashBytes = layerStashBytes(w, w.Shape, profile)
	if batch != nil {
		perMB := make([]int64, 0, len(batch.Shapes))
		for _, sh := range batch.Shapes {
			perMB = append(perMB, layerStashBytes(w, sh, profile))
		}
		sort.Slice(perMB, func(i, j int) bool { return perMB[i] > perMB[j] })
		if len(perMB) > tr.OutstandingMB {
			perMB = perMB[:tr.OutstandingMB]
		}
		tr.StashBytesPerMB = perMB
	}
	return tr
}

// embedGradResidents returns the last stage's deferred embedding-gradient
// stashes under the zero-bubble schedules: one fp32 head-activation pair per
// warmup micro batch (section 5.4).
func embedGradResidents(w costmodel.Workload, warmup int) []int64 {
	if warmup <= 0 {
		return nil
	}
	out := make([]int64, warmup)
	for i := range out {
		out[i] = w.EmbeddingGradStashBytes()
	}
	return out
}

// bestPerScenario picks the best point under the spec's objective per
// scenario: one per sequence length (fixed-length points only) in the
// spec's order, then one per workload in the spec's order.
func bestPerScenario(spec Spec, points []Point) []Point {
	bestSeq := map[int]Point{}
	bestWL := map[string]Point{}
	for _, p := range points {
		if p.Workload != "" {
			if cur, ok := bestWL[p.Workload]; !ok || spec.better(p, cur) {
				bestWL[p.Workload] = p
			}
			continue
		}
		if cur, ok := bestSeq[p.SeqLen]; !ok || spec.better(p, cur) {
			bestSeq[p.SeqLen] = p
		}
	}
	out := make([]Point, 0, len(bestSeq)+len(bestWL))
	for _, seq := range dedupe(spec.SeqLens) {
		if p, ok := bestSeq[seq]; ok {
			out = append(out, p)
		}
	}
	for _, w := range spec.Workloads {
		if p, ok := bestWL[w.Name]; ok {
			out = append(out, p)
		}
	}
	return out
}

// paretoFrontier returns the points no other point dominates in (peak
// memory down, objective up), ordered by ascending peak memory.
func paretoFrontier(spec Spec, points []Point) []Point {
	sorted := append([]Point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].PeakBytes != sorted[j].PeakBytes {
			return sorted[i].PeakBytes < sorted[j].PeakBytes
		}
		return spec.better(sorted[i], sorted[j])
	})
	var frontier []Point
	for _, p := range sorted {
		if len(frontier) == 0 || spec.better(p, frontier[len(frontier)-1]) {
			frontier = append(frontier, p)
		}
	}
	return frontier
}
