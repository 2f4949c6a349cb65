package helixpipe

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tune"
)

// Session is the configured front door of the package: one model on one
// cluster at one micro-batch geometry, validated eagerly, from which plans
// are built and engines are run. A Session is immutable after construction;
// With derives a modified copy, and Sweep fans a method x sequence-length x
// stage grid out across goroutines.
type Session struct {
	model        model.Config
	cluster      costmodel.ClusterSpec
	seqLen       int
	microBatch   int
	stages       int
	microBatches int             // 0 while unset: resolved to 2*stages
	mbExplicit   bool            // WithMicroBatches was applied (kept across Sweep cells)
	batch        model.BatchSpec // per-micro-batch shapes; empty = uniform
	memBudget    int64
	memExplicit  bool
	helix        *HelixOptions
	simOpt       sim.Options
	simExplicit  bool
	trace        bool

	// Topology-aware communication: a cluster topology, the stage placement
	// on its devices, and an optional fault/straggler perturbation. All nil /
	// zero on flat-NIC sessions. resolvedTopo caches the validated Resolve
	// result; it is recomputed by validate, so With-derived sessions never
	// share a stale view.
	topo         *cluster.Cluster
	placement    *cluster.Placement
	perturb      cluster.Perturb
	resolvedTopo *cluster.Topology

	// Report caching across Stream/Execute/Sweep: cells with identical
	// content (runKey) simulate once. cache is a caller-shared cache (nil:
	// each Stream/Execute uses a fresh one); noCache disables caching.
	cache   *ReportCache
	noCache bool

	// events receives progress events from Stream/Execute/Sweep and turns
	// on telemetry provenance stamping (Report.Telemetry). Nil on
	// unobserved sessions, whose reports stay byte-stable run to run.
	events obs.Sink
}

// Option mutates a Session under construction. Options are applied in order;
// validation runs once, eagerly, after the last option.
type Option func(*Session)

// WithSeqLen sets the sequence length of every micro batch (default 131072,
// the paper's headline 128k configuration). Options apply in order: a
// fixed-shape geometry option replaces any variable-length workload set
// earlier, so sweeping SeqLens over a workload session sweeps fixed shapes
// instead of silently ignoring the axis.
func WithSeqLen(s int) Option {
	return func(ses *Session) { ses.seqLen = s; ses.batch = BatchSpec{} }
}

// WithStages sets the pipeline size p (default 8; the paper maps one stage
// to one node).
func WithStages(p int) Option { return func(ses *Session) { ses.stages = p } }

// WithMicroBatches sets the number of micro batches m per iteration. The
// default is the paper's m = 2p (section 5.1), recomputed per grid cell by
// Sweep; an explicit value is kept as-is everywhere. Like WithSeqLen, it
// replaces any variable-length workload set earlier (whose micro-batch count
// is its number of shapes).
func WithMicroBatches(m int) Option {
	return func(ses *Session) { ses.microBatches = m; ses.mbExplicit = true; ses.batch = BatchSpec{} }
}

// WithMicroBatchSize sets the micro batch size b (default 1, as in the
// paper's evaluation). Like WithSeqLen, it replaces any variable-length
// workload set earlier.
func WithMicroBatchSize(b int) Option {
	return func(ses *Session) { ses.microBatch = b; ses.batch = BatchSpec{} }
}

// WithMemoryBudget sets the per-GPU activation budget in bytes handed to
// budget-aware schedules (AdaPipe). The default derives it from the cluster:
// GPU capacity minus model states and a 10% allocator reserve. Zero or
// negative means unlimited.
func WithMemoryBudget(bytes int64) Option {
	return func(ses *Session) { ses.memBudget = bytes; ses.memExplicit = true }
}

// WithHelixOptions pins the HelixPipe build options (fold, recomputation)
// for every helix method built by the session, overriding each variant's
// registered default.
func WithHelixOptions(opt HelixOptions) Option {
	return func(ses *Session) { o := opt; ses.helix = &o }
}

// WithSimOptions replaces the simulator options. The default applies the
// cluster's CommSMPenalty and no tracing.
func WithSimOptions(opt SimOptions) Option {
	return func(ses *Session) { ses.simOpt = opt; ses.simExplicit = true }
}

// WithTrace enables span tracing in the simulator so reports can render
// ASCII and SVG timelines.
func WithTrace() Option { return func(ses *Session) { ses.trace = true } }

// WithCluster sets a cluster topology: the simulator then resolves each
// communication op's bandwidth and latency from the link class (NVLink,
// PCIe, IB) between its endpoints' placed devices, instead of pricing every
// hop at the flat inter-node NIC of the ClusterSpec. The topology must hold
// at least as many devices as the session has stages (validated eagerly).
// Stages are placed contiguously unless WithPlacement overrides; use
// Session.PlacementFor to search a placement for a method's traffic.
func WithCluster(topo ClusterTopology) Option {
	return func(ses *Session) { t := topo; ses.topo = &t }
}

// WithPlacement pins the stage-to-device placement on the session's cluster
// topology (set WithCluster first or in the same option list). The
// placement's device count must equal the session's stage count (validated
// eagerly).
func WithPlacement(p Placement) Option {
	return func(ses *Session) { q := p; ses.placement = &q }
}

// WithPerturb injects a fault/straggler perturbation — a slow device, a
// degraded link class, per-iteration compute jitter — into the session's
// cluster topology (requires WithCluster). The zero Perturb clears it.
func WithPerturb(p Perturb) Option {
	return func(ses *Session) { ses.perturb = p }
}

// WithReportCache attaches a shared report cache: Stream, Execute and Sweep
// memoize cell reports in it by content hash, so repeated cells — duplicate
// grid points, overlapping sweeps, tune grids re-visiting a shape — never
// re-simulate, across every run of every session sharing the cache. Cached
// reports are shared and must be treated as immutable. Without this option
// each Stream/Execute invocation still dedupes internally with a fresh
// private cache; read hit/miss counts off the shared cache with Stats.
func WithReportCache(c *ReportCache) Option {
	return func(ses *Session) { ses.cache = c; ses.noCache = false }
}

// WithoutReportCache disables report caching on Stream, Execute and Sweep:
// every cell simulates, even exact duplicates. The spec field `no_cache`
// maps to this option.
func WithoutReportCache() Option {
	return func(ses *Session) { ses.cache = nil; ses.noCache = true }
}

// WithWorkload sets a variable-length workload: one (b, s) shape per micro
// batch. While set, it governs the geometry — MicroBatches reports the
// spec's length and SeqLen/MicroBatchSize the per-axis maxima. Build the
// spec by hand, with UniformWorkload, or by sampling a length distribution
// and packing it (SampleLengths + PackLengths / SyntheticWorkload). An empty
// spec clears the workload, restoring the session's fixed-shape geometry;
// later fixed-shape options (WithSeqLen, WithMicroBatchSize,
// WithMicroBatches) do the same.
func WithWorkload(spec BatchSpec) Option {
	return func(ses *Session) { ses.batch = spec }
}

// WithEventSink attaches a progress-event sink: Stream, Execute and Sweep
// emit an obs.Event when each cell starts and finishes (with worker id,
// duration and cache-hit flag), and tune runs launched through the session
// inherit the sink. Attaching a sink also turns on telemetry provenance:
// every report carries a Telemetry block (wall clock, cache hit, runner
// reuse) in its JSON and CSV forms. Unobserved sessions stamp nothing, so
// their reports stay byte-identical run to run; use obs.NewProgress for a
// ready-made live stderr line, or any Sink for custom consumers.
func WithEventSink(sink obs.Sink) Option {
	return func(ses *Session) { ses.events = sink }
}

// NewSession builds and eagerly validates a session. The defaults reproduce
// the paper's headline configuration: sequence length 131072, 8 stages,
// micro batch size 1, and m = 2p micro batches.
func NewSession(m ModelConfig, cl ClusterSpec, opts ...Option) (*Session, error) {
	s := &Session{
		model:      m,
		cluster:    cl,
		seqLen:     131072,
		microBatch: 1,
		stages:     8,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.microBatches == 0 {
		s.microBatches = 2 * s.stages
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Session) validate() error {
	if err := s.model.Validate(); err != nil {
		return fmt.Errorf("helixpipe: invalid model: %w", err)
	}
	if err := s.cluster.Validate(); err != nil {
		return fmt.Errorf("helixpipe: invalid cluster: %w", err)
	}
	switch {
	case s.seqLen <= 0:
		return fmt.Errorf("helixpipe: sequence length must be positive, got %d", s.seqLen)
	case s.microBatch <= 0:
		return fmt.Errorf("helixpipe: micro batch size must be positive, got %d", s.microBatch)
	case s.stages <= 0:
		return fmt.Errorf("helixpipe: stages must be positive, got %d", s.stages)
	case s.microBatches <= 0:
		return fmt.Errorf("helixpipe: micro batches must be positive, got %d", s.microBatches)
	case s.model.Layers%s.stages != 0:
		return fmt.Errorf("helixpipe: layers (%d) must be divisible by stages (%d)",
			s.model.Layers, s.stages)
	}
	if s.helix != nil && s.helix.Fold != 1 && s.helix.Fold != 2 {
		return fmt.Errorf("helixpipe: helix fold must be 1 or 2, got %d", s.helix.Fold)
	}
	if len(s.batch.Shapes) > 0 {
		if err := s.batch.Validate(); err != nil {
			return fmt.Errorf("helixpipe: invalid workload: %w", err)
		}
	}
	return s.resolveTopology()
}

// gpuNames lists the known per-device GPU spec names for error messages.
func gpuNames() []string {
	specs := costmodel.GPUs()
	names := make([]string, len(specs))
	for i, g := range specs {
		names[i] = g.Name
	}
	return names
}

// resolveTopology validates the topology options against the session
// geometry and caches the resolved per-stage-pair link view the simulator
// reads. Flat-NIC sessions (no WithCluster) resolve to nil.
func (s *Session) resolveTopology() error {
	s.resolvedTopo = nil
	if s.topo == nil {
		if s.placement != nil {
			return fmt.Errorf("helixpipe: WithPlacement requires WithCluster")
		}
		if !s.perturb.Zero() {
			return fmt.Errorf("helixpipe: WithPerturb requires WithCluster")
		}
		return nil
	}
	for _, n := range s.topo.Nodes {
		if n.GPU != "" {
			if _, ok := costmodel.GPUByName(n.GPU); !ok {
				return fmt.Errorf("helixpipe: topology node %q has unknown GPU %q (known: %v)",
					n.Name, n.GPU, gpuNames())
			}
		}
	}
	place := cluster.Placement{}
	if s.placement != nil {
		place = *s.placement
		if place.Stages() != s.stages {
			return fmt.Errorf("helixpipe: placement maps %d devices for %d stages",
				place.Stages(), s.stages)
		}
	} else {
		var err error
		place, err = cluster.Contiguous(*s.topo, s.stages)
		if err != nil {
			return fmt.Errorf("helixpipe: %w", err)
		}
	}
	resolved, err := cluster.Resolve(*s.topo, place, s.perturb)
	if err != nil {
		return fmt.Errorf("helixpipe: %w", err)
	}
	s.resolvedTopo = resolved
	return nil
}

// With derives a new session with the extra options applied, re-validating
// eagerly. The receiver is unchanged.
func (s *Session) With(opts ...Option) (*Session, error) {
	d := *s
	if s.helix != nil {
		h := *s.helix
		d.helix = &h
	}
	if !d.mbExplicit {
		d.microBatches = 0
	}
	for _, opt := range opts {
		opt(&d)
	}
	if d.microBatches == 0 {
		d.microBatches = 2 * d.stages
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Accessors.

// Model returns the session's model configuration.
func (s *Session) Model() ModelConfig { return s.model }

// Cluster returns the session's cluster spec.
func (s *Session) Cluster() ClusterSpec { return s.cluster }

// SeqLen returns the sequence length — on a variable-length session, the
// longest micro batch's.
func (s *Session) SeqLen() int {
	if len(s.batch.Shapes) > 0 {
		return s.batch.MaxSeqLen()
	}
	return s.seqLen
}

// Stages returns the pipeline size p.
func (s *Session) Stages() int { return s.stages }

// MicroBatches returns the micro batches m per iteration — on a
// variable-length session, the workload's shape count.
func (s *Session) MicroBatches() int {
	if len(s.batch.Shapes) > 0 {
		return len(s.batch.Shapes)
	}
	return s.microBatches
}

// MicroBatchSize returns the micro batch size b — on a variable-length
// session, the largest micro batch's.
func (s *Session) MicroBatchSize() int {
	if len(s.batch.Shapes) > 0 {
		return s.batch.MaxShape().B
	}
	return s.microBatch
}

// Batch returns the session's variable-length workload spec; its Shapes are
// empty on fixed-shape sessions.
func (s *Session) Batch() BatchSpec { return s.batch }

// Topology returns the session's cluster topology and whether one was set
// with WithCluster.
func (s *Session) Topology() (ClusterTopology, bool) {
	if s.topo == nil {
		return ClusterTopology{}, false
	}
	return *s.topo, true
}

// Placement returns the stage placement the session simulates under: the
// explicit WithPlacement value, or the contiguous default of a WithCluster
// session. The second result is false on flat-NIC sessions.
func (s *Session) Placement() (Placement, bool) {
	if s.resolvedTopo == nil {
		return Placement{}, false
	}
	return s.resolvedTopo.Placement, true
}

// PlacementFor searches a placement of the session's stages for one method:
// it builds the method's plan, reads its per-(stage, peer) traffic matrix,
// and generates the named strategy's placement on the session's topology
// ("contiguous", "roundrobin", or "greedy", which minimizes the modeled P2P
// cost; seed drives the greedy local search deterministically). Apply the
// result with With(WithPlacement(p)).
func (s *Session) PlacementFor(method Method, strategy string, seed uint64) (Placement, error) {
	if s.topo == nil {
		return Placement{}, fmt.Errorf("helixpipe: PlacementFor requires WithCluster")
	}
	plan, err := s.Plan(method)
	if err != nil {
		return Placement{}, err
	}
	// The search prices candidate links as the session's perturbation leaves
	// them, so a degraded fabric steers placement away from the broken links.
	p, err := cluster.Generate(strategy, *s.topo, s.stages, plan.TrafficMatrix(),
		cluster.SearchOptions{Seed: seed, Perturb: s.perturb})
	if err != nil {
		return Placement{}, fmt.Errorf("helixpipe: %w", err)
	}
	return p, nil
}

// Workload returns the cost-model workload of the session. On a
// variable-length session the shape is the per-axis maximum — per-micro-batch
// shapes live in Costs().
func (s *Session) Workload() Workload {
	return costmodel.NewWorkload(s.model, s.cluster, model.Shape{B: s.MicroBatchSize(), S: s.SeqLen()})
}

// Costs returns the cost book plans are annotated with: per-micro-batch on a
// variable-length session, uniform otherwise. A topology-aware session gets
// placement-resolved books — each stage priced by its placed node's
// intra-node link, device generation and perturbation factor; flat NVLink
// topologies reproduce the flat book bit for bit.
func (s *Session) Costs() Costs {
	return sched.NewCosts(s.Workload(), s.batch, s.resolvedTopo)
}

// MemoryBudget returns the per-GPU activation budget handed to budget-aware
// schedules: the explicit WithMemoryBudget value, or the cluster-derived
// default (GPU capacity minus model states and a 10% allocator reserve).
func (s *Session) MemoryBudget() int64 {
	if s.memExplicit {
		return s.memBudget
	}
	return costmodel.ActivationBudget(s.model, s.cluster, s.stages)
}

// TokensPerIteration returns the tokens one iteration processes: the
// per-micro-batch sum on a variable-length session.
func (s *Session) TokensPerIteration() int64 {
	if len(s.batch.Shapes) > 0 {
		return s.batch.TotalTokens()
	}
	return int64(s.microBatch) * int64(s.seqLen) * int64(s.MicroBatches())
}

// SimOptions returns the simulator options the session runs with: the
// explicit WithSimOptions value or the cluster defaults, with tracing forced
// on by WithTrace.
func (s *Session) SimOptions() SimOptions {
	opt := s.simOpt
	if !s.simExplicit {
		opt = sim.Options{SMPenalty: s.cluster.CommSMPenalty}
	}
	if s.trace {
		opt.Trace = true
	}
	if s.resolvedTopo != nil {
		opt.Topology = s.resolvedTopo
	}
	return opt
}

// buildParams assembles the registry build parameters from the session.
func (s *Session) buildParams() sched.BuildParams {
	p := sched.BuildParams{MemoryBudget: s.MemoryBudget()}
	if s.helix != nil {
		p.HelixFold = s.helix.Fold
		rec := s.helix.Recompute
		p.HelixRecompute = &rec
	}
	return p
}

// Plan builds the schedule plan of any registered method for the session.
// Method names resolve case-insensitively through the registry.
func (s *Session) Plan(method Method) (*Plan, error) {
	reg, ok := sched.Lookup(string(method))
	if !ok {
		return nil, fmt.Errorf("helixpipe: unknown method %q (known: %v)", method, Methods())
	}
	cfg := sched.Config{Stages: s.stages, MicroBatches: s.MicroBatches(),
		Layers: s.model.Layers, Batch: s.batch}
	plan, err := reg.Build(cfg, s.Costs(), s.buildParams())
	if err != nil {
		return nil, err
	}
	if s.resolvedTopo != nil {
		// Stamp the session's placement so engines, validators and reports
		// see where each stage runs.
		plan.Placement = append([]int(nil), s.resolvedTopo.Placement.Devices...)
	}
	return plan, nil
}

// Engine runs plans and produces Reports. The simulator and the numeric
// goroutine runtime are interchangeable behind this interface.
type Engine interface {
	// Name labels the engine in reports ("sim" or "numeric").
	Name() string
	// Run executes one training iteration of the plan.
	Run(plan *Plan) (*Report, error)
}

// SimEngine runs plans on the deterministic discrete-event cluster
// simulator.
type SimEngine struct {
	// Options tunes the simulator.
	Options SimOptions

	meta reportMeta
}

// NewSimEngine returns a simulator engine with explicit options, detached
// from any session. Reports it produces carry plan-derived metadata only.
func NewSimEngine(opt SimOptions) *SimEngine { return &SimEngine{Options: opt} }

// SimEngine returns the session's simulator engine: session sim options and
// report metadata (model, cluster, geometry) included.
func (s *Session) SimEngine() *SimEngine {
	return &SimEngine{Options: s.SimOptions(), meta: s.reportMeta()}
}

// Name implements Engine.
func (e *SimEngine) Name() string { return EngineSim }

// Run implements Engine: it simulates one training iteration.
func (e *SimEngine) Run(plan *Plan) (*Report, error) {
	res, err := sim.Run(plan, e.Options)
	if err != nil {
		return nil, err
	}
	return newSimReport(plan, res, e.meta), nil
}

// NumericEngine runs plans on real tensors: one goroutine per pipeline
// stage, channels as the interconnect.
type NumericEngine struct {
	// Model is the real-parameter model the iteration trains.
	Model *NumericModel
	// Batches are the micro batches of one iteration; the length must equal
	// the plan's MicroBatches.
	Batches []MicroBatch

	meta reportMeta
}

// NewNumericEngine returns a numeric engine over an explicit model and
// batches, detached from any session.
func NewNumericEngine(m *NumericModel, batches []MicroBatch) *NumericEngine {
	return &NumericEngine{Model: m, Batches: batches}
}

// NumericEngine returns the session's numeric engine: a deterministically
// initialized model of the session's configuration and synthetic micro
// batches of the session's geometry, both derived from seed. On a
// variable-length session every micro batch is generated at its own shape.
func (s *Session) NumericEngine(seed uint64) *NumericEngine {
	batches := make([]MicroBatch, s.MicroBatches())
	for i := range batches {
		b, sl := s.microBatch, s.seqLen
		if i < len(s.batch.Shapes) {
			b, sl = s.batch.Shapes[i].B, s.batch.Shapes[i].S
		}
		batches[i] = nn.SyntheticBatch(s.model, b, sl, seed+uint64(i)+1)
	}
	return &NumericEngine{
		Model:   nn.NewModel(s.model, seed),
		Batches: batches,
		meta:    s.reportMeta(),
	}
}

// Name implements Engine.
func (e *NumericEngine) Name() string { return EngineNumeric }

// Run implements Engine: it executes one training iteration numerically.
func (e *NumericEngine) Run(plan *Plan) (*Report, error) {
	res, err := exec.Run(plan, e.Model, e.Batches)
	if err != nil {
		return nil, err
	}
	return newNumericReport(plan, res, e.meta), nil
}

// Run builds the method's plan and executes it on the engine.
func (s *Session) Run(engine Engine, method Method) (*Report, error) {
	plan, err := s.Plan(method)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", method, err)
	}
	report, err := engine.Run(plan)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", method, engine.Name(), err)
	}
	return report, nil
}

// Simulate builds and simulates one method: shorthand for
// s.Run(s.SimEngine(), method).
func (s *Session) Simulate(method Method) (*Report, error) {
	return s.Run(s.SimEngine(), method)
}

// Autotune searches the spec's method x seqlen x stages x micro-batch grid
// for the session's model and cluster: grid points are pruned cheaply with
// memsim peak-memory estimates before anything simulates, the survivors fan
// out across a bounded worker pool with memoized cost-model evaluations, and
// the result ranks a best-throughput pick per sequence length next to a
// throughput-vs-peak-memory Pareto frontier.
//
// Empty spec axes fall back to the session's own geometry; a zero memory
// budget means the GPU's full capacity. Build or simulation failures of
// individual grid points are counted in the result's pruning accounting, not
// returned as errors. Autotune is a thin collector over the tuner's point
// stream (tune.Search); Execute streams the same points report by report.
func (s *Session) Autotune(spec TuneSpec) (*TuneResult, error) {
	return tune.Run(s.model, s.cluster, s.fillTuneDefaults(spec))
}

// Sweep describes a grid of runs fanned out by Session.Sweep. Empty axes
// fall back to the session's own value (or, for Methods, to every
// registered method).
type Sweep struct {
	// Methods are the schedules to run; empty means every registered method.
	Methods []Method
	// SeqLens are the sequence lengths; empty means the session's.
	SeqLens []int
	// Stages are the pipeline sizes; empty means the session's.
	Stages []int
	// Engine builds the engine of one grid cell; nil means the cell
	// session's SimEngine.
	Engine func(cell *Session) Engine
}

// streamCache returns the cache one Stream/Execute invocation memoizes cell
// reports in: the session's shared cache when one is attached, a fresh
// private cache otherwise (duplicate cells within the one grid still
// simulate once), nil when caching is disabled.
func (s *Session) streamCache() *ReportCache {
	if s.noCache {
		return nil
	}
	if s.cache != nil {
		return s.cache
	}
	return NewReportCache()
}

// cachedJob wraps one cell job with the report cache: identical cells share
// one simulation. A nil cache, or a cell whose identity cannot be
// content-hashed (caller-supplied sim topology), runs the job directly. On
// observed sessions (WithEventSink) the wrapper also stamps telemetry
// provenance — wall clock, cache-hit flag, runner reuse — onto a shallow
// copy of the report: stored cache entries stay provenance-free, so
// sessions sharing the cache never see another run's wall clocks.
func cachedJob(cache *ReportCache, cell *Session, method Method, engineName string, seed uint64,
	strategy string, placementSeed uint64, job func() (*Report, error)) func() (*Report, error) {
	key, useCache := "", false
	if cache != nil {
		if k, err := cell.runKey(method, engineName, seed, strategy, placementSeed); err == nil {
			key, useCache = k, true
		}
	}
	if !useCache && cell.events == nil {
		return job
	}
	return func() (*Report, error) {
		start := time.Now()
		var (
			r   *Report
			hit bool
			err error
		)
		if useCache {
			r, hit, err = cache.Do(key, job)
		} else {
			r, err = job()
		}
		if err != nil || r == nil || cell.events == nil {
			return r, err
		}
		r2 := *r
		t := &ReportTelemetry{WallSeconds: time.Since(start).Seconds(), CacheHit: hit}
		if r.simResult != nil {
			t.RunnerReused = r.simResult.PoolReused
		}
		r2.Telemetry = t
		return &r2, nil
	}
}

// cellSecondsH is the per-cell wall-clock distribution across every
// Stream/Execute/Sweep job (cache hits included — a hit's cell time is its
// cache wait). Bounds span sub-millisecond cached lookups to multi-second
// long-sequence simulations.
var cellSecondsH = obs.Default().Histogram("helix_cell_seconds",
	[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10})

// streamReports runs the jobs on a GOMAXPROCS-wide ordered pool
// (pool.Ordered) and yields each job's (report, error) in job order, as soon
// as it is available. A job error is yielded as (nil, err) and never aborts
// the remaining jobs; breaking out of the iteration launches nothing
// further.
//
// A non-nil sink receives a CellStarted/CellFinished event pair per job,
// carrying the job's label, the worker slot that ran it, its wall clock
// and (off the report's telemetry) the cache-hit flag.
func streamReports(jobs []func() (*Report, error), labels []string, sink obs.Sink) iter.Seq2[*Report, error] {
	labelAt := func(i int) string {
		if i < len(labels) {
			return labels[i]
		}
		return ""
	}
	return pool.Ordered(len(jobs), runtime.GOMAXPROCS(0), func(i, w int) (*Report, error) {
		start := time.Now()
		if sink != nil {
			sink.Emit(obs.Event{Kind: obs.CellStarted, Label: labelAt(i),
				Index: i, Total: len(jobs), Worker: w})
		}
		r, err := jobs[i]()
		cellSecondsH.Observe(time.Since(start).Seconds())
		if sink != nil {
			ev := obs.Event{Kind: obs.CellFinished, Label: labelAt(i),
				Index: i, Total: len(jobs), Worker: w,
				Duration: time.Since(start), Err: err}
			if r != nil && r.Telemetry != nil {
				ev.CacheHit = r.Telemetry.CacheHit
			}
			sink.Emit(ev)
		}
		return r, err
	})
}

// Stream is the streaming core of Sweep: it derives one session per
// (seqlen, stages) cell, runs every method on the cell's engine across a
// bounded worker pool, and yields the reports in deterministic grid order
// (seqlen-major, then stages, then method) as each becomes available. Cells
// that fail — an invalid derived geometry or a build/run error — yield
// (nil, err) and never abort the remaining cells. Sweep collects this
// stream; iterate it directly when the grid is large enough that buffering
// every report matters.
func (s *Session) Stream(sw Sweep) iter.Seq2[*Report, error] {
	methods := sw.Methods
	if len(methods) == 0 {
		methods = Methods()
	}
	seqLens := sw.SeqLens
	if len(seqLens) == 0 {
		seqLens = []int{s.SeqLen()}
	}
	stages := sw.Stages
	if len(stages) == 0 {
		stages = []int{s.stages}
	}
	engineOf := sw.Engine
	if engineOf == nil {
		engineOf = func(cell *Session) Engine { return cell.SimEngine() }
	}
	// Custom engine factories are opaque and cannot be content-keyed, so
	// only the default sim-engine path caches.
	cache := s.streamCache()
	if sw.Engine != nil {
		cache = nil
	}

	var jobs []func() (*Report, error)
	var labels []string
	for _, seq := range seqLens {
		for _, p := range stages {
			derived, derr := s.With(WithSeqLen(seq), WithStages(p))
			for _, m := range methods {
				seq, p, method := seq, p, m
				labels = append(labels, fmt.Sprintf("%s seq=%d p=%d", method, seq, p))
				if derr != nil {
					jobs = append(jobs, func() (*Report, error) {
						return nil, fmt.Errorf("seq=%d p=%d: %w", seq, p, derr)
					})
					continue
				}
				cell := derived
				run := func() (*Report, error) {
					r, err := cell.Run(engineOf(cell), method)
					if err != nil {
						return nil, fmt.Errorf("seq=%d p=%d: %w", cell.SeqLen(), cell.stages, err)
					}
					return r, nil
				}
				jobs = append(jobs, cachedJob(cache, cell, method, EngineSim, 0, "", 0, run))
			}
		}
	}
	return streamReports(jobs, labels, s.events)
}

// Sweep is a thin collector over Stream: it drains the stream and returns
// the successful reports in grid order plus the joined error of every
// failed cell.
func (s *Session) Sweep(sw Sweep) ([]*Report, error) {
	var reports []*Report
	var errs []error
	for r, err := range s.Stream(sw) {
		if err != nil {
			errs = append(errs, err)
			continue
		}
		reports = append(reports, r)
	}
	return reports, errors.Join(errs...)
}

// Execute runs a resolved experiment spec on the session, streaming its
// reports as they become available — a 500-cell sweep holds at most a
// worker-pool's worth of reports, not five hundred. The receiver is
// normally the session returned by
// spec.Resolve(); the spec's cells (method, seqlen, stages) derive from it
// with With. Per-cell failures yield (nil, err) and never abort the
// remaining cells; only an unresolvable spec ends the stream early (its one
// yield is the resolution error). Execute re-resolves the spec rather than
// trusting a caller-supplied RunSet — a deliberate tradeoff: resolution is
// milliseconds against simulation seconds, it is deterministic, and it
// keeps the iterator safe to build from a bare spec without a prior
// Resolve call.
//
// A RunKindTune spec streams the autotuner's evaluated points as compact
// sim reports (geometry plus iteration/throughput/bubble metrics) in grid
// order; use Autotune when the ranked TuneResult is wanted instead.
func (s *Session) Execute(spec *ExperimentSpec) iter.Seq2[*Report, error] {
	return func(yield func(*Report, error) bool) {
		n, err := spec.normalized()
		if err != nil {
			yield(nil, err)
			return
		}
		p, err := n.resolveParts()
		if err != nil {
			yield(nil, err)
			return
		}
		rs, err := n.runSet(p)
		if err != nil {
			yield(nil, err)
			return
		}
		if rs.Kind == RunKindFleet {
			// A fleet run produces one FleetReport, not a stream of cell
			// reports — it has its own entry point.
			yield(nil, fmt.Errorf("helixpipe: a fleet spec runs via Session.Fleet (or the helixfleet tool), not Execute"))
			return
		}
		if rs.Kind == RunKindDecode {
			// Likewise: a decode run produces one DecodeReport, via its own
			// entry point.
			yield(nil, fmt.Errorf("helixpipe: a decode spec runs via Session.Decode (or the helixserve tool), not Execute"))
			return
		}
		if rs.Kind == RunKindTune {
			s.executeTune(*rs.Tune, yield)
			return
		}
		cache := s.streamCache()
		if n.NoCache {
			cache = nil
		}
		jobs := make([]func() (*Report, error), 0, len(rs.Cells))
		labels := make([]string, 0, len(rs.Cells))
		for _, c := range rs.Cells {
			cell := c
			labels = append(labels, fmt.Sprintf("%s seq=%d p=%d", cell.Method, cell.SeqLen, cell.Stages))
			run := s
			var derr error
			if rs.Kind == RunKindSweep {
				// A workload spec sweeps stages only: re-deriving the
				// sequence length would clear its per-micro-batch shapes.
				opts := []Option{WithStages(cell.Stages)}
				if n.Workload == nil {
					opts = append(opts, WithSeqLen(cell.SeqLen))
				}
				run, derr = s.With(opts...)
			}
			runJob := func() (*Report, error) {
				if derr != nil {
					return nil, fmt.Errorf("seq=%d p=%d: %w", cell.SeqLen, cell.Stages, derr)
				}
				placed := run
				if rs.Placement != "" {
					// The placement search reads the method's own traffic
					// matrix, so each cell derives its own placed session.
					placement, err := run.PlacementFor(cell.Method, rs.Placement, rs.PlacementSeed)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", cell.Method, err)
					}
					if placed, err = run.With(WithPlacement(placement)); err != nil {
						return nil, fmt.Errorf("%s: %w", cell.Method, err)
					}
				}
				var engine Engine
				if rs.Engine == EngineNumeric {
					engine = placed.NumericEngine(rs.Seed)
				} else {
					engine = placed.SimEngine()
				}
				return placed.Run(engine, cell.Method)
			}
			if derr != nil {
				jobs = append(jobs, runJob)
				continue
			}
			jobs = append(jobs, cachedJob(cache, run, cell.Method, rs.Engine, rs.Seed, rs.Placement, rs.PlacementSeed, runJob))
		}
		for r, err := range streamReports(jobs, labels, s.events) {
			if !yield(r, err) {
				return
			}
		}
	}
}

// executeTune streams a tune-kind run: each evaluated grid point becomes a
// compact sim report, pruned points yield their prune error.
func (s *Session) executeTune(spec TuneSpec, yield func(*Report, error) bool) {
	search, err := tune.NewSearch(s.model, s.cluster, s.fillTuneDefaults(spec))
	if err != nil {
		yield(nil, err)
		return
	}
	for point, err := range search.Points() {
		if err != nil {
			if !yield(nil, err) {
				return
			}
			continue
		}
		r := &Report{
			Method:             point.Method,
			Engine:             EngineSim,
			Model:              s.model.Name,
			Cluster:            s.cluster.Name,
			SeqLen:             point.SeqLen,
			MicroBatchSize:     point.MicroBatchSize,
			Stages:             point.Stages,
			MicroBatches:       point.MicroBatches,
			Layers:             s.model.Layers,
			PlacementStrategy:  point.Placement,
			Placement:          append([]int(nil), point.PlacementDevices...),
			PadFraction:        point.PadFraction,
			TokensPerIteration: point.TokensPerIteration,
			Sim: &SimMetrics{
				IterationSeconds: point.IterationSeconds,
				TokensPerSecond:  point.TokensPerSecond,
				BubbleFraction:   point.BubbleFraction,
				BubbleSeconds:    point.BubbleFraction * point.IterationSeconds,
			},
		}
		if !yield(r, nil) {
			return
		}
	}
}

// fillTuneDefaults resolves a TuneSpec's empty axes against the session's
// own geometry, topology and perturbation — shared by Autotune and the
// tune-kind Execute path.
func (s *Session) fillTuneDefaults(spec TuneSpec) TuneSpec {
	if len(spec.SeqLens) == 0 && len(spec.Workloads) == 0 {
		if len(s.batch.Shapes) > 0 {
			// A variable-length session tunes its own workload by default.
			spec.Workloads = []TuneWorkload{{Name: "session", Batch: s.batch}}
		} else {
			spec.SeqLens = []int{s.SeqLen()}
		}
	}
	if len(spec.Stages) == 0 {
		spec.Stages = []int{s.stages}
	}
	if len(spec.MicroBatches) == 0 && s.mbExplicit {
		spec.MicroBatches = []int{s.microBatches}
	}
	if len(spec.MicroBatchSizes) == 0 {
		spec.MicroBatchSizes = []int{s.MicroBatchSize()}
	}
	if spec.Cluster == nil && s.topo != nil {
		// A topology-aware session tunes placements on its own topology by
		// default — including its perturbation, so a degraded-fabric session
		// ranks configurations under the degraded fabric.
		spec.Cluster = s.topo
		if spec.Perturb == nil && !s.perturb.Zero() {
			p := s.perturb
			spec.Perturb = &p
		}
	}
	if spec.Sink == nil {
		// An observed session's tune runs report progress to the same sink.
		spec.Sink = s.events
	}
	return spec
}
