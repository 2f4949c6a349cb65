package sched

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
)

// MBCosts is the cost book of one micro batch: compute durations, stash byte
// deltas, and communication volumes, all derived from that micro batch's own
// (b, s) shape. All durations are seconds, all sizes node- or GPU-local bytes
// as noted.
type MBCosts struct {
	// Seg holds the per-segment compute durations indexed [segment][pass].
	Seg [3][3]float64
	// SegRecompute is the duration of re-running a segment forward.
	SegRecompute [3]float64
	// EmbedF and EmbedW are the input-embedding forward and weight-gradient
	// durations; the embedding has no backward-B (nothing below it).
	EmbedF, EmbedW float64
	// HeadFB is the fused LM-head forward + loss + backward-B duration: the
	// paper's section 4.6 defers the head forward into the backward pass, so
	// plans execute it as one backward-time unit.
	HeadFB float64
	// HeadW is the LM-head weight-gradient duration.
	HeadW float64

	// SegStash is the full per-GPU activation stash of each segment.
	SegStash [3]int64
	// SegStashBFree and SegStashWFree split SegStash into the portions
	// released by backward-B (non-parameterized components) and backward-W
	// (parameterized components). They sum to SegStash per segment.
	SegStashBFree, SegStashWFree [3]int64
	// HelixSegStash is the reduced per-GPU stash under recomputation
	// without attention (2bsh for attention, 1bsh for pre and post).
	HelixSegStash [3]int64
	// InputStash is the per-GPU size of one boundary activation, the only
	// stash a fully recomputed layer keeps.
	InputStash int64
	// EmbedGradStash is the per-GPU fp32 stash ZB1P holds at the last stage
	// between the head's backward-B and its deferred backward-W.
	EmbedGradStash int64

	// BoundBytes holds the node-aggregate message volume per boundary kind,
	// indexed by Boundary.
	BoundBytes [3]int64
}

// Costs is the cost book a generator annotates a plan with. The embedded
// MBCosts is the uniform cost book every micro batch shares on fixed-length
// workloads; PerMB overrides it per micro batch on variable-length workloads,
// where each micro batch's durations, stashes and message volumes follow its
// own shape.
type Costs struct {
	MBCosts
	// PerMB holds per-micro-batch cost books for variable-length workloads;
	// index is the micro batch. Empty means every micro batch uses the
	// embedded uniform book.
	PerMB []MBCosts
	// PerStage holds placement-resolved per-stage books: PerStage[s] prices
	// stage s against its placed node (intra-node link class, device
	// generation, perturbation factor). Empty means every stage shares the
	// flat cluster-global books — the pre-placement behavior. When present,
	// the simulator must not stretch compute by topology factors again; the
	// books already carry them.
	PerStage []Costs
	// P2PLatency and P2PBytesPerSec parameterize inter-stage links (shared by
	// all micro batches; the hardware does not change per message).
	P2PLatency     float64
	P2PBytesPerSec float64
}

// MB returns the cost book of one micro batch: the per-micro-batch override
// when present, the uniform book otherwise. The uniform fallback is shared
// with MeanMB: both answer "no overrides, or an out-of-range request" with
// the embedded book.
func (c Costs) MB(mb int) MBCosts {
	if mb >= 0 && mb < len(c.PerMB) {
		return c.PerMB[mb]
	}
	return c.MBCosts
}

// StageMB returns the cost book of one micro batch as priced on one placed
// stage: PerStage[stage].MB(mb) when the costs carry placed books, MB(mb)
// otherwise, so both levels share MB's one fallback rule. Generators price
// every duration through this so per-stage compute, collective and
// perturbation differences reach the plan's ops. Byte fields (stashes,
// message volumes) are shape-derived and identical across stages, so
// stage-agnostic callers may keep using MB.
func (c Costs) StageMB(stage, mb int) MBCosts {
	if stage >= 0 && stage < len(c.PerStage) {
		return c.PerStage[stage].MB(mb)
	}
	return c.MB(mb)
}

// Variable reports whether the cost book carries per-micro-batch overrides.
func (c Costs) Variable() bool { return len(c.PerMB) > 0 }

// newMBCosts fills one micro batch's cost book from a cost-model workload.
func newMBCosts(w costmodel.Workload) MBCosts {
	var c MBCosts
	for _, seg := range model.Segments {
		i := int(seg)
		c.Seg[i][model.Forward] = w.SegmentTime(seg, model.Forward)
		c.Seg[i][model.BackwardB] = w.SegmentTime(seg, model.BackwardB)
		c.Seg[i][model.BackwardW] = w.SegmentTime(seg, model.BackwardW)
		c.SegRecompute[i] = w.SegmentTime(seg, model.Forward)
		c.SegStash[i] = w.SegmentStashBytes(seg)
		sp := seqParOf(w)
		c.SegStashBFree[i] = w.Model.SegmentStashFreedBy(seg, model.BackwardB, w.Shape) * model.FP16Bytes / sp
		c.SegStashWFree[i] = w.Model.SegmentStashFreedBy(seg, model.BackwardW, w.Shape) * model.FP16Bytes / sp
		c.HelixSegStash[i] = w.HelixSegmentStashBytes(seg)
	}
	c.EmbedF = w.EmbeddingTime(model.Forward)
	c.EmbedW = w.EmbeddingTime(model.BackwardW)
	c.HeadFB = w.HeadTime(model.Forward) + w.HeadTime(model.BackwardB)
	c.HeadW = w.HeadTime(model.BackwardW)
	c.InputStash = w.InputStashBytes()
	c.EmbedGradStash = w.EmbeddingGradStashBytes()
	c.BoundBytes[BoundAct] = w.ActivationP2PBytes()
	c.BoundBytes[BoundPreAttn] = w.HelixPreAttnBytes()
	c.BoundBytes[BoundAttnPost] = w.HelixAttnPostBytes()
	return c
}

// NewCosts builds the cost book plans are annotated with. An empty batch
// prices every micro batch at the workload's own shape. A non-empty batch
// prices micro batch i at batch.Shapes[i], so every generator emits
// durations, stash deltas and message volumes that follow each micro batch's
// own shape; its uniform book is costed at the per-axis maximum shape,
// keeping out-of-range lookups conservative, and a uniform batch needs no
// per-micro-batch overrides. A non-nil topology adds PerStage[s]: the same
// books priced against stage s's placed node (intra-node link class, device
// generation, perturbation factor), while the top-level books stay the flat
// cluster-global ones partition heuristics like AdaPipe's DP reason with.
// Per-shape books are memoized by workload, so identical cells across a
// sweep or fleet stream, and the few distinct lengths of a batch, each price
// once.
func NewCosts(w costmodel.Workload, batch model.BatchSpec, topo *cluster.Topology) Costs {
	c := shapeCosts(w, batch)
	if topo != nil {
		c.PerStage = make([]Costs, topo.Stages())
		for s := range c.PerStage {
			c.PerStage[s] = shapeCosts(placedWorkload(w, topo, s), batch)
		}
	}
	return c
}

// shapeCosts builds the uniform and per-micro-batch books of one workload.
func shapeCosts(w costmodel.Workload, batch model.BatchSpec) Costs {
	if len(batch.Shapes) > 0 {
		w.Shape = batch.MaxShape()
	}
	c := Costs{
		MBCosts:        memoMBCosts(w),
		P2PLatency:     w.Cluster.InterNodeLatency,
		P2PBytesPerSec: w.Cluster.InterNodeGBps * 1e9,
	}
	if _, uniform := batch.Uniform(); uniform || len(batch.Shapes) == 0 {
		return c
	}
	c.PerMB = make([]MBCosts, len(batch.Shapes))
	for i, sh := range batch.Shapes {
		wi := w
		wi.Shape = sh
		c.PerMB[i] = memoMBCosts(wi)
	}
	return c
}

// placedWorkload resolves the workload to one placed stage of the topology:
// collectives priced on the placed node's intra link, compute on its device
// generation, durations stretched by its perturbation factor. The placed
// fields are comparable parts of the workload, so the cost-book memo keys on
// the placement signature automatically.
func placedWorkload(w costmodel.Workload, topo *cluster.Topology, stage int) costmodel.Workload {
	if l := topo.IntraLink(stage); l.GBps > 0 {
		w.Link = costmodel.LinkSpec{Class: string(l.Class), GBps: l.GBps, LatencySec: l.LatencySec}
	}
	if name := topo.GPUName(stage); name != "" {
		if g, ok := costmodel.GPUByName(name); ok {
			w.GPU = g
		}
	}
	w.ComputeFactor = topo.ComputeFactor(stage)
	return w
}

func seqParOf(w costmodel.Workload) int64 {
	if w.SeqPar <= 0 {
		return int64(w.Cluster.GPUsPerNode)
	}
	return int64(w.SeqPar)
}

// SegDur returns the compute duration of a segment op of the given kind.
func (c MBCosts) SegDur(seg model.Segment, kind OpKind) float64 {
	switch kind {
	case KForward:
		return c.Seg[seg][model.Forward]
	case KBackwardB:
		return c.Seg[seg][model.BackwardB]
	case KBackwardW:
		return c.Seg[seg][model.BackwardW]
	case KRecompute:
		return c.SegRecompute[seg]
	default:
		return 0
	}
}

// LayerDur returns the whole-layer duration for a compute kind.
func (c MBCosts) LayerDur(kind OpKind) float64 {
	var d float64
	for _, seg := range model.Segments {
		d += c.SegDur(seg, kind)
	}
	return d
}

// P2PTime returns the wall time of one inter-stage transfer of the given
// node-aggregate volume.
func (c Costs) P2PTime(bytes int64) float64 {
	if c.P2PBytesPerSec <= 0 {
		return c.P2PLatency
	}
	return c.P2PLatency + float64(bytes)/c.P2PBytesPerSec
}

// MeanMB returns the cost book averaged over the plan's m micro batches —
// the aggregate book partition heuristics (AdaPipe's DP) reason with when
// per-micro-batch shapes differ. With no per-micro-batch overrides it is the
// uniform book itself (the same fallback MB takes).
func (c Costs) MeanMB(m int) MBCosts {
	if len(c.PerMB) == 0 || m <= 0 {
		return c.MBCosts
	}
	var out MBCosts
	for mb := 0; mb < m; mb++ {
		out.add(c.MB(mb))
	}
	out.divide(m)
	return out
}

// add accumulates another book field by field.
func (c *MBCosts) add(b MBCosts) {
	for i := 0; i < 3; i++ {
		for p := 0; p < 3; p++ {
			c.Seg[i][p] += b.Seg[i][p]
		}
		c.SegRecompute[i] += b.SegRecompute[i]
		c.SegStash[i] += b.SegStash[i]
		c.SegStashBFree[i] += b.SegStashBFree[i]
		c.SegStashWFree[i] += b.SegStashWFree[i]
		c.HelixSegStash[i] += b.HelixSegStash[i]
		c.BoundBytes[i] += b.BoundBytes[i]
	}
	c.EmbedF += b.EmbedF
	c.EmbedW += b.EmbedW
	c.HeadFB += b.HeadFB
	c.HeadW += b.HeadW
	c.InputStash += b.InputStash
	c.EmbedGradStash += b.EmbedGradStash
}

// divide scales every field down by m (durations in floating point, byte
// fields by integer division).
func (c *MBCosts) divide(m int) {
	div, fdiv := int64(m), float64(m)
	for i := 0; i < 3; i++ {
		for p := 0; p < 3; p++ {
			c.Seg[i][p] /= fdiv
		}
		c.SegRecompute[i] /= fdiv
		c.SegStash[i] /= div
		c.SegStashBFree[i] /= div
		c.SegStashWFree[i] /= div
		c.HelixSegStash[i] /= div
		c.BoundBytes[i] /= div
	}
	c.EmbedF /= fdiv
	c.EmbedW /= fdiv
	c.HeadFB /= fdiv
	c.HeadW /= fdiv
	c.InputStash /= div
	c.EmbedGradStash /= div
}

// ZeroCommCosts returns a copy of the cost book with free communication
// (zero latency and infinite bandwidth is approximated by pricing every
// transfer at the latency floor of zero). Used by experiments isolating
// pure schedule shape, like the Table 2 bubble validation.
func (c Costs) ZeroCommCosts() Costs {
	out := c
	out.P2PLatency = 0
	out.P2PBytesPerSec = 0
	out.BoundBytes = [3]int64{}
	if len(c.PerMB) > 0 {
		out.PerMB = append([]MBCosts(nil), c.PerMB...)
		for mb := range out.PerMB {
			out.PerMB[mb].BoundBytes = [3]int64{}
		}
	}
	if len(c.PerStage) > 0 {
		out.PerStage = make([]Costs, len(c.PerStage))
		for s, book := range c.PerStage {
			out.PerStage[s] = book.ZeroCommCosts()
		}
	}
	return out
}

// unitMBCosts builds the didactic per-segment book with every duration,
// stash and message volume multiplied by scale. Byte fields round to the
// nearest integer, and composite stashes derive from their rounded parts so
// the alloc/free conservation the validator enforces survives fractional
// scales.
func unitMBCosts(scale float64, commTime float64) MBCosts {
	var c MBCosts
	bytes := func(base float64) int64 { return int64(math.Round(base * scale)) }
	ratio := [3]float64{1, 3, 2}
	for i := 0; i < 3; i++ {
		c.Seg[i][model.Forward] = ratio[i] * scale
		// The figures draw backward time equal to forward "for brevity";
		// splitting it as B=2/3 and W=1/3 of the segment keeps F+B+W = 2F
		// per segment while exercising the B/W decoupling. Attention has no
		// W, so its backward-B carries the full backward time.
		if model.Segment(i) == model.SegAttn {
			c.Seg[i][model.BackwardB] = ratio[i] * scale
			c.Seg[i][model.BackwardW] = 0
		} else {
			c.Seg[i][model.BackwardB] = ratio[i] * scale * 2 / 3
			c.Seg[i][model.BackwardW] = ratio[i] * scale / 3
		}
		c.SegRecompute[i] = ratio[i] * scale
		c.SegStashBFree[i] = bytes(8)
		c.SegStashWFree[i] = bytes(8)
		c.SegStash[i] = c.SegStashBFree[i] + c.SegStashWFree[i]
		c.HelixSegStash[i] = bytes(4)
	}
	// Attention stash is entirely released by backward-B (no parameters).
	c.SegStashBFree[model.SegAttn] = c.SegStash[model.SegAttn]
	c.SegStashWFree[model.SegAttn] = 0
	c.InputStash = bytes(2)
	c.EmbedGradStash = bytes(8)
	c.BoundBytes = [3]int64{bytes(1), bytes(2), bytes(2)}
	if commTime > 0 {
		c.BoundBytes = [3]int64{bytes(1), bytes(1), bytes(1)}
	}
	return c
}

// UnitCosts returns a synthetic cost book with the paper's didactic
// execution-time ratio t_pre : t_attn : t_post = 1 : 3 : 2 (Figures 2, 5, 6,
// 7), backward-B = forward and backward-W = forward per segment, unit
// stashes, and the given per-message communication time. Used by the
// figure-reproduction experiments and schedule unit tests.
func UnitCosts(commTime float64) Costs {
	c := Costs{MBCosts: unitMBCosts(1, commTime)}
	if commTime > 0 {
		c.P2PLatency = 0
		c.P2PBytesPerSec = 1 / commTime // 1 byte message units
	}
	return c
}

// UnitBatchCosts returns the didactic cost book with per-micro-batch scale
// factors: micro batch i's durations, stashes and message volumes are the
// unit book times scales[i]. It drives variable-length schedule unit tests
// without a cost model.
func UnitBatchCosts(commTime float64, scales []float64) Costs {
	c := UnitCosts(commTime)
	if len(scales) == 0 {
		return c
	}
	maxScale := scales[0]
	for _, s := range scales[1:] {
		if s > maxScale {
			maxScale = s
		}
	}
	c.MBCosts = unitMBCosts(maxScale, commTime)
	c.PerMB = make([]MBCosts, len(scales))
	for i, s := range scales {
		c.PerMB[i] = unitMBCosts(s, commTime)
	}
	return c
}
