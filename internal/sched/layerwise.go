package sched

import (
	"repro/internal/model"
)

// This file implements the layer-wise baselines: the model is partitioned
// into contiguous layer chunks, one per stage, and micro batches flow
// stage-to-stage (GPipe and 1F1B here; ZB1P and AdaPipe build on the same
// emit helpers in their own files).

// layerwise accumulates per-stage programs for chunked layer partitions.
type layerwise struct {
	cfg    Config
	costs  Costs
	chunks [][]int  // chunks[stage] lists the stage's layer indices
	recomp [][]bool // recomp[stage][layer]: fully recompute that layer
	ops    [][]Op
}

// evenChunks partitions L layers into p contiguous equal chunks.
func evenChunks(layers, stages int) [][]int {
	per := layers / stages
	chunks := make([][]int, stages)
	next := 0
	for s := range chunks {
		for i := 0; i < per; i++ {
			chunks[s] = append(chunks[s], next)
			next++
		}
	}
	return chunks
}

// chunksFromSizes partitions layers into contiguous chunks of the given
// sizes (which must sum to the layer count).
func chunksFromSizes(sizes []int) [][]int {
	chunks := make([][]int, len(sizes))
	next := 0
	for s, n := range sizes {
		for i := 0; i < n; i++ {
			chunks[s] = append(chunks[s], next)
			next++
		}
	}
	return chunks
}

func newLayerwise(cfg Config, costs Costs, chunks [][]int) *layerwise {
	lw := &layerwise{
		cfg:    cfg,
		costs:  costs,
		chunks: chunks,
		recomp: make([][]bool, cfg.Stages),
		ops:    make([][]Op, cfg.Stages),
	}
	flags := make([]bool, cfg.Stages*cfg.Layers)
	for s := range lw.recomp {
		lw.recomp[s] = flags[s*cfg.Layers : (s+1)*cfg.Layers]
	}
	return lw
}

func (lw *layerwise) emit(stage int, op Op) { lw.ops[stage] = append(lw.ops[stage], op) }

// inBoundaryLayer returns the layer identifying the activation boundary
// entering the stage (the first layer of its chunk).
func (lw *layerwise) inBoundaryLayer(stage int) int { return lw.chunks[stage][0] }

// emitFStep emits the full forward step of one micro batch on one stage:
// receive the boundary activation (or embed on stage 0), run every chunk
// layer segment by segment, and forward the result downstream. Costs come
// from the micro batch's own book, so variable-length micro batches get
// shape-correct durations, stashes and message volumes.
func (lw *layerwise) emitFStep(stage, mb int) {
	c := lw.costs.StageMB(stage, mb)
	if stage == 0 {
		lw.emit(stage, Op{Kind: KForward, MB: mb, Layer: LayerEmbed, Dur: c.EmbedF})
	} else {
		lw.emit(stage, Op{Kind: KRecv, MB: mb, Peer: stage - 1,
			Tag: Tag{MB: mb, Layer: lw.inBoundaryLayer(stage), Bound: BoundAct}})
	}
	for _, layer := range lw.chunks[stage] {
		rec := lw.recomp[stage][layer]
		for _, seg := range model.Segments {
			op := Op{Kind: KForward, MB: mb, Layer: layer, Seg: seg, Dur: c.SegDur(seg, KForward)}
			switch {
			case rec && seg == model.SegPre:
				op.Alloc = c.InputStash // keep only the layer input
			case rec:
				op.Alloc = 0
			default:
				op.Alloc = c.SegStash[seg]
			}
			lw.emit(stage, op)
		}
	}
	if stage < lw.cfg.Stages-1 {
		lw.emit(stage, Op{Kind: KSend, MB: mb, Peer: stage + 1,
			Tag:   Tag{MB: mb, Layer: lw.inBoundaryLayer(stage + 1), Bound: BoundAct},
			Bytes: c.BoundBytes[BoundAct]})
	}
}

// emitBStep emits the backward step of one micro batch: receive the gradient
// (or run the deferred head forward+loss+backward on the last stage), walk
// the chunk layers in reverse with backward-B, optionally emitting the
// weight gradients in place (withW), and send the boundary gradient
// upstream. With withW false the caller is responsible for scheduling the
// corresponding W ops later (ZB1P).
func (lw *layerwise) emitBStep(stage, mb int, withW bool) {
	c := lw.costs.StageMB(stage, mb)
	last := lw.cfg.Stages - 1
	if stage == last {
		// Section 4.6: the LM-head forward and loss run inside the backward
		// pass, so no [s,b,V] logits tensor is ever stashed. The head input
		// and output gradient live until the head's backward-W.
		lw.emit(stage, Op{Kind: KBackwardB, MB: mb, Layer: LayerHead, Dur: c.HeadFB, Alloc: c.EmbedGradStash})
		if withW {
			lw.emit(stage, Op{Kind: KBackwardW, MB: mb, Layer: LayerHead, Dur: c.HeadW, Free: c.EmbedGradStash})
		}
	} else {
		lw.emit(stage, Op{Kind: KRecv, MB: mb, Peer: stage + 1,
			Tag: Tag{MB: mb, Layer: lw.inBoundaryLayer(stage + 1), Bound: BoundAct, Back: true}})
	}
	for i := len(lw.chunks[stage]) - 1; i >= 0; i-- {
		layer := lw.chunks[stage][i]
		if lw.recomp[stage][layer] {
			// Full-layer recomputation (AdaPipe style): regenerate all three
			// segment stashes from the retained layer input, one op per
			// segment so the numeric executor can replay it faithfully.
			for _, seg := range model.Segments {
				alloc := c.SegStash[seg]
				if seg == model.SegPre {
					alloc -= c.InputStash
				}
				lw.emit(stage, Op{Kind: KRecompute, MB: mb, Layer: layer, Seg: seg,
					Dur: c.SegRecompute[seg], Alloc: alloc})
			}
		}
		for s := len(model.Segments) - 1; s >= 0; s-- {
			seg := model.Segments[s]
			lw.emit(stage, Op{Kind: KBackwardB, MB: mb, Layer: layer, Seg: seg,
				Dur: c.SegDur(seg, KBackwardB), Free: c.SegStashBFree[seg]})
			if withW && seg != model.SegAttn {
				lw.emit(stage, Op{Kind: KBackwardW, MB: mb, Layer: layer, Seg: seg,
					Dur: c.SegDur(seg, KBackwardW), Free: c.SegStashWFree[seg]})
			}
		}
	}
	if stage == 0 {
		if withW {
			lw.emit(stage, Op{Kind: KBackwardW, MB: mb, Layer: LayerEmbed, Dur: c.EmbedW})
		}
	} else {
		lw.emit(stage, Op{Kind: KSend, MB: mb, Peer: stage - 1,
			Tag:   Tag{MB: mb, Layer: lw.inBoundaryLayer(stage), Bound: BoundAct, Back: true},
			Bytes: c.BoundBytes[BoundAct]})
	}
}

// emitWStep emits the deferred weight-gradient ops of one (micro batch,
// layer) unit: post then pre, in the order ZB1P fills bubbles with.
func (lw *layerwise) emitWStep(stage, mb, layer int) {
	c := lw.costs.StageMB(stage, mb)
	for _, seg := range []model.Segment{model.SegPost, model.SegPre} {
		lw.emit(stage, Op{Kind: KBackwardW, MB: mb, Layer: layer, Seg: seg,
			Dur: c.SegDur(seg, KBackwardW), Free: c.SegStashWFree[seg]})
	}
}

// wStepDur returns the duration of one emitWStep for one micro batch on one
// stage.
func (lw *layerwise) wStepDur(stage, mb int) float64 {
	c := lw.costs.StageMB(stage, mb)
	return c.SegDur(model.SegPost, KBackwardW) + c.SegDur(model.SegPre, KBackwardW)
}

// fStepDur returns the duration of one emitFStep's compute on a stage.
func (lw *layerwise) fStepDur(stage, mb int) float64 {
	c := lw.costs.StageMB(stage, mb)
	d := 0.0
	if stage == 0 {
		d += c.EmbedF
	}
	d += float64(len(lw.chunks[stage])) * c.LayerDur(KForward)
	return d
}

// bStepDur returns the duration of one emitBStep's compute on a stage.
func (lw *layerwise) bStepDur(stage, mb int, withW bool) float64 {
	c := lw.costs.StageMB(stage, mb)
	d := 0.0
	if stage == lw.cfg.Stages-1 {
		d += c.HeadFB
		if withW {
			d += c.HeadW
		}
	}
	for _, layer := range lw.chunks[stage] {
		if lw.recomp[stage][layer] {
			d += c.SegRecompute[model.SegPre] + c.SegRecompute[model.SegAttn] + c.SegRecompute[model.SegPost]
		}
		d += c.LayerDur(KBackwardB)
		if withW {
			d += c.SegDur(model.SegPre, KBackwardW) + c.SegDur(model.SegPost, KBackwardW)
		}
	}
	if stage == 0 && withW {
		d += c.EmbedW
	}
	return d
}

func (lw *layerwise) plan(method Method) *Plan {
	return &Plan{
		Method:       method,
		Stages:       lw.cfg.Stages,
		MicroBatches: lw.cfg.MicroBatches,
		Layers:       lw.cfg.Layers,
		Ops:          lw.ops,
		Costs:        lw.costs,
		Batch:        lw.cfg.Batch,
	}
}

// GPipe builds the GPipe schedule: all forward passes in micro-batch order,
// then all backward passes in reverse (first-in-last-out), weight gradients
// in place. Referenced by the paper's related work as the original FILO
// pipeline with layer-wise partitioning.
func GPipe(cfg Config, costs Costs) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lw := newLayerwise(cfg, costs, evenChunks(cfg.Layers, cfg.Stages))
	for s := 0; s < cfg.Stages; s++ {
		for mb := 0; mb < cfg.MicroBatches; mb++ {
			lw.emitFStep(s, mb)
		}
		for mb := cfg.MicroBatches - 1; mb >= 0; mb-- {
			lw.emitBStep(s, mb, true)
		}
	}
	return lw.plan(MethodGPipe), nil
}

// OneFOneB builds the 1F1B schedule of PipeDream/DAPPLE as deployed by
// Megatron-LM: stage i warms up with p-1-i forward passes, then alternates
// one-forward-one-backward, then drains. Weight gradients run fused with
// backward-B (paper section 2.3.1).
func OneFOneB(cfg Config, costs Costs) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return oneFOneBOn(newLayerwise(cfg, costs, evenChunks(cfg.Layers, cfg.Stages))), nil
}

// oneFOneBOn runs the canonical 1F1B emission order on a prepared layerwise
// builder (shared with AdaPipe, which changes chunks and recompute sets).
func oneFOneBOn(lw *layerwise) *Plan {
	cfg := lw.cfg
	for s := 0; s < cfg.Stages; s++ {
		warmup := cfg.Stages - 1 - s
		if warmup > cfg.MicroBatches {
			warmup = cfg.MicroBatches
		}
		for mb := 0; mb < warmup; mb++ {
			lw.emitFStep(s, mb)
		}
		for mb := warmup; mb < cfg.MicroBatches; mb++ {
			lw.emitFStep(s, mb)
			lw.emitBStep(s, mb-warmup, true)
		}
		for mb := cfg.MicroBatches - warmup; mb < cfg.MicroBatches; mb++ {
			lw.emitBStep(s, mb, true)
		}
	}
	return lw.plan(Method1F1B)
}
