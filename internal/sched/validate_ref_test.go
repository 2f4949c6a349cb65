package sched

import (
	"fmt"

	"repro/internal/model"
)

// This file keeps the map-based plan validator that Validate replaced, as
// the oracle of the differential tests and the fuzz target: referenceValidate
// runs the same checks in the same order over struct-keyed maps. It does not
// memoize, does not range-check op layers, segments or tags, and allows a
// second in-flight send of one tag; its "never received" error names
// whichever unreceived message map iteration reaches first.

func refTokenOfTag(t Tag) token {
	if !t.Back {
		switch t.Bound {
		case BoundAct:
			return token{kind: tokA, mb: t.MB, layer: t.Layer}
		case BoundPreAttn:
			return token{kind: tokQ, mb: t.MB, layer: t.Layer}
		default:
			return token{kind: tokO, mb: t.MB, layer: t.Layer}
		}
	}
	switch t.Bound {
	case BoundAct:
		return token{kind: tokGA, mb: t.MB, layer: t.Layer}
	case BoundPreAttn:
		return token{kind: tokGQ, mb: t.MB, layer: t.Layer}
	default:
		return token{kind: tokGO, mb: t.MB, layer: t.Layer}
	}
}

// refOpIO returns the tokens an op requires and produces. Recompute ops have no
// token effects (they regenerate locally stashed intermediates).
func refOpIO(op Op, layers int) (req []token, prod []token) {
	switch op.Kind {
	case KForward:
		switch op.Layer {
		case LayerEmbed:
			return nil, []token{{kind: tokA, mb: op.MB, layer: 0}}
		case LayerHead:
			return []token{{kind: tokA, mb: op.MB, layer: layers}}, nil
		}
		switch op.Seg {
		case model.SegPre:
			return []token{{kind: tokA, mb: op.MB, layer: op.Layer}},
				[]token{{kind: tokQ, mb: op.MB, layer: op.Layer}}
		case model.SegAttn:
			return []token{{kind: tokQ, mb: op.MB, layer: op.Layer}},
				[]token{{kind: tokO, mb: op.MB, layer: op.Layer}}
		default:
			return []token{{kind: tokO, mb: op.MB, layer: op.Layer}},
				[]token{{kind: tokA, mb: op.MB, layer: op.Layer + 1}}
		}
	case KBackwardB:
		switch op.Layer {
		case LayerHead:
			// Deferred head: forward + loss + backward in one op (4.6).
			return []token{{kind: tokA, mb: op.MB, layer: layers}},
				[]token{
					{kind: tokGA, mb: op.MB, layer: layers},
					{kind: tokWEnable, mb: op.MB, layer: LayerHead},
				}
		case LayerEmbed:
			return []token{{kind: tokGA, mb: op.MB, layer: 0}}, nil
		}
		switch op.Seg {
		case model.SegPost:
			return []token{{kind: tokGA, mb: op.MB, layer: op.Layer + 1}},
				[]token{
					{kind: tokGO, mb: op.MB, layer: op.Layer},
					{kind: tokWEnable, mb: op.MB, layer: op.Layer, seg: model.SegPost},
				}
		case model.SegAttn:
			return []token{{kind: tokGO, mb: op.MB, layer: op.Layer}},
				[]token{{kind: tokGQ, mb: op.MB, layer: op.Layer}}
		default:
			return []token{{kind: tokGQ, mb: op.MB, layer: op.Layer}},
				[]token{
					{kind: tokGA, mb: op.MB, layer: op.Layer},
					{kind: tokWEnable, mb: op.MB, layer: op.Layer, seg: model.SegPre},
				}
		}
	case KBackwardW:
		switch op.Layer {
		case LayerHead:
			return []token{{kind: tokWEnable, mb: op.MB, layer: LayerHead}}, nil
		case LayerEmbed:
			return []token{{kind: tokGA, mb: op.MB, layer: 0}}, nil
		}
		return []token{{kind: tokWEnable, mb: op.MB, layer: op.Layer, seg: op.Seg}}, nil
	}
	return nil, nil
}

// referenceValidate checks the plan's structural and dataflow invariants and returns
// a descriptive error for the first violation found.
func referenceValidate(p *Plan) error {
	if len(p.Ops) != p.Stages {
		return fmt.Errorf("sched: plan has %d stage programs, want %d", len(p.Ops), p.Stages)
	}
	if err := refValidateStructure(p); err != nil {
		return err
	}
	if err := refValidateCounts(p); err != nil {
		return err
	}
	if err := refValidateDataflow(p); err != nil {
		return err
	}
	if err := refValidateMemory(p); err != nil {
		return err
	}
	return nil
}

func refValidateStructure(p *Plan) error {
	if n := len(p.Batch.Shapes); n > 0 && n != p.MicroBatches {
		return fmt.Errorf("sched: plan batch spec has %d shapes for %d micro batches", n, p.MicroBatches)
	}
	if n := len(p.Placement); n > 0 {
		if n != p.Stages {
			return fmt.Errorf("sched: plan placement maps %d devices for %d stages", n, p.Stages)
		}
		seen := map[int]int{}
		for stage, dev := range p.Placement {
			if dev < 0 {
				return fmt.Errorf("sched: plan placement stage %d on negative device %d", stage, dev)
			}
			if prev, ok := seen[dev]; ok {
				return fmt.Errorf("sched: plan placement stages %d and %d share device %d", prev, stage, dev)
			}
			seen[dev] = stage
		}
	}
	for s, ops := range p.Ops {
		for i, op := range ops {
			if op.Kind.IsCompute() && op.Dur < 0 {
				return fmt.Errorf("sched: stage %d op %d (%v): negative duration", s, i, op)
			}
			if op.Kind == KSend || op.Kind == KRecv {
				if op.Peer < 0 || op.Peer >= p.Stages {
					return fmt.Errorf("sched: stage %d op %d (%v): peer out of range", s, i, op)
				}
				if op.Peer == s {
					return fmt.Errorf("sched: stage %d op %d (%v): self communication", s, i, op)
				}
			}
			if op.MB < 0 || (op.Kind != KSend && op.Kind != KRecv && op.MB >= p.MicroBatches) {
				return fmt.Errorf("sched: stage %d op %d (%v): micro batch out of range", s, i, op)
			}
		}
	}
	return nil
}

// refValidateCounts checks that every (micro batch, layer, segment) gets
// exactly one forward, one backward-B, exactly one backward-W for the
// parameterized segments and none for attention, plus exactly one embedding
// forward, embedding W, head backward and head W per micro batch — and that
// the stash-holding passes of a (layer, segment) are colocated on one stage.
func refValidateCounts(p *Plan) error {
	type key struct {
		mb, layer int
		seg       model.Segment
		kind      OpKind
	}
	count := map[key]int{}
	home := map[key]int{} // stage of the forward pass
	for s, ops := range p.Ops {
		for _, op := range ops {
			if !op.Kind.IsCompute() || op.Kind == KRecompute {
				continue
			}
			k := key{mb: op.MB, layer: op.Layer, seg: op.Seg, kind: op.Kind}
			count[k]++
			fk := key{mb: op.MB, layer: op.Layer, seg: op.Seg, kind: KForward}
			switch op.Kind {
			case KForward:
				home[fk] = s
			case KBackwardB, KBackwardW:
				if op.Layer >= 0 {
					if fs, ok := home[fk]; ok && fs != s {
						return fmt.Errorf("sched: %v on stage %d but forward ran on stage %d (stash not local)", op, s, fs)
					}
				}
			}
		}
	}
	for mb := 0; mb < p.MicroBatches; mb++ {
		for l := 0; l < p.Layers; l++ {
			for _, seg := range model.Segments {
				if c := count[key{mb, l, seg, KForward}]; c != 1 {
					return fmt.Errorf("sched: F(l%d.%v,mb%d) emitted %d times", l, seg, mb, c)
				}
				if c := count[key{mb, l, seg, KBackwardB}]; c != 1 {
					return fmt.Errorf("sched: B(l%d.%v,mb%d) emitted %d times", l, seg, mb, c)
				}
				wantW := 0
				if seg != model.SegAttn {
					wantW = 1
				}
				if c := count[key{mb, l, seg, KBackwardW}]; c != wantW {
					return fmt.Errorf("sched: W(l%d.%v,mb%d) emitted %d times, want %d", l, seg, mb, c, wantW)
				}
			}
		}
		if c := count[key{mb, LayerEmbed, model.SegPre, KForward}]; c != 1 {
			return fmt.Errorf("sched: embed F for mb%d emitted %d times", mb, c)
		}
		if c := count[key{mb, LayerEmbed, model.SegPre, KBackwardW}]; c != 1 {
			return fmt.Errorf("sched: embed W for mb%d emitted %d times", mb, c)
		}
		if c := count[key{mb, LayerHead, model.SegPre, KBackwardB}]; c != 1 {
			return fmt.Errorf("sched: head FB for mb%d emitted %d times", mb, c)
		}
		if c := count[key{mb, LayerHead, model.SegPre, KBackwardW}]; c != 1 {
			return fmt.Errorf("sched: head W for mb%d emitted %d times", mb, c)
		}
	}
	return nil
}

// refValidateDataflow runs the token machine to completion or reports the
// deadlock / missing-input violation.
func refValidateDataflow(p *Plan) error {
	type msgKey struct {
		tag  Tag
		from int
		to   int
	}
	sent := map[msgKey]int{}
	have := make([]map[token]bool, p.Stages)
	for s := range have {
		have[s] = map[token]bool{}
	}
	pc := make([]int, p.Stages)
	for {
		progress := false
		for s := 0; s < p.Stages; s++ {
		stageLoop:
			for pc[s] < len(p.Ops[s]) {
				op := p.Ops[s][pc[s]]
				switch op.Kind {
				case KRecv:
					k := msgKey{tag: op.Tag, from: op.Peer, to: s}
					if sent[k] == 0 {
						break stageLoop // block until the matching send
					}
					sent[k]--
					have[s][refTokenOfTag(op.Tag)] = true
				case KSend:
					tok := refTokenOfTag(op.Tag)
					if !have[s][tok] {
						return fmt.Errorf("sched: stage %d sends %v before producing it", s, op.Tag)
					}
					sent[msgKey{tag: op.Tag, from: s, to: op.Peer}]++
				default:
					req, prod := refOpIO(op, p.Layers)
					for _, tok := range req {
						if !have[s][tok] {
							return fmt.Errorf("sched: stage %d op %v: missing input token %+v", s, op, tok)
						}
					}
					for _, tok := range prod {
						have[s][tok] = true
					}
				}
				pc[s]++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for s := 0; s < p.Stages; s++ {
		if pc[s] != len(p.Ops[s]) {
			return fmt.Errorf("sched: deadlock: stage %d blocked at op %d (%v)", s, pc[s], p.Ops[s][pc[s]])
		}
	}
	for k, n := range sent {
		if n != 0 {
			return fmt.Errorf("sched: message %v from %d to %d sent %d times but never received", k.tag, k.from, k.to, n)
		}
	}
	return nil
}

// refValidateMemory checks stash conservation: on every stage the allocated
// bytes equal the freed bytes over the iteration (no leak across iterations)
// and the running balance never goes negative in program order.
func refValidateMemory(p *Plan) error {
	for s, ops := range p.Ops {
		var bal int64
		for i, op := range ops {
			bal += op.Alloc - op.Free
			if bal < 0 {
				return fmt.Errorf("sched: stage %d op %d (%v): stash balance negative (%d)", s, i, op, bal)
			}
		}
		if bal != 0 {
			return fmt.Errorf("sched: stage %d leaks %d stash bytes per iteration", s, bal)
		}
	}
	return nil
}
