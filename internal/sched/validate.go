package sched

import (
	"fmt"
	"sync"

	"repro/internal/model"
)

// This file implements a schedule-independent plan validator. It runs the
// plan as an abstract token-dataflow machine: every compute op consumes and
// produces named value tokens, sends require the token locally and recvs
// materialize it on the receiving stage. A plan is valid when (a) every
// stage's program runs to completion without deadlock, (b) every op's input
// tokens are present on its stage when it executes, (c) per-micro-batch op
// counts are complete and exact, and (d) stashes balance.
//
// The same token semantics is what internal/exec implements with real
// tensors, so passing validation here is exactly the property that makes a
// plan runnable by the numeric engine.
//
// Every index the checks use is dense, so a validation allocates nothing
// beyond its pooled scratch (validateScratch). With m micro batches and L
// layers:
//   - op counts are indexed [mb][layer+2][seg][kind], layer running from
//     LayerHead (-2) to L-1 and kind over F, B and W; the stage of each
//     forward pass is indexed [mb][layer][seg] for layers 0..L-1;
//   - each stage's tokens are one bitset of m blocks of 9(L+1) bits: six
//     kinds (A, Q, O, GA, GO, GQ) by layer 0..L, then the backward-W enable
//     of layer 0..L-1 or the head (slot L) by segment;
//   - in-flight messages have one slot per (MB, Layer 0..L, Bound, Back) of
//     their Tag; the slot records the sender, the receiver and the Chunk,
//     and a recv matches only a slot that agrees on all three. It also
//     records the send's program position, so an unreceived message is
//     reported as the earliest such send in (stage, program order).
//
// So validateStructure range-checks every field that becomes an index, and
// an out-of-range field is an error, never an index panic: a compute op's
// Layer must lie in [LayerHead, Layers) and its Seg in model.Segments; a
// comm op's Tag must have MB in [0, MicroBatches), Layer in [0, Layers]
// (Layers is the head input), a known Bound and Chunk in [0, Layers) (a
// model chunk holds at least one layer). Since a Tag names one message per
// iteration, a send whose Tag is still in flight is an error too.

// tokKind names the abstract values flowing through a transformer iteration.
type tokKind int

const (
	tokA       tokKind = iota // activation entering layer l (or the head for l=L)
	tokQ                      // pre-attention output of layer l
	tokO                      // attention output of layer l
	tokGA                     // gradient of A(l)
	tokGO                     // gradient of O(l)
	tokGQ                     // gradient of Q(l)
	tokWEnable                // backward-B of (l,seg) done; enables backward-W
)

type token struct {
	kind  tokKind
	mb    int
	layer int
	seg   model.Segment // only for tokWEnable
}

func tokenOfTag(t Tag) token {
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

// opTokens lists the tokens one op requires and produces: req[:nreq] and
// prod[:nprod].
type opTokens struct {
	req, prod   [2]token
	nreq, nprod int
}

func (io *opTokens) need(t token) { io.req[io.nreq] = t; io.nreq++ }
func (io *opTokens) give(t token) { io.prod[io.nprod] = t; io.nprod++ }

// opIO returns the tokens an op requires and produces. Recompute ops have no
// token effects (they regenerate locally stashed intermediates).
func opIO(op *Op, layers int) (io opTokens) {
	l := op.Layer
	tok := func(kind tokKind, layer int) token { return token{kind: kind, mb: op.MB, layer: layer} }
	wEnable := func(seg model.Segment) token { return token{kind: tokWEnable, mb: op.MB, layer: l, seg: seg} }
	switch op.Kind {
	case KForward:
		switch {
		case l == LayerEmbed:
			io.give(tok(tokA, 0))
		case l == LayerHead:
			io.need(tok(tokA, layers))
		case op.Seg == model.SegPre:
			io.need(tok(tokA, l))
			io.give(tok(tokQ, l))
		case op.Seg == model.SegAttn:
			io.need(tok(tokQ, l))
			io.give(tok(tokO, l))
		default:
			io.need(tok(tokO, l))
			io.give(tok(tokA, l+1))
		}
	case KBackwardB:
		switch {
		case l == LayerHead:
			// Deferred head: forward + loss + backward in one op (4.6).
			io.need(tok(tokA, layers))
			io.give(tok(tokGA, layers))
			io.give(wEnable(0))
		case l == LayerEmbed:
			io.need(tok(tokGA, 0))
		case op.Seg == model.SegPost:
			io.need(tok(tokGA, l+1))
			io.give(tok(tokGO, l))
			io.give(wEnable(model.SegPost))
		case op.Seg == model.SegAttn:
			io.need(tok(tokGO, l))
			io.give(tok(tokGQ, l))
		default:
			io.need(tok(tokGQ, l))
			io.give(tok(tokGA, l))
			io.give(wEnable(model.SegPre))
		}
	case KBackwardW:
		switch l {
		case LayerHead:
			io.need(wEnable(0))
		case LayerEmbed:
			io.need(tok(tokGA, 0))
		default:
			io.need(wEnable(op.Seg))
		}
	}
	return io
}

// validateScratch is the working memory of one validation; see the file
// comment for its layout. It is pooled, so a sweep's validations reuse it.
type validateScratch struct {
	counts []int32
	home   []int32 // stage+1 of the forward pass; 0 while none has run
	have   []uint64
	words  int // bitset words per stage
	span   int // layers+1
	slots  []msgSlot
	pc     []int
}

// msgSlot is the in-flight message of one Tag slot: sent by op at of stage
// from's program.
type msgSlot struct {
	from, to, chunk, at int32
	inFlight            bool
}

var scratchPool = sync.Pool{New: func() any { return new(validateScratch) }}

// zeroed returns s resized to n zero elements, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// tokenBit returns the position of a token in its stage's bitset.
func (sc *validateScratch) tokenBit(t token) int {
	i := t.mb * 9 * sc.span
	if t.kind != tokWEnable {
		return i + int(t.kind)*sc.span + t.layer
	}
	l := t.layer
	if l == LayerHead {
		l = sc.span - 1
	}
	return i + 6*sc.span + 3*l + int(t.seg)
}

func (sc *validateScratch) has(stage int, t token) bool {
	b := sc.tokenBit(t)
	return sc.have[stage*sc.words+b/64]&(1<<(b%64)) != 0
}

func (sc *validateScratch) set(stage int, t token) {
	b := sc.tokenBit(t)
	sc.have[stage*sc.words+b/64] |= 1 << (b % 64)
}

// slot returns the in-flight message slot of a tag.
func (sc *validateScratch) slot(t Tag) *msgSlot {
	i := ((t.MB*sc.span+t.Layer)*3 + int(t.Bound)) * 2
	if t.Back {
		i++
	}
	return &sc.slots[i]
}

// Validate checks the plan's structural and dataflow invariants and returns
// a descriptive error for the first violation found.
func Validate(p *Plan) error {
	if p.validated {
		return nil
	}
	if len(p.Ops) != p.Stages {
		return fmt.Errorf("sched: plan has %d stage programs, want %d", len(p.Ops), p.Stages)
	}
	if err := validateStructure(p); err != nil {
		return err
	}
	sc := scratchPool.Get().(*validateScratch)
	defer scratchPool.Put(sc)
	if err := validateCounts(p, sc); err != nil {
		return err
	}
	if err := validateDataflow(p, sc); err != nil {
		return err
	}
	if err := validateMemory(p); err != nil {
		return err
	}
	p.validated = true
	return nil
}

func validateStructure(p *Plan) error {
	if p.MicroBatches < 0 || p.Layers < 0 {
		return fmt.Errorf("sched: plan has %d micro batches and %d layers", p.MicroBatches, p.Layers)
	}
	if n := len(p.Batch.Shapes); n > 0 && n != p.MicroBatches {
		return fmt.Errorf("sched: plan batch spec has %d shapes for %d micro batches", n, p.MicroBatches)
	}
	if n := len(p.Placement); n > 0 {
		if n != p.Stages {
			return fmt.Errorf("sched: plan placement maps %d devices for %d stages", n, p.Stages)
		}
		for stage, dev := range p.Placement {
			if dev < 0 {
				return fmt.Errorf("sched: plan placement stage %d on negative device %d", stage, dev)
			}
			for prev, d := range p.Placement[:stage] {
				if d == dev {
					return fmt.Errorf("sched: plan placement stages %d and %d share device %d", prev, stage, dev)
				}
			}
		}
	}
	for s, ops := range p.Ops {
		for i := range ops {
			op := &ops[i]
			if op.Kind.IsCompute() && op.Dur < 0 {
				return fmt.Errorf("sched: stage %d op %d (%v): negative duration", s, i, *op)
			}
			comm := op.Kind == KSend || op.Kind == KRecv
			if comm {
				if op.Peer < 0 || op.Peer >= p.Stages {
					return fmt.Errorf("sched: stage %d op %d (%v): peer out of range", s, i, *op)
				}
				if op.Peer == s {
					return fmt.Errorf("sched: stage %d op %d (%v): self communication", s, i, *op)
				}
			}
			if op.MB < 0 || (!comm && op.MB >= p.MicroBatches) {
				return fmt.Errorf("sched: stage %d op %d (%v): micro batch out of range", s, i, *op)
			}
			if op.Kind.IsCompute() {
				if op.Layer < LayerHead || op.Layer >= p.Layers {
					return fmt.Errorf("sched: stage %d op %d (%v): layer out of range", s, i, *op)
				}
				if op.Seg < 0 || int(op.Seg) >= len(model.Segments) {
					return fmt.Errorf("sched: stage %d op %d (%v): segment out of range", s, i, *op)
				}
			}
			if t := op.Tag; comm && (t.MB < 0 || t.MB >= p.MicroBatches || t.Layer < 0 || t.Layer > p.Layers ||
				t.Bound < BoundAct || t.Bound > BoundAttnPost || t.Chunk < 0 || t.Chunk >= p.Layers) {
				return fmt.Errorf("sched: stage %d op %d (%v): tag out of range (chunk %d)", s, i, *op, t.Chunk)
			}
		}
	}
	return nil
}

// validateCounts checks that every (micro batch, layer, segment) gets
// exactly one forward, one backward-B, exactly one backward-W for the
// parameterized segments and none for attention, plus exactly one embedding
// forward, embedding W, head backward and head W per micro batch — and that
// the stash-holding passes of a (layer, segment) are colocated on one stage.
func validateCounts(p *Plan, sc *validateScratch) error {
	m, L := p.MicroBatches, p.Layers
	sc.counts = zeroed(sc.counts, m*(L+2)*3*3)
	sc.home = zeroed(sc.home, m*L*3)
	count := func(mb, layer int, seg model.Segment, kind OpKind) *int32 {
		return &sc.counts[((mb*(L+2)+layer+2)*3+int(seg))*3+int(kind)]
	}
	for s, ops := range p.Ops {
		for i := range ops {
			op := &ops[i]
			if !op.Kind.IsCompute() || op.Kind == KRecompute {
				continue
			}
			*count(op.MB, op.Layer, op.Seg, op.Kind)++
			if op.Layer < 0 {
				continue
			}
			home := &sc.home[(op.MB*L+op.Layer)*3+int(op.Seg)]
			if op.Kind == KForward {
				*home = int32(s + 1)
			} else if *home != 0 && int(*home) != s+1 {
				return fmt.Errorf("sched: %v on stage %d but forward ran on stage %d (stash not local)", *op, s, *home-1)
			}
		}
	}
	for mb := 0; mb < m; mb++ {
		for l := 0; l < L; l++ {
			for _, seg := range model.Segments {
				if c := *count(mb, l, seg, KForward); c != 1 {
					return fmt.Errorf("sched: F(l%d.%v,mb%d) emitted %d times", l, seg, mb, c)
				}
				if c := *count(mb, l, seg, KBackwardB); c != 1 {
					return fmt.Errorf("sched: B(l%d.%v,mb%d) emitted %d times", l, seg, mb, c)
				}
				wantW := int32(0)
				if seg != model.SegAttn {
					wantW = 1
				}
				if c := *count(mb, l, seg, KBackwardW); c != wantW {
					return fmt.Errorf("sched: W(l%d.%v,mb%d) emitted %d times, want %d", l, seg, mb, c, wantW)
				}
			}
		}
		if c := *count(mb, LayerEmbed, model.SegPre, KForward); c != 1 {
			return fmt.Errorf("sched: embed F for mb%d emitted %d times", mb, c)
		}
		if c := *count(mb, LayerEmbed, model.SegPre, KBackwardW); c != 1 {
			return fmt.Errorf("sched: embed W for mb%d emitted %d times", mb, c)
		}
		if c := *count(mb, LayerHead, model.SegPre, KBackwardB); c != 1 {
			return fmt.Errorf("sched: head FB for mb%d emitted %d times", mb, c)
		}
		if c := *count(mb, LayerHead, model.SegPre, KBackwardW); c != 1 {
			return fmt.Errorf("sched: head W for mb%d emitted %d times", mb, c)
		}
	}
	return nil
}

// validateDataflow runs the token machine to completion or reports the
// deadlock / missing-input violation.
func validateDataflow(p *Plan, sc *validateScratch) error {
	sc.span = p.Layers + 1
	sc.words = (p.MicroBatches*9*sc.span + 63) / 64
	sc.have = zeroed(sc.have, p.Stages*sc.words)
	sc.slots = zeroed(sc.slots, p.MicroBatches*sc.span*3*2)
	sc.pc = zeroed(sc.pc, p.Stages)
	pc := sc.pc
	inFlight := 0
	for {
		progress := false
		for s := 0; s < p.Stages; s++ {
		stageLoop:
			for pc[s] < len(p.Ops[s]) {
				op := &p.Ops[s][pc[s]]
				switch op.Kind {
				case KRecv:
					m := sc.slot(op.Tag)
					if !m.inFlight || int(m.from) != op.Peer || int(m.to) != s || int(m.chunk) != op.Tag.Chunk {
						break stageLoop // block until the matching send
					}
					m.inFlight = false
					inFlight--
					sc.set(s, tokenOfTag(op.Tag))
				case KSend:
					if !sc.has(s, tokenOfTag(op.Tag)) {
						return fmt.Errorf("sched: stage %d sends %v before producing it", s, op.Tag)
					}
					m := sc.slot(op.Tag)
					if m.inFlight {
						return fmt.Errorf("sched: stage %d sends %v while the one from %d to %d (chunk %d) is in flight",
							s, op.Tag, m.from, m.to, m.chunk)
					}
					*m = msgSlot{from: int32(s), to: int32(op.Peer), chunk: int32(op.Tag.Chunk), at: int32(pc[s]), inFlight: true}
					inFlight++
				default:
					io := opIO(op, p.Layers)
					for _, tok := range io.req[:io.nreq] {
						if !sc.has(s, tok) {
							return fmt.Errorf("sched: stage %d op %v: missing input token %+v", s, *op, tok)
						}
					}
					for _, tok := range io.prod[:io.nprod] {
						sc.set(s, tok)
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
	if inFlight == 0 {
		return nil
	}
	// Report the earliest unreceived send in (stage, program order).
	for s, ops := range p.Ops {
		for i := range ops {
			op := &ops[i]
			if op.Kind != KSend {
				continue
			}
			if m := sc.slot(op.Tag); m.inFlight && int(m.from) == s && int(m.at) == i {
				return fmt.Errorf("sched: message %v from %d to %d sent %d times but never received", op.Tag, s, op.Peer, 1)
			}
		}
	}
	return nil
}

// validateMemory checks stash conservation: on every stage the allocated
// bytes equal the freed bytes over the iteration (no leak across iterations)
// and the running balance never goes negative in program order.
func validateMemory(p *Plan) error {
	for s, ops := range p.Ops {
		var bal int64
		for i := range ops {
			bal += ops[i].Alloc - ops[i].Free
			if bal < 0 {
				return fmt.Errorf("sched: stage %d op %d (%v): stash balance negative (%d)", s, i, ops[i], bal)
			}
		}
		if bal != 0 {
			return fmt.Errorf("sched: stage %d leaks %d stash bytes per iteration", s, bal)
		}
	}
	return nil
}
