// Package core implements the paper's primary contribution: HelixPipe's
// attention parallel partition (section 4.2) and the first-in-last-out
// micro-batch schedules built on it — the naive FILO schedule and the
// asynchronous two-fold FILO schedule (section 4.3) — together with the
// recomputation-without-attention memory strategy (section 4.4.1).
//
// Plans are expressed in the shared IR of internal/sched, so the simulator
// and the numeric executor run HelixPipe exactly like the baselines. The
// package registers its three schedule variants in the sched method
// registry, which makes them reachable from every registry-driven caller
// (sessions, sweeps, the command-line tools) without hardwired dispatch.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/sched"
)

// init registers the HelixPipe variants in the method registry. BuildParams
// may override the per-variant defaults (fold, recomputation); the zero
// params reproduce the paper configuration of each variant.
func init() {
	register := func(name sched.Method, desc string, rank int, def Options) {
		sched.Register(sched.Registration{
			Name:        name,
			Description: desc,
			Rank:        rank,
			Build: func(cfg sched.Config, costs sched.Costs, p sched.BuildParams) (*sched.Plan, error) {
				opt := def
				if p.HelixFold != 0 {
					opt.Fold = p.HelixFold
				}
				if p.HelixRecompute != nil {
					opt.Recompute = *p.HelixRecompute
				}
				return Build(cfg, costs, opt)
			},
		})
	}
	register(sched.MethodHelixNaive,
		"attention parallel partition with blocking naive FILO schedule", 70,
		Options{Fold: 1, Recompute: true})
	register(sched.MethodHelix,
		"attention parallel partition, two-fold FILO, recomputation without attention", 80,
		DefaultOptions())
	register(sched.MethodHelixNoRecompute,
		"HelixPipe two-fold FILO keeping all activations (no recomputation)", 90,
		Options{Fold: 2, Recompute: false})
}

// Options selects the HelixPipe variant to build.
type Options struct {
	// Fold is the number of micro batches executed per schedule slot:
	// 1 reproduces the naive FILO schedule of section 4.3.1 (with blocking
	// communication, the behaviour Figure 6a illustrates), 2 the
	// asynchronous two-fold FILO schedule of section 4.3.2.
	Fold int
	// Recompute enables the recomputation-without-attention strategy of
	// section 4.4.1 (on by default in the paper's HelixPipe).
	Recompute bool
}

// DefaultOptions returns the paper's HelixPipe configuration: two-fold FILO
// with recomputation without attention.
func DefaultOptions() Options { return Options{Fold: 2, Recompute: true} }

// Build constructs the HelixPipe plan for the given pipeline configuration
// and cost book.
//
// The FILO schedule admits fold*p micro batches per loop (section 4.3: "each
// loop admitting p micro batches"; the two-fold variant doubles that), so
// MicroBatches must be a positive multiple of fold*stages. Stages must be at
// least 2 and divide Layers, which keeps both pipeline ends on stage 0.
func Build(cfg sched.Config, costs sched.Costs, opt Options) (*sched.Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Fold != 1 && opt.Fold != 2 {
		return nil, fmt.Errorf("core: fold must be 1 (naive FILO) or 2 (two-fold FILO), got %d", opt.Fold)
	}
	if cfg.Stages < 2 {
		return nil, fmt.Errorf("core: HelixPipe needs at least 2 stages, got %d", cfg.Stages)
	}
	loopSize := opt.Fold * cfg.Stages
	if cfg.MicroBatches%loopSize != 0 {
		return nil, fmt.Errorf("core: micro batches (%d) must be a multiple of fold*stages (%d)",
			cfg.MicroBatches, loopSize)
	}
	b := &helixBuilder{cfg: cfg, costs: costs, opt: opt}
	b.buildTasks()
	if err := b.schedule(); err != nil {
		return nil, err
	}
	method := sched.MethodHelix
	switch {
	case opt.Fold == 1:
		method = sched.MethodHelixNaive
	case !opt.Recompute:
		method = sched.MethodHelixNoRecompute
	}
	return &sched.Plan{
		Method:       method,
		Stages:       cfg.Stages,
		MicroBatches: cfg.MicroBatches,
		Layers:       cfg.Layers,
		Ops:          b.ops,
		Costs:        costs,
		Batch:        cfg.Batch,
	}, nil
}

// taskKind discriminates helix schedule tasks.
type taskKind int

const (
	tUnitF taskKind = iota // forward of one unit for one micro-batch group
	tAttnF                 // forward attention of one (layer, micro batch)
	tUnitB                 // backward of one unit for one group (reversed)
	tAttnB                 // backward attention of one (layer, micro batch)
)

// hTask is one schedulable unit of helix work. Unit tasks process a whole
// fold group back to back (the essence of the two-fold schedule); attention
// tasks are per micro batch so they interleave freely.
type hTask struct {
	id      int
	kind    taskKind
	unit    int   // unit index for tUnitF/tUnitB (0..L); layer for attention
	mbs     []int // the micro batches, in emission order
	stage   int
	key     [4]int // lexicographic priority
	prereqs []int
}

type helixBuilder struct {
	cfg   sched.Config
	costs sched.Costs
	opt   Options

	tasks []hTask
	ops   [][]sched.Op

	// scheduling state
	arrival []float64 // message arrival estimates, indexed by arrivalSlot
	clock   []float64
	// NIC availability per stage (full duplex), mirrored from the
	// simulator so arrival estimates account for link contention and the
	// emitted program order matches true arrival order.
	sendFree []float64
	recvFree []float64
}

func (b *helixBuilder) addTask(t hTask) int {
	t.id = len(b.tasks)
	b.tasks = append(b.tasks, t)
	return t.id
}

// buildTasks enumerates every task of one training iteration with its
// priority key and prerequisites.
func (b *helixBuilder) buildTasks() {
	p, m, L := b.cfg.Stages, b.cfg.MicroBatches, b.cfg.Layers
	fold := b.opt.Fold
	loopSize := fold * p
	loops := m / loopSize
	totalGroups := m / fold
	b.tasks = make([]hTask, 0, 2*((L+1)*totalGroups+L*m))

	// Task id lookup tables.
	unitF := make([]int, (L+1)*totalGroups) // [unit*totalGroups+group] -> task id
	attnF := make([]int, L*m)               // [layer*m+mb] -> task id
	// Every task's micro batches are a window of one shared slice: group g
	// forward is fwdMBs[g*fold:][:fold], its reversed backward revMBs
	// likewise, and a single micro batch mb is fwdMBs[mb:mb+1].
	fwdMBs := make([]int, m)
	revMBs := make([]int, m)
	for mb := range fwdMBs {
		fwdMBs[mb] = mb
		g := mb / fold
		revMBs[g*fold+fold-1-mb%fold] = mb
	}
	groupMBs := func(g int) []int { return fwdMBs[g*fold : (g+1)*fold : (g+1)*fold] }
	oneMB := func(mb int) []int { return fwdMBs[mb : mb+1 : mb+1] }
	// Prerequisite lists are windows of one slab too, sized for every
	// task's prerequisites: fold per forward unit (L of them per group), one
	// per forward attention, fold+1 per backward unit (one for unit L) and
	// two per backward attention.
	pre := make([]int, 0, 5*L*m+(L+1)*totalGroups)
	window := func(start int) []int { return pre[start:len(pre):len(pre)] }

	// Forward unit and attention tasks.
	for u := 0; u <= L; u++ {
		for g := 0; g < totalGroups; g++ {
			loop := (g * fold) / loopSize
			gInLoop := g % p
			t := hTask{
				kind:  tUnitF,
				unit:  u,
				mbs:   groupMBs(g),
				stage: UnitOwner(u, p),
				key:   [4]int{0, loop, 2 * u, gInLoop},
			}
			if u > 0 {
				start := len(pre)
				for _, mb := range t.mbs {
					pre = append(pre, attnF[(u-1)*m+mb])
				}
				t.prereqs = window(start)
			}
			unitF[u*totalGroups+g] = b.addTask(t)
		}
		if u == L {
			break
		}
		for g := 0; g < totalGroups; g++ {
			for _, mb := range groupMBs(g) {
				loop := mb / loopSize
				start := len(pre)
				pre = append(pre, unitF[u*totalGroups+g])
				t := hTask{
					kind:    tAttnF,
					unit:    u,
					mbs:     oneMB(mb),
					stage:   AttnStage(u, mb, p),
					key:     [4]int{0, loop, 2*u + 1, mb % loopSize},
					prereqs: window(start),
				}
				attnF[u*m+mb] = b.addTask(t)
			}
		}
	}

	// Backward: FILO — loops in reverse, micro batches in reverse.
	unitB := make([]int, (L+1)*totalGroups)
	attnB := make([]int, L*m)
	invLoop := func(loop int) int { return loops - 1 - loop }
	for u := L; u >= 0; u-- {
		for g := totalGroups - 1; g >= 0; g-- {
			loop := (g * fold) / loopSize
			gInLoop := g % p
			t := hTask{
				kind:  tUnitB,
				unit:  u,
				mbs:   revMBs[g*fold : (g+1)*fold : (g+1)*fold],
				stage: UnitOwner(u, p),
				key:   [4]int{1, invLoop(loop), 2 * (L - u), p - 1 - gInLoop},
			}
			start := len(pre)
			if u < L {
				for _, mb := range t.mbs {
					pre = append(pre, attnB[u*m+mb])
				}
			}
			pre = append(pre, unitF[u*totalGroups+g])
			t.prereqs = window(start)
			unitB[u*totalGroups+g] = b.addTask(t)
		}
		if u == 0 {
			break
		}
		l := u - 1 // attention backward of layer u-1 follows unit u backward
		for g := totalGroups - 1; g >= 0; g-- {
			mbs := groupMBs(g)
			for i := len(mbs) - 1; i >= 0; i-- {
				mb := mbs[i]
				loop := mb / loopSize
				start := len(pre)
				pre = append(pre, unitB[u*totalGroups+g], attnF[l*m+mb])
				t := hTask{
					kind:    tAttnB,
					unit:    l,
					mbs:     oneMB(mb),
					stage:   AttnStage(l, mb, p),
					key:     [4]int{1, invLoop(loop), 2*(L-u) + 1, loopSize - 1 - mb%loopSize},
					prereqs: window(start),
				}
				attnB[l*m+mb] = b.addTask(t)
			}
		}
	}
}

// schedule orders the tasks with deterministic earliest-start greedy list
// scheduling and emits the per-stage op programs.
//
// Each step runs the ready task with the earliest start, the first in
// (key, id) order among equal starts. A task becomes ready once its last
// prerequisite has run, and its first input's arrival is fixed from then
// on, because that input's producer is one of its prerequisites. So a
// step only needs to scan the ready list, which is kept in (key, id)
// order.
func (b *helixBuilder) schedule() error {
	p, n := b.cfg.Stages, len(b.tasks)
	b.ops = make([][]sched.Op, p)
	counts := make([]int, p)
	for i := range b.tasks {
		counts[b.tasks[i].stage] += b.opCount(&b.tasks[i])
	}
	for s := range b.ops {
		b.ops[s] = make([]sched.Op, 0, counts[s])
	}
	b.arrival = make([]float64, 4*b.cfg.MicroBatches*b.cfg.Layers)
	b.clock = make([]float64, p)
	b.sendFree = make([]float64, p)
	b.recvFree = make([]float64, p)

	// Stable candidate order: by key then id. rank[id] is the task's
	// position in it.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, c := b.tasks[order[i]], b.tasks[order[j]]
		if a.key != c.key {
			return lessKey(a.key, c.key)
		}
		return a.id < c.id
	})
	rank := make([]int, n)
	for r, id := range order {
		rank[id] = r
	}

	// Pending prerequisite counts, and successor lists in one slab:
	// succ[succAt[id]:succAt[id+1]] are the tasks waiting on task id.
	pending := make([]int, n)
	succAt := make([]int, n+1)
	for i := range b.tasks {
		pending[i] = len(b.tasks[i].prereqs)
		for _, pre := range b.tasks[i].prereqs {
			succAt[pre+1]++
		}
	}
	for i := 0; i < n; i++ {
		succAt[i+1] += succAt[i]
	}
	succ := make([]int, succAt[n])
	fill := append([]int(nil), succAt[:n]...)
	for i := range b.tasks {
		for _, pre := range b.tasks[i].prereqs {
			succ[fill[pre]] = i
			fill[pre]++
		}
	}

	ready := make([]int, 0, n)
	for _, id := range order {
		if pending[id] == 0 {
			ready = append(ready, id)
		}
	}
	for remaining := n; remaining > 0; remaining-- {
		best, bestStart := -1, math.MaxFloat64
		for i, id := range ready {
			t := &b.tasks[id]
			start := math.Max(b.clock[t.stage], b.firstInputArrival(t))
			if start < bestStart-1e-15 {
				best, bestStart = i, start
			}
		}
		if best < 0 {
			return fmt.Errorf("core: helix scheduling wedged with %d tasks remaining", remaining)
		}
		id := ready[best]
		ready = slices.Delete(ready, best, best+1)
		b.runTask(&b.tasks[id])
		for _, next := range succ[succAt[id]:succAt[id+1]] {
			if pending[next]--; pending[next] == 0 {
				at := sort.Search(len(ready), func(i int) bool { return rank[ready[i]] > rank[next] })
				ready = slices.Insert(ready, at, next)
			}
		}
	}
	return nil
}

func lessKey(a, c [4]int) bool {
	for i := range a {
		if a[i] != c[i] {
			return a[i] < c[i]
		}
	}
	return false
}

// arrivalSlot returns the index of a helix message tag in b.arrival, which
// is laid out as [mb][layer][bound][back]; helix messages cross only the
// BoundPreAttn and BoundAttnPost boundaries.
func (b *helixBuilder) arrivalSlot(tag sched.Tag) int {
	i := ((tag.MB*b.cfg.Layers+tag.Layer)*2 + int(tag.Bound-sched.BoundPreAttn)) * 2
	if tag.Back {
		i++
	}
	return i
}

// firstInputArrival returns the arrival estimate of the task's first message
// input, or 0 when it has none.
func (b *helixBuilder) firstInputArrival(t *hTask) float64 {
	if tag, ok := b.inputTag(t, t.mbs[0]); ok {
		return b.arrival[b.arrivalSlot(tag)]
	}
	return 0
}

// inputTag returns the message tag one micro-batch piece of the task
// consumes, and false when the piece has no message input.
func (b *helixBuilder) inputTag(t *hTask, mb int) (sched.Tag, bool) {
	switch t.kind {
	case tUnitF:
		return sched.Tag{MB: mb, Layer: t.unit - 1, Bound: sched.BoundAttnPost}, t.unit > 0
	case tAttnF:
		return sched.Tag{MB: mb, Layer: t.unit, Bound: sched.BoundPreAttn}, true
	case tUnitB:
		return sched.Tag{MB: mb, Layer: t.unit, Bound: sched.BoundPreAttn, Back: true}, t.unit < b.cfg.Layers
	default: // tAttnB
		return sched.Tag{MB: mb, Layer: t.unit, Bound: sched.BoundAttnPost, Back: true}, true
	}
}

// opCount returns the number of ops the task emits on its stage, whatever
// order the scheduler runs it in. It mirrors runUnitF, runAttn and
// runUnitB: a recv or send is emitted only when the peer is another stage.
func (b *helixBuilder) opCount(t *hTask) int {
	L, p := b.cfg.Layers, b.cfg.Stages
	remote := func(peer int) int {
		if peer == t.stage {
			return 0
		}
		return 1
	}
	if t.kind == tAttnF || t.kind == tAttnB {
		return 1 + remote(PreOwner(t.unit, p)) + remote(PostOwner(t.unit, p))
	}
	n := 0
	for _, mb := range t.mbs {
		if t.kind == tUnitF {
			n++ // embedding, or post-attention of layer unit-1
			if t.unit > 0 {
				n += remote(AttnStage(t.unit-1, mb, p))
			}
			if t.unit < L {
				n += 1 + remote(AttnStage(t.unit, mb, p))
			}
			continue
		}
		if t.unit == L {
			n += 2 // head FB and W
		} else {
			n += 2 + remote(AttnStage(t.unit, mb, p)) // gradient recv, pre-attention B and W
		}
		if t.unit > 0 {
			n += 2 + remote(AttnStage(t.unit-1, mb, p)) // post-attention B and W, gradient send
		} else {
			n++ // embedding W
		}
		if b.opt.Recompute {
			n += min(t.unit, 1) + min(L-t.unit, 1) // post- and pre-attention recompute
		}
	}
	return n
}

// runTask emits the ops of a task and advances the builder clocks.
func (b *helixBuilder) runTask(t *hTask) {
	switch t.kind {
	case tUnitF:
		b.runUnitF(t)
	case tAttnF:
		b.runAttn(t, false)
	case tUnitB:
		b.runUnitB(t)
	default:
		b.runAttn(t, true)
	}
}

func (b *helixBuilder) emit(stage int, op sched.Op) { b.ops[stage] = append(b.ops[stage], op) }

// recvPiece emits the recv ops for one micro-batch piece and returns the
// stage clock after waiting for the arrivals. When the producer ran on this
// very stage (the attention of micro batch mb at layer l is co-located with
// a pre/post owner whenever (l+mb+1) = l or l+1 mod p) the value is already
// local and no communication op is emitted.
func (b *helixBuilder) recvPiece(t *hTask, mb int, from int, clock float64) float64 {
	tag, ok := b.inputTag(t, mb)
	if !ok {
		return clock
	}
	if from != t.stage {
		b.emit(t.stage, sched.Op{Kind: sched.KRecv, MB: mb, Peer: from, Tag: tag})
	}
	if a := b.arrival[b.arrivalSlot(tag)]; a > clock {
		clock = a
	}
	return clock
}

// sendPiece emits a send and records the message arrival estimate. Naive
// FILO (fold 1) uses blocking sends that occupy the compute stream (the
// paper's Figure 6a behaviour); the two-fold schedule sends asynchronously.
func (b *helixBuilder) sendPiece(stage, mb, peer int, tag sched.Tag, clock float64) float64 {
	if peer == stage {
		// Co-located consumer: the value is available immediately, no
		// transfer happens.
		b.arrival[b.arrivalSlot(tag)] = clock
		return clock
	}
	blocking := b.opt.Fold == 1
	bytes := b.costs.MB(tag.MB).BoundBytes[tag.Bound]
	b.emit(stage, sched.Op{
		Kind: sched.KSend, MB: mb, Peer: peer, Tag: tag, Bytes: bytes, Blocking: blocking,
	})
	// Reserve the duplex NIC pair exactly like the simulator does, so the
	// emitted program order anticipates link contention.
	var wire float64
	if b.costs.P2PBytesPerSec > 0 {
		wire = float64(bytes) / b.costs.P2PBytesPerSec
	}
	start := clock
	if b.sendFree[stage] > start {
		start = b.sendFree[stage]
	}
	if b.recvFree[peer] > start {
		start = b.recvFree[peer]
	}
	end := start + wire
	arrival := end + b.costs.P2PLatency
	b.sendFree[stage] = end
	b.recvFree[peer] = end
	b.arrival[b.arrivalSlot(tag)] = arrival
	if blocking {
		return arrival
	}
	return clock
}

// stashAlloc returns the forward allocation for one micro batch's segment
// under the active memory strategy.
func (b *helixBuilder) stashAlloc(mb int, seg model.Segment) int64 {
	c := b.costs.MB(mb)
	if b.opt.Recompute {
		return c.HelixSegStash[seg]
	}
	return c.SegStash[seg]
}

// attnFree returns the stash released by one micro batch's attention backward.
func (b *helixBuilder) attnFree(mb int) int64 {
	c := b.costs.MB(mb)
	if b.opt.Recompute {
		return c.HelixSegStash[model.SegAttn]
	}
	return c.SegStash[model.SegAttn]
}

func (b *helixBuilder) runUnitF(t *hTask) {
	L, p := b.cfg.Layers, b.cfg.Stages
	clock := b.clock[t.stage]
	for _, mb := range t.mbs {
		c := b.costs.StageMB(t.stage, mb)
		if t.unit > 0 {
			from := AttnStage(t.unit-1, mb, p)
			clock = b.recvPiece(t, mb, from, clock)
			b.emit(t.stage, sched.Op{Kind: sched.KForward, MB: mb, Layer: t.unit - 1, Seg: model.SegPost,
				Dur: c.Seg[model.SegPost][model.Forward], Alloc: b.stashAlloc(mb, model.SegPost)})
			clock += c.Seg[model.SegPost][model.Forward]
		} else {
			b.emit(t.stage, sched.Op{Kind: sched.KForward, MB: mb, Layer: sched.LayerEmbed, Dur: c.EmbedF})
			clock += c.EmbedF
		}
		if t.unit < L {
			b.emit(t.stage, sched.Op{Kind: sched.KForward, MB: mb, Layer: t.unit, Seg: model.SegPre,
				Dur: c.Seg[model.SegPre][model.Forward], Alloc: b.stashAlloc(mb, model.SegPre)})
			clock += c.Seg[model.SegPre][model.Forward]
			clock = b.sendPiece(t.stage, mb, AttnStage(t.unit, mb, p),
				sched.Tag{MB: mb, Layer: t.unit, Bound: sched.BoundPreAttn}, clock)
		}
	}
	b.clock[t.stage] = clock
}

func (b *helixBuilder) runAttn(t *hTask, back bool) {
	p := b.cfg.Stages
	l := t.unit
	mb := t.mbs[0]
	c := b.costs.StageMB(t.stage, mb)
	clock := b.clock[t.stage]
	if back {
		clock = b.recvPiece(t, mb, PostOwner(l, p), clock)
		b.emit(t.stage, sched.Op{Kind: sched.KBackwardB, MB: mb, Layer: l, Seg: model.SegAttn,
			Dur: c.Seg[model.SegAttn][model.BackwardB], Free: b.attnFree(mb)})
		clock += c.Seg[model.SegAttn][model.BackwardB]
		clock = b.sendPiece(t.stage, mb, PreOwner(l, p),
			sched.Tag{MB: mb, Layer: l, Bound: sched.BoundPreAttn, Back: true}, clock)
	} else {
		clock = b.recvPiece(t, mb, PreOwner(l, p), clock)
		b.emit(t.stage, sched.Op{Kind: sched.KForward, MB: mb, Layer: l, Seg: model.SegAttn,
			Dur: c.Seg[model.SegAttn][model.Forward], Alloc: b.stashAlloc(mb, model.SegAttn)})
		clock += c.Seg[model.SegAttn][model.Forward]
		clock = b.sendPiece(t.stage, mb, PostOwner(l, p),
			sched.Tag{MB: mb, Layer: l, Bound: sched.BoundAttnPost}, clock)
	}
	b.clock[t.stage] = clock
}

func (b *helixBuilder) runUnitB(t *hTask) {
	L, p := b.cfg.Layers, b.cfg.Stages
	clock := b.clock[t.stage]
	for _, mb := range t.mbs {
		c := b.costs.StageMB(t.stage, mb)
		if t.unit == L {
			// Deferred LM head: forward + loss + backward-B fused (4.6),
			// weight gradient immediately after (no ZB1P-style deferral).
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardB, MB: mb, Layer: sched.LayerHead,
				Dur: c.HeadFB, Alloc: c.EmbedGradStash})
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardW, MB: mb, Layer: sched.LayerHead,
				Dur: c.HeadW, Free: c.EmbedGradStash})
			clock += c.HeadFB + c.HeadW
		} else {
			from := AttnStage(t.unit, mb, p)
			clock = b.recvPiece(t, mb, from, clock)
		}
		// Recompute the unit's discarded intermediates in forward order:
		// post-attention of layer unit-1, then pre-attention of layer unit.
		if b.opt.Recompute {
			if t.unit > 0 {
				b.emit(t.stage, sched.Op{Kind: sched.KRecompute, MB: mb, Layer: t.unit - 1, Seg: model.SegPost,
					Dur:   c.SegRecompute[model.SegPost],
					Alloc: c.SegStash[model.SegPost] - c.HelixSegStash[model.SegPost]})
				clock += c.SegRecompute[model.SegPost]
			}
			if t.unit < L {
				b.emit(t.stage, sched.Op{Kind: sched.KRecompute, MB: mb, Layer: t.unit, Seg: model.SegPre,
					Dur:   c.SegRecompute[model.SegPre],
					Alloc: c.SegStash[model.SegPre] - c.HelixSegStash[model.SegPre]})
				clock += c.SegRecompute[model.SegPre]
			}
		}
		if t.unit < L {
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardB, MB: mb, Layer: t.unit, Seg: model.SegPre,
				Dur: c.Seg[model.SegPre][model.BackwardB], Free: c.SegStashBFree[model.SegPre]})
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardW, MB: mb, Layer: t.unit, Seg: model.SegPre,
				Dur: c.Seg[model.SegPre][model.BackwardW], Free: c.SegStashWFree[model.SegPre]})
			clock += c.Seg[model.SegPre][model.BackwardB] + c.Seg[model.SegPre][model.BackwardW]
		}
		if t.unit > 0 {
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardB, MB: mb, Layer: t.unit - 1, Seg: model.SegPost,
				Dur: c.Seg[model.SegPost][model.BackwardB], Free: c.SegStashBFree[model.SegPost]})
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardW, MB: mb, Layer: t.unit - 1, Seg: model.SegPost,
				Dur: c.Seg[model.SegPost][model.BackwardW], Free: c.SegStashWFree[model.SegPost]})
			clock += c.Seg[model.SegPost][model.BackwardB] + c.Seg[model.SegPost][model.BackwardW]
			clock = b.sendPiece(t.stage, mb, AttnStage(t.unit-1, mb, p),
				sched.Tag{MB: mb, Layer: t.unit - 1, Bound: sched.BoundAttnPost, Back: true}, clock)
		} else {
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardW, MB: mb, Layer: sched.LayerEmbed, Dur: c.EmbedW})
			clock += c.EmbedW
		}
	}
	b.clock[t.stage] = clock
}
