package sched

import (
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
)

// This file keeps the four cost-book constructors that NewCosts replaced —
// NewCosts(w), NewBatchCosts, NewPlacedCosts and NewPlacedBatchCosts — with
// the separate stage-book type and the accessors they were read through, as
// the reference TestNewCostsMatchesReference compares the one constructor
// against. Only identifiers are renamed (a ref prefix).

// refCosts is the cost-book layout the four constructors built: flat books
// plus a separate per-stage book type with its own fallback rule.
type refCosts struct {
	MBCosts
	PerMB          []MBCosts
	PerStage       []refStageBook
	P2PLatency     float64
	P2PBytesPerSec float64
}

func (c refCosts) MB(mb int) MBCosts {
	if book, ok := c.override(mb); ok {
		return book
	}
	return c.MBCosts
}

func (c refCosts) StageMB(stage, mb int) MBCosts {
	if stage >= 0 && stage < len(c.PerStage) {
		return c.PerStage[stage].mb(mb)
	}
	return c.MB(mb)
}

func (c refCosts) override(mb int) (MBCosts, bool) {
	if mb < 0 || mb >= len(c.PerMB) {
		return MBCosts{}, false
	}
	return c.PerMB[mb], true
}

func (c refCosts) Variable() bool { return len(c.PerMB) > 0 }

func (c refCosts) P2PTime(bytes int64) float64 {
	if c.P2PBytesPerSec <= 0 {
		return c.P2PLatency
	}
	return c.P2PLatency + float64(bytes)/c.P2PBytesPerSec
}

func (c refCosts) MeanMB(m int) MBCosts {
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

// refStageBook is the cost book of one placed pipeline stage.
type refStageBook struct {
	MBCosts
	PerMB []MBCosts
}

func (b refStageBook) mb(mb int) MBCosts {
	if mb >= 0 && mb < len(b.PerMB) {
		return b.PerMB[mb]
	}
	return b.MBCosts
}

func refPlacedWorkload(w costmodel.Workload, topo *cluster.Topology, stage int) costmodel.Workload {
	ws := w
	if l := topo.IntraLink(stage); l.GBps > 0 {
		ws.Link = costmodel.LinkSpec{Class: string(l.Class), GBps: l.GBps, LatencySec: l.LatencySec}
	}
	if name := topo.GPUName(stage); name != "" {
		if g, ok := costmodel.GPUByName(name); ok {
			ws.GPU = g
		}
	}
	ws.ComputeFactor = topo.ComputeFactor(stage)
	return ws
}

func refNewCosts(w costmodel.Workload) refCosts {
	return refCosts{
		MBCosts:        memoMBCosts(w),
		P2PLatency:     w.Cluster.InterNodeLatency,
		P2PBytesPerSec: w.Cluster.InterNodeGBps * 1e9,
	}
}

func refNewBatchCosts(w costmodel.Workload, spec model.BatchSpec) refCosts {
	wMax := w
	wMax.Shape = spec.MaxShape()
	c := refCosts{
		MBCosts:        memoMBCosts(wMax),
		P2PLatency:     w.Cluster.InterNodeLatency,
		P2PBytesPerSec: w.Cluster.InterNodeGBps * 1e9,
	}
	if _, uniform := spec.Uniform(); uniform {
		return c
	}
	c.PerMB = make([]MBCosts, len(spec.Shapes))
	for i, sh := range spec.Shapes {
		wi := w
		wi.Shape = sh
		c.PerMB[i] = memoMBCosts(wi)
	}
	return c
}

func refNewPlacedCosts(w costmodel.Workload, topo *cluster.Topology) refCosts {
	c := refNewCosts(w)
	if topo == nil {
		return c
	}
	c.PerStage = make([]refStageBook, topo.Stages())
	for s := range c.PerStage {
		c.PerStage[s] = refStageBook{MBCosts: memoMBCosts(refPlacedWorkload(w, topo, s))}
	}
	return c
}

func refNewPlacedBatchCosts(w costmodel.Workload, spec model.BatchSpec, topo *cluster.Topology) refCosts {
	c := refNewBatchCosts(w, spec)
	if topo == nil {
		return c
	}
	_, uniform := spec.Uniform()
	c.PerStage = make([]refStageBook, topo.Stages())
	for s := range c.PerStage {
		ws := refPlacedWorkload(w, topo, s)
		wMax := ws
		wMax.Shape = spec.MaxShape()
		book := refStageBook{MBCosts: memoMBCosts(wMax)}
		if !uniform {
			book.PerMB = make([]MBCosts, len(spec.Shapes))
			for i, sh := range spec.Shapes {
				wi := ws
				wi.Shape = sh
				book.PerMB[i] = memoMBCosts(wi)
			}
		}
		c.PerStage[s] = book
	}
	return c
}

// refSessionCosts is the four-way branch Session.Costs took to pick one of
// the four constructors.
func refSessionCosts(w costmodel.Workload, batch model.BatchSpec, topo *cluster.Topology) refCosts {
	if len(batch.Shapes) > 0 {
		if topo != nil {
			return refNewPlacedBatchCosts(w, batch, topo)
		}
		return refNewBatchCosts(w, batch)
	}
	if topo != nil {
		return refNewPlacedCosts(w, topo)
	}
	return refNewCosts(w)
}
