package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	helixpipe "repro"
	"repro/internal/bench"
	"repro/internal/costmodel"
	"repro/internal/model"
)

// paper-experiments: AllExperiments, the paper's tables and figure panels.
// internal/bench is the third build-and-simulate path, next to Session and
// the tuner. The seed is unused: the inputs are the paper's.

type paperInputs struct{}

func preparePaper(uint64, size) (inputs, error) { return paperInputs{}, nil }

func (paperInputs) round() (*roundOut, error) {
	t0 := time.Now()
	// AllExperiments takes no inputs to prepare: its set-up is the call.
	setup := time.Since(t0)
	tables, err := helixpipe.AllExperiments()
	if err != nil {
		return nil, err
	}
	out := paperOut(tables)
	out.setup = setup
	out.keep = tables
	return out, nil
}

// paperOut books the tables: every table or figure panel is one cell, and
// its rendered rows are its modelled output.
func paperOut(tables []*helixpipe.ExperimentTable) *roundOut {
	d := newDigester()
	for _, t := range tables {
		d.add(t.ID + "\n" + strings.Join(t.Header, "|"))
		for _, row := range t.Rows {
			d.add(strings.Join(row, "|"))
		}
	}
	return &roundOut{cells: len(tables), digest: d.sum()}
}

// fig8Columns are the Figure 8 method columns, in table order.
var fig8Columns = []helixpipe.Method{"1F1B", "ZB1P", "AdaPipe", "HelixPipe"}

// verify recomputes sampled Figure 8 rows through Session.Simulate and
// compares the normalized throughputs as the tables print them.
func (paperInputs) verify(out *roundOut) (checked, failed int, err error) {
	for _, t := range out.keep.([]*helixpipe.ExperimentTable) {
		parts := strings.Split(t.ID, "-")
		if len(parts) != 3 || parts[0] != "fig8" {
			continue
		}
		for _, i := range sampleIndexes(len(t.Rows), 2) {
			checked++
			if !fig8RowAgrees(parts[1], parts[2], t.Rows[i]) {
				failed++
			}
		}
	}
	return checked, failed, nil
}

func fig8RowAgrees(modelName, clusterName string, row []string) bool {
	m, ok1 := helixpipe.ModelByName(modelName)
	cl, ok2 := helixpipe.ClusterByName(clusterName)
	kseq, err1 := strconv.Atoi(strings.TrimSuffix(row[0], "k"))
	p, err2 := strconv.Atoi(row[1])
	if !ok1 || !ok2 || err1 != nil || err2 != nil {
		return false
	}
	s, err := helixpipe.NewSession(m, cl, helixpipe.WithSeqLen(kseq*1024), helixpipe.WithStages(p),
		helixpipe.WithoutReportCache())
	if err != nil {
		return false
	}
	tps := make([]float64, len(fig8Columns))
	best := 0.0
	for i, method := range fig8Columns {
		r, err := s.Simulate(method)
		if err != nil {
			return false
		}
		tps[i] = r.Sim.TokensPerSecond
		best = max(best, tps[i])
	}
	for i := range fig8Columns {
		if fmt.Sprintf("%.3f", tps[i]/best) != row[2+i] {
			return false
		}
	}
	return true
}

// paperExperiments lists AllExperiments' steps in its order, each one
// experiment function (a Figure 8 step renders one panel).
func paperExperiments() []func() (*bench.Table, error) {
	static := func(f func() *bench.Table) func() (*bench.Table, error) {
		return func() (*bench.Table, error) { return f(), nil }
	}
	steps := []func() (*bench.Table, error){
		static(bench.Table1), static(bench.Table2), static(bench.Table3),
		static(bench.Figure3), static(bench.Figure4),
	}
	for _, m := range []model.Config{model.Model1B3(), model.Model3B(), model.Model7B()} {
		for _, cl := range costmodel.Clusters() {
			steps = append(steps, func() (*bench.Table, error) { return bench.Figure8(m, cl) })
		}
	}
	return append(steps, static(bench.Figure9), bench.Figure10, bench.Figure11,
		bench.ChunkedMLPTable, bench.MicroBatchSaturation, bench.InterleavedComparison, bench.ZB1PSensitivity)
}

func (paperInputs) traced(rec *recorder) (*roundOut, error) {
	steps := paperExperiments()
	if rec.sampleCells > 0 {
		steps = steps[:0]
	}
	var tables []*helixpipe.ExperimentTable
	for _, step := range steps {
		var t *bench.Table
		var err error
		id := rec.do("bench", 0, -1, 0, func(int32) { t, err = step() })
		if err != nil {
			return nil, err
		}
		rec.rename(id, "bench."+t.ID)
		tables = append(tables, t)
	}
	out := paperOut(tables)

	// The Figure 8 grid again through explicit layer calls: the same
	// registry builds, validation and simulation the experiments run.
	shadowStart := time.Now()
	var cells []cellJob
	for _, m := range []model.Config{model.Model1B3(), model.Model3B(), model.Model7B()} {
		for _, cl := range costmodel.Clusters() {
			for _, seq := range bench.Figure8SeqLens {
				for _, p := range bench.Figure8Stages {
					for _, method := range fig8Columns {
						cells = append(cells, cellJob{method: method, derive: func() (*helixpipe.Session, error) {
							return helixpipe.NewSession(m, cl, helixpipe.WithSeqLen(seq), helixpipe.WithStages(p))
						}})
					}
				}
			}
		}
	}
	rec.runCells(cells, nil)
	out.shadow = time.Since(shadowStart)
	return out, nil
}
