package bench

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
)

// Figure8SeqLens and Figure8Stages are the paper's sweep axes.
var (
	Figure8SeqLens = []int{32768, 65536, 98304, 131072}
	Figure8Stages  = []int{2, 4, 8}
)

// Figure8 reproduces one panel of paper Figure 8: normalized training
// throughput of the four methods for one model on one cluster, across
// pipeline sizes and sequence lengths. Throughput is normalized per
// (pipeline size, sequence length) group to the best method, exactly like
// the paper's bars.
func Figure8(m model.Config, cl costmodel.ClusterSpec) (*Table, error) {
	t := &Table{
		ID:     figure8ID(m, cl),
		Title:  fmt.Sprintf("Normalized throughput, %s model on %s (paper Figure 8)", m.Name, cl.Name),
		Header: []string{"Seq len", "PP", "1F1B", "ZB1P", "AdaPipe", "HelixPipe", "Helix vs best baseline"},
	}
	for _, seq := range Figure8SeqLens {
		for _, p := range Figure8Stages {
			s := NewScenario(m, cl, seq, p)
			row, err := s.ThroughputRow()
			if err != nil {
				return nil, fmt.Errorf("%s/%s seq=%d p=%d: %w", m.Name, cl.Name, seq, p, err)
			}
			best := 0.0
			for _, v := range row {
				if v > best {
					best = v
				}
			}
			bestBaseline := 0.0
			for _, method := range []sched.Method{sched.Method1F1B, sched.MethodZB1P, sched.MethodAdaPipe} {
				if row[method] > bestBaseline {
					bestBaseline = row[method]
				}
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dk", seq/1024),
				fmt.Sprintf("%d", p),
				fmtF(row[sched.Method1F1B]/best, 3),
				fmtF(row[sched.MethodZB1P]/best, 3),
				fmtF(row[sched.MethodAdaPipe]/best, 3),
				fmtF(row[sched.MethodHelix]/best, 3),
				fmt.Sprintf("%+.1f%%", (row[sched.MethodHelix]/bestBaseline-1)*100),
			})
		}
	}
	return t, nil
}

// figure8ID is the table ID of one Figure 8 panel.
func figure8ID(m model.Config, cl costmodel.ClusterSpec) string {
	return fmt.Sprintf("fig8-%s-%s", m.Name, cl.Name)
}

// Figure8All runs every Figure 8 panel: three models by two clusters.
func Figure8All() ([]*Table, error) { return Select("fig8-") }

// Figure10 reproduces paper Figure 10: per-stage peak memory (model states
// plus measured activation stash) for the 3B model at 128k on 8 stages.
func Figure10() (*Table, error) {
	s := NewScenario(model.Model3B(), costmodel.H20Cluster(), 131072, 8)
	t := &Table{
		ID:     "fig10",
		Title:  "Per-stage peak memory (GB), 3B model, 128k, p=8 (paper Figure 10)",
		Header: []string{"Method", "P0", "P1", "P2", "P3", "P4", "P5", "P6", "P7"},
		Notes: []string{
			"includes model states; ZB1P spikes at the last stage (fp32 embedding-gradient stash for deferred W)",
			"HelixPipe is lowest and balanced; 1F1B is skewed toward early stages",
		},
	}
	modelState := s.Model.ModelStateBytesPerStage(s.Stages, s.Cluster.GPUsPerNode)
	embedState := s.Model.EmbeddingStateBytes(s.Cluster.GPUsPerNode)
	for _, method := range Figure8Methods {
		res, err := s.Simulate(method)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", method, err)
		}
		row := []string{string(method)}
		for st := 0; st < s.Stages; st++ {
			total := res.PeakStashBytes[st] + modelState
			// Embedding/head states live on the pipeline ends (both on
			// stage 0 for HelixPipe, section 4.6).
			switch {
			case method == sched.MethodHelix && st == 0:
				total += 2 * embedState
			case method != sched.MethodHelix && (st == 0 || st == s.Stages-1):
				total += embedState
			}
			row = append(row, fmtGB(total))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure11 reproduces paper Figure 11: memory footprint and normalized
// throughput of HelixPipe with and without recomputation without attention,
// 3B model on 4 stages, both clusters.
func Figure11() (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "Recomputation-without-attention ablation, 3B model, p=4 (paper Figure 11)",
		Header: []string{"Cluster", "Seq len", "recomp mem P0-P3 (GB)", "no-recomp mem P0-P3 (GB)", "recomp tput", "no-recomp tput"},
		Notes: []string{
			"throughput normalized to the faster variant per row",
			"the throughput cost of recomputation shrinks as attention dominates with longer sequences (up to ~20% at 32k)",
		},
	}
	for _, cl := range costmodel.Clusters() {
		for _, seq := range Figure8SeqLens {
			s := NewScenario(model.Model3B(), cl, seq, 4)
			with, err := s.Simulate(sched.MethodHelix)
			if err != nil {
				return nil, err
			}
			without, err := s.Simulate(sched.MethodHelixNoRecompute)
			if err != nil {
				return nil, err
			}
			tokens := s.TokensPerIteration()
			tw := with.Throughput(tokens)
			two := without.Throughput(tokens)
			best := tw
			if two > best {
				best = two
			}
			memRange := func(peaks []int64) string {
				lo, hi := peaks[0], peaks[0]
				for _, v := range peaks {
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				return fmt.Sprintf("%s-%s", fmtGB(lo), fmtGB(hi))
			}
			t.Rows = append(t.Rows, []string{
				cl.Name,
				fmt.Sprintf("%dk", seq/1024),
				memRange(with.PeakStashBytes),
				memRange(without.PeakStashBytes),
				fmtF(tw/best, 3),
				fmtF(two/best, 3),
			})
		}
	}
	return t, nil
}
