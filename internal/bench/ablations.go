package bench

import (
	"fmt"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
)

// ChunkedMLPTable reproduces the section 4.4.2 fragmentation experiment on
// the caching-allocator simulator: peak reserved vs allocated memory of one
// HelixPipe stage's allocation trace, with and without chunked MLP.
func ChunkedMLPTable() (*Table, error) {
	t := &Table{
		ID:     "chunk",
		Title:  "Chunked MLP vs allocator fragmentation (paper section 4.4.2)",
		Header: []string{"Seq len", "variant", "peak reserved (GB)", "peak allocated (GB)", "frag ratio", "free blocks"},
		Notes: []string{
			"caching-allocator replay of one stage's two-fold FILO iteration (3B model geometry, L/p=4, m=8)",
			"chunked MLP streams the all-gathered sequence through pre-allocated buffers, eliminating the irregular transients",
		},
	}
	for _, seq := range []int{32768, 65536, 131072} {
		unit := int64(seq) * 4096 * 2 / 8 // [s,b,h] fp16 shard per GPU (t=8)
		cfg := memsim.ChunkedMLPConfig{
			UnitBytes:       unit,
			LayersPerStage:  4,
			MicroBatches:    8,
			ChunkTokensFrac: 0.125,
		}
		base := memsim.DefaultConfig()
		base.SegmentBytes = 64 << 20
		plain, chunked, err := memsim.CompareChunking(base, cfg)
		if err != nil {
			return nil, err
		}
		for _, v := range []struct {
			name string
			st   memsim.Stats
		}{{"unchunked", plain}, {"chunked", chunked}} {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dk", seq/1024),
				v.name,
				fmtGB(v.st.PeakReservedBytes),
				fmtGB(v.st.PeakAllocatedBytes),
				fmtF(v.st.FragmentationRatio(), 3),
				fmt.Sprintf("%d", v.st.FreeBlocks),
			})
		}
	}
	return t, nil
}

// MicroBatchSaturation is an extension experiment for the section 3.1
// argument: with a fixed token budget per iteration, longer sequences mean
// fewer micro batches, leaving the pipeline unsaturated and amplifying the
// bubble. It sweeps the micro batch count at fixed p and reports the bubble
// fraction of 1F1B vs HelixPipe.
func MicroBatchSaturation() (*Table, error) {
	t := &Table{
		ID:     "saturation",
		Title:  "Bubble fraction vs micro batch count, 7B/64k/p=4 on H20 (extension of section 3.1)",
		Header: []string{"Micro batches", "1F1B bubble %", "HelixPipe bubble %"},
		Notes: []string{
			"the paper fixes tokens per iteration (e.g. Llama 3: 16M), so long sequences cap m; helix keeps the bubble low even at m=2p",
		},
	}
	for _, m := range []int{8, 16, 32} {
		s := NewScenario(model.Model7B(), costmodel.H20Cluster(), 65536, 4)
		s.MicroBatches = m
		r1, err := s.Simulate(sched.Method1F1B)
		if err != nil {
			return nil, err
		}
		rh, err := s.Simulate(sched.MethodHelix)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m),
			fmtF(r1.BubbleSeconds()/r1.IterationSeconds*100, 1),
			fmtF(rh.BubbleSeconds()/rh.IterationSeconds*100, 1),
		})
	}
	return t, nil
}

// InterleavedComparison is the section 6.2 discussion as an experiment:
// interleaved 1F1B reduces the bubble below 1F1B but cannot remove the
// attention term, while HelixPipe can; and interleaving multiplies p2p
// traffic.
func InterleavedComparison() (*Table, error) {
	t := &Table{
		ID:     "interleaved",
		Title:  "Interleaved 1F1B vs HelixPipe, 7B/p=4 on H20 (paper section 6.2 discussion)",
		Header: []string{"Seq len", "1F1B iter (s)", "Interleaved iter (s)", "HelixPipe iter (s)", "Interleaved p2p (GB)", "Helix p2p (GB)"},
	}
	for _, seq := range []int{32768, 131072} {
		s := NewScenario(model.Model7B(), costmodel.H20Cluster(), seq, 4)
		r1, err := s.Simulate(sched.Method1F1B)
		if err != nil {
			return nil, err
		}
		ri, err := s.Simulate(sched.MethodInterleaved)
		if err != nil {
			return nil, err
		}
		rh, err := s.Simulate(sched.MethodHelix)
		if err != nil {
			return nil, err
		}
		sum := func(v []int64) int64 {
			var total int64
			for _, x := range v {
				total += x
			}
			return total
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dk", seq/1024),
			fmtF(r1.IterationSeconds, 2),
			fmtF(ri.IterationSeconds, 2),
			fmtF(rh.IterationSeconds, 2),
			fmtGB(sum(ri.BytesSent)),
			fmtGB(sum(rh.BytesSent)),
		})
	}
	return t, nil
}

// ZB1PSensitivity is an extension experiment for the paper's observation
// that ZB1P is unstable when backward-B and backward-W are uneven: it
// scales the W share of pre/post backward and reports the ZB1P bubble.
func ZB1PSensitivity() (*Table, error) {
	t := &Table{
		ID:     "zb1p-sensitivity",
		Title:  "ZB1P bubble vs backward-W share (extension of section 5.2)",
		Header: []string{"W share of backward", "ZB1P bubble (ms)", "1F1B bubble (ms)"},
		Notes:  []string{"delaying W fills bubbles only as long as there is enough W work: small W shares leave ZB1P close to 1F1B"},
	}
	s := NewScenario(model.Model7B(), costmodel.H20Cluster(), 65536, 4)
	baseCosts := sched.NewCosts(s.Workload(), model.BatchSpec{}, nil)
	cfg := sched.Config{Stages: s.Stages, MicroBatches: s.MicroBatches, Layers: s.Model.Layers}
	for _, share := range []float64{0.1, 0.33, 0.5} {
		costs := baseCosts
		for _, seg := range []model.Segment{model.SegPre, model.SegPost} {
			total := baseCosts.Seg[seg][model.BackwardB] + baseCosts.Seg[seg][model.BackwardW]
			costs.Seg[seg][model.BackwardW] = total * share
			costs.Seg[seg][model.BackwardB] = total * (1 - share)
		}
		zbPlan, err := sched.ZB1P(cfg, costs)
		if err != nil {
			return nil, err
		}
		obPlan, err := sched.OneFOneB(cfg, costs)
		if err != nil {
			return nil, err
		}
		zb, err := simRun(zbPlan)
		if err != nil {
			return nil, err
		}
		ob, err := simRun(obPlan)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmtF(share, 2),
			fmtMS(zb.BubbleSeconds()),
			fmtMS(ob.BubbleSeconds()),
		})
	}
	return t, nil
}

// experiment is one entry of the paper-order experiment table: the ID of
// the table it renders, known before it runs so a selector can skip it.
type experiment struct {
	id  string
	run func() (*Table, error)
}

// experiments lists every experiment in paper order, Figure 8 panels
// included.
func experiments() []experiment {
	static := func(f func() *Table) func() (*Table, error) {
		return func() (*Table, error) { return f(), nil }
	}
	exps := []experiment{
		{"table1", static(Table1)}, {"table2", static(Table2)}, {"table3", static(Table3)},
		{"fig3", static(Figure3)}, {"fig4", static(Figure4)},
	}
	for _, m := range []model.Config{model.Model1B3(), model.Model3B(), model.Model7B()} {
		for _, cl := range costmodel.Clusters() {
			exps = append(exps, experiment{figure8ID(m, cl), func() (*Table, error) { return Figure8(m, cl) }})
		}
	}
	return append(exps,
		experiment{"fig9", static(Figure9)}, experiment{"fig10", Figure10}, experiment{"fig11", Figure11},
		experiment{"chunk", ChunkedMLPTable}, experiment{"saturation", MicroBatchSaturation},
		experiment{"interleaved", InterleavedComparison}, experiment{"zb1p-sensitivity", ZB1PSensitivity})
}

// Select runs, in paper order, only the experiments whose table ID starts
// with prefix; the empty prefix selects every one.
func Select(prefix string) ([]*Table, error) {
	var out []*Table
	for _, e := range experiments() {
		if !strings.HasPrefix(e.id, prefix) {
			continue
		}
		t, err := e.run()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// All runs every experiment and returns the tables in paper order.
func All() ([]*Table, error) { return Select("") }
