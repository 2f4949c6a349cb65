// Package bench defines the reproduction experiments: one runnable
// definition per table and figure of the paper's evaluation, each producing
// the same rows or series the paper reports. cmd/helixbench regenerates
// them all; the root bench_test.go exposes them as Go benchmarks.
package bench

import (
	"fmt"
	"strings"

	// Linked for its registry side effect: the HelixPipe variants register
	// themselves into the sched method registry at init.
	_ "repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier ("table1", "fig8-7B-H20", ...).
	ID string
	// Title describes the experiment and its paper counterpart.
	Title string
	// Header and Rows hold the tabular data.
	Header []string
	Rows   [][]string
	// Notes records paper-vs-measured commentary.
	Notes []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scenario is one simulated training configuration: a model on a cluster at
// a sequence length with a pipeline of p stages and m micro batches. The
// paper's defaults are micro batch size 1 and m = 2p (section 5.1).
type Scenario struct {
	Model        model.Config
	Cluster      costmodel.ClusterSpec
	SeqLen       int
	MicroBatch   int
	Stages       int
	MicroBatches int
}

// NewScenario builds the paper-default scenario.
func NewScenario(m model.Config, cl costmodel.ClusterSpec, seqLen, stages int) Scenario {
	return Scenario{Model: m, Cluster: cl, SeqLen: seqLen, MicroBatch: 1,
		Stages: stages, MicroBatches: 2 * stages}
}

// Workload returns the cost-model workload of the scenario.
func (s Scenario) Workload() costmodel.Workload {
	return costmodel.NewWorkload(s.Model, s.Cluster, model.Shape{B: s.MicroBatch, S: s.SeqLen})
}

// MemoryBudget returns the per-GPU activation budget handed to AdaPipe.
func (s Scenario) MemoryBudget() int64 {
	return costmodel.ActivationBudget(s.Model, s.Cluster, s.Stages)
}

// Simulate builds one registered method's plan for the scenario through the
// sched method registry and simulates it.
func (s Scenario) Simulate(method sched.Method) (*sim.Result, error) {
	cfg := sched.Config{Stages: s.Stages, MicroBatches: s.MicroBatches, Layers: s.Model.Layers}
	costs := sched.NewCosts(s.Workload(), model.BatchSpec{}, nil)
	plan, err := sched.Build(method, cfg, costs, sched.BuildParams{MemoryBudget: s.MemoryBudget()})
	if err != nil {
		return nil, err
	}
	return sim.Run(plan, sim.Options{SMPenalty: s.Cluster.CommSMPenalty})
}

// Figure8Methods are the four methods of the paper's main comparison.
var Figure8Methods = []sched.Method{
	sched.Method1F1B, sched.MethodZB1P, sched.MethodAdaPipe, sched.MethodHelix,
}

// TokensPerIteration returns the tokens one iteration processes.
func (s Scenario) TokensPerIteration() int64 {
	return int64(s.MicroBatch) * int64(s.SeqLen) * int64(s.MicroBatches)
}

// ThroughputRow simulates every Figure-8 method and returns the throughputs
// (tokens/s) keyed by method.
func (s Scenario) ThroughputRow() (map[sched.Method]float64, error) {
	out := map[sched.Method]float64{}
	for _, method := range Figure8Methods {
		res, err := s.Simulate(method)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", method, err)
		}
		out[method] = res.Throughput(s.TokensPerIteration())
	}
	return out, nil
}

// fmtGB renders bytes as GB with one decimal.
func fmtGB(b int64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<30)) }

// fmtMS renders seconds as milliseconds.
func fmtMS(s float64) string { return fmt.Sprintf("%.1f", s*1e3) }

// fmtF renders a float with the given decimals.
func fmtF(v float64, dec int) string { return fmt.Sprintf("%.*f", dec, v) }

// simRun simulates a prebuilt plan with default options.
func simRun(plan *sched.Plan) (*sim.Result, error) {
	return sim.Run(plan, sim.Options{})
}
