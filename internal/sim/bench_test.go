package sim

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
)

// benchEngineInputs builds the steady-state benchmark workload: the helix
// schedule of the paper's 3B/A800 configuration at 64k, with the cluster's
// SMPenalty so the pre-pass oracle and the overlap search are both on the
// measured path.
func benchEngineInputs(tb testing.TB) (*sched.Plan, Options) {
	tb.Helper()
	mc := model.Model3B()
	cl := costmodel.A800Cluster()
	const p, m = 8, 16
	w := costmodel.NewWorkload(mc, cl, model.Shape{B: 1, S: 65536})
	costs := sched.NewCosts(w, model.BatchSpec{}, nil)
	cfg := sched.Config{Stages: p, MicroBatches: m, Layers: mc.Layers}
	plan, err := core.Build(cfg, costs, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return plan, Options{SMPenalty: cl.CommSMPenalty}
}

// BenchmarkEngineSteadyState measures re-simulating one plan on a reused
// Runner — the fleet-pricing / repeated-cell hot path. The alloc-gate CI
// step pins its allocs/op to the budget in testdata/alloc_budget.json
// (zero).
func BenchmarkEngineSteadyState(b *testing.B) {
	plan, opt := benchEngineInputs(b)
	r, err := NewRunner(plan, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineOneShot measures the cold path — a pooled Runner per Run
// call, as one sweep cell pays it. The alloc-gate CI step pins its allocs/op
// to the budget in testdata/alloc_budget.json: once the pool is warm, a cold
// start costs only the deep-copied Result, not a rebuilt engine.
func BenchmarkEngineOneShot(b *testing.B) {
	plan, opt := benchEngineInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(plan, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidate measures one full sched.Validate of the benchmark plan,
// the validation every fresh sweep cell pays before it simulates. Validate
// memoizes success on the plan, so each iteration validates a copy of the
// never-validated plan. The alloc-gate CI step pins its allocs/op to the
// budget in testdata/alloc_budget.json. (It lives here rather than in
// internal/sched because building the helix plan links internal/core,
// which that package's tests must not.)
func BenchmarkValidate(b *testing.B) {
	plan, _ := benchEngineInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := *plan
		if err := sched.Validate(&fresh); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunnerReuseMatchesOneShot proves reset correctness: a reused Runner
// must reproduce the one-shot result exactly, run after run.
func TestRunnerReuseMatchesOneShot(t *testing.T) {
	plan, opt := benchEngineInputs(t)
	want, err := Run(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("run %d diverged from one-shot result:\n got %s\nwant %s", i, gotJSON, wantJSON)
		}
	}
}

// allocBudget is the pinned allocation budget of the steady-state engine
// benchmark (testdata/alloc_budget.json at the repo root); CI's alloc-gate
// fails when the measured allocs/op exceed it.
type allocBudget struct {
	EngineSteadyStateAllocsPerOp float64 `json:"engine_steady_state_allocs_per_op"`
	EngineColdRunAllocsPerOp     float64 `json:"engine_cold_run_allocs_per_op"`
	ValidateAllocsPerOp          float64 `json:"validate_allocs_per_op"`
}

// readAllocBudget loads the pinned budget file shared with the CI gate.
func readAllocBudget(t *testing.T) allocBudget {
	t.Helper()
	raw, err := os.ReadFile("../../testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget allocBudget
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	return budget
}

// TestEngineSteadyStateAllocBudget enforces the budget in-process: the
// steady-state run must not allocate more per iteration than the pinned
// file allows (zero). The same contract backs the CI alloc-gate step, which
// re-checks it from the -benchmem output.
func TestEngineSteadyStateAllocBudget(t *testing.T) {
	budget := readAllocBudget(t)
	plan, opt := benchEngineInputs(t)
	r, err := NewRunner(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: the first run grows maps and the class-stats entries; the
	// budget pins the steady state.
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget.EngineSteadyStateAllocsPerOp {
		t.Errorf("steady-state engine run allocates %.1f allocs/op, budget %.1f (testdata/alloc_budget.json)",
			got, budget.EngineSteadyStateAllocsPerOp)
	}
}

// TestEngineColdRunAllocBudget pins the pooled cold-start path: once the
// Runner pool is warm, sim.Run must cost no more allocations per call than
// the budget file allows (the deep-copied Result plus pool bookkeeping — no
// rebuilt engine). The CI alloc-gate re-checks the same contract from
// BenchmarkEngineOneShot's -benchmem output.
func TestEngineColdRunAllocBudget(t *testing.T) {
	budget := readAllocBudget(t)
	plan, opt := benchEngineInputs(t)
	// Warm up the pool and the engine's maps.
	if _, err := Run(plan, opt); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := Run(plan, opt); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget.EngineColdRunAllocsPerOp {
		t.Errorf("cold-start sim.Run allocates %.1f allocs/op, budget %.1f (testdata/alloc_budget.json)",
			got, budget.EngineColdRunAllocsPerOp)
	}
}

// TestValidateAllocBudget pins sched.Validate on the benchmark plan: with
// its scratch pooled, a full validation may allocate no more than the
// budget file allows. The CI alloc-gate re-checks the same contract from
// BenchmarkValidate's -benchmem output.
func TestValidateAllocBudget(t *testing.T) {
	budget := readAllocBudget(t)
	plan, _ := benchEngineInputs(t)
	got := testing.AllocsPerRun(20, func() {
		fresh := *plan
		if err := sched.Validate(&fresh); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget.ValidateAllocsPerOp {
		t.Errorf("sched.Validate allocates %.1f allocs/op, budget %.1f (testdata/alloc_budget.json)",
			got, budget.ValidateAllocsPerOp)
	}
}

// TestColdRunResultDetached proves the pooled Run's result is a deep copy: a
// later Run on the same pool must not mutate an earlier result.
func TestColdRunResultDetached(t *testing.T) {
	plan, opt := benchEngineInputs(t)
	first, err := Run(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	firstJSON, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := Run(plan, opt); err != nil {
			t.Fatal(err)
		}
	}
	again, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(firstJSON) {
		t.Fatalf("earlier Run result mutated by later pooled runs:\n was %s\n now %s", firstJSON, again)
	}
}
