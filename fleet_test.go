package helixpipe

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exampleFleet resolves the committed capacity-study spec, optionally
// overriding the policy.
func exampleFleet(t *testing.T, policy string) (*Session, FleetSpec) {
	t.Helper()
	spec, err := ParseSpecFile("examples/fleet_capacity/fleet_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	if policy != "" {
		spec.Fleet.Policy = policy
	}
	session, runset, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if runset.Kind != RunKindFleet || runset.Fleet == nil {
		t.Fatalf("example spec resolved to kind %q, want fleet", runset.Kind)
	}
	return session, *runset.Fleet
}

// TestFleetExampleStream is the acceptance run: the committed example spec
// streams ≥50 jobs onto a preset topology and the report carries the
// capacity-planning metrics — queue wait, JCT, utilization, fragmentation —
// with the spec→Report cache absorbing repeated job shapes.
func TestFleetExampleStream(t *testing.T) {
	session, fs := exampleFleet(t, "")
	if len(fs.Jobs) < 50 {
		t.Fatalf("example stream has %d jobs, want >= 50", len(fs.Jobs))
	}
	report, err := session.Fleet(fs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Jobs != len(fs.Jobs) || len(report.JobRecords) != report.Jobs {
		t.Errorf("report covers %d jobs (%d records), want %d",
			report.Jobs, len(report.JobRecords), len(fs.Jobs))
	}
	if report.MakespanSec <= 0 {
		t.Error("no makespan")
	}
	if report.Wait.MeanSec <= 0 {
		t.Error("no queue wait despite an oversubscribed arrival rate")
	}
	if report.JCT.MeanSec <= report.Wait.MeanSec {
		t.Error("mean JCT not above mean wait")
	}
	if report.Utilization <= 0 || report.Utilization > 1 {
		t.Errorf("utilization %g out of (0,1]", report.Utilization)
	}
	if report.Fragmentation < 0 || report.Fragmentation > 1 {
		t.Errorf("fragmentation %g out of [0,1]", report.Fragmentation)
	}
	if report.CacheHits == 0 {
		t.Error("no cache hits on a repeated-job-shape stream")
	}
	if report.CacheMisses == 0 || report.CacheMisses >= report.Jobs/2 {
		t.Errorf("%d cache misses over %d jobs; the cache is not absorbing repeats",
			report.CacheMisses, report.Jobs)
	}
	if len(report.LinkTraffic) == 0 {
		t.Error("no per-link-class traffic")
	}
}

// TestFleetBestFitBeatsFIFO pins the policy comparison the subsystem exists
// to answer: on the example stream, best-fit's node packing finishes the
// stream sooner than FIFO's first-fit carve.
func TestFleetBestFitBeatsFIFO(t *testing.T) {
	cache := NewReportCache() // shared: both policies price identical job shapes
	run := func(policy string) *FleetReport {
		session, fs := exampleFleet(t, policy)
		fs.Cache = cache
		report, err := session.Fleet(fs)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	fifo := run(FleetPolicyFIFO)
	best := run(FleetPolicyBestFit)
	if best.MakespanSec >= fifo.MakespanSec {
		t.Errorf("best-fit makespan %.1fs is not below fifo %.1fs",
			best.MakespanSec, fifo.MakespanSec)
	}
	if best.Wait.MeanSec >= fifo.Wait.MeanSec {
		t.Errorf("best-fit mean wait %.1fs is not below fifo %.1fs",
			best.Wait.MeanSec, fifo.Wait.MeanSec)
	}
}

// TestFleetPolicyResults pins every preset admission policy's outcome on the
// committed example stream: a fleet-engine or pricing change that moves any
// policy's jobs/hour or makespan shows up here, exactly, per policy.
func TestFleetPolicyResults(t *testing.T) {
	want := map[string]struct{ jobsPerHour, makespanSec float64 }{
		FleetPolicyFIFO:     {357.9329474708741, 603.4649828305522},
		FleetPolicyBestFit:  {365.1024974720002, 591.6146876441597},
		FleetPolicyWorstFit: {365.1024974720002, 591.6146876441597},
		FleetPolicyBackfill: {361.365340517374, 597.7330302091187},
		FleetPolicyPreempt:  {344.70631603742066, 626.6203720402717},
	}
	cache := NewReportCache() // shared: every policy prices the same job shapes
	for _, policy := range FleetPolicies() {
		t.Run(policy, func(t *testing.T) {
			w, ok := want[policy]
			if !ok {
				t.Fatalf("no pinned result for preset policy %q", policy)
			}
			session, fs := exampleFleet(t, policy)
			fs.Cache = cache
			report, err := session.Fleet(fs)
			if err != nil {
				t.Fatal(err)
			}
			if report.ThroughputJobsPerHour != w.jobsPerHour || report.MakespanSec != w.makespanSec {
				t.Errorf("%v jobs/h over a %vs makespan, want %v jobs/h over %vs",
					report.ThroughputJobsPerHour, report.MakespanSec, w.jobsPerHour, w.makespanSec)
			}
		})
	}
	if len(want) != len(FleetPolicies()) {
		t.Errorf("%d pinned policies, %d presets", len(want), len(FleetPolicies()))
	}
}

// TestFleetDeterministicJSON pins end-to-end determinism: resolving and
// running the same spec twice, from scratch, yields byte-identical fleet
// report JSON.
func TestFleetDeterministicJSON(t *testing.T) {
	render := func() []byte {
		session, fs := exampleFleet(t, "")
		report, err := session.Fleet(fs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFleetReportJSON(&buf, report); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("identical specs produced different fleet report JSON")
	}
}

// TestFleetSpecRoundTrip pins -emit-spec idempotency for the fleet section:
// a resolved spec re-resolves to the identical job stream.
func TestFleetSpecRoundTrip(t *testing.T) {
	spec, err := ParseSpecFile("examples/fleet_capacity/fleet_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := spec.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	_, rs1, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	_, rs2, err := resolved.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs1.Fleet.Jobs) != len(rs2.Fleet.Jobs) {
		t.Fatalf("round trip changed the stream: %d vs %d jobs",
			len(rs1.Fleet.Jobs), len(rs2.Fleet.Jobs))
	}
	for i := range rs1.Fleet.Jobs {
		j1, j2 := rs1.Fleet.Jobs[i], rs2.Fleet.Jobs[i]
		if j1.ID != j2.ID || j1.Template != j2.Template ||
			j1.ArrivalSec != j2.ArrivalSec || j1.Priority != j2.Priority ||
			j1.Iterations != j2.Iterations {
			t.Fatalf("job %d drifted through the round trip: %+v vs %+v", i, j1, j2)
		}
	}
}

// TestFleetExecuteRejected pins the entry-point split: Execute refuses fleet
// specs and points at Session.Fleet.
func TestFleetExecuteRejected(t *testing.T) {
	spec, err := ParseSpecFile("examples/fleet_capacity/fleet_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	session, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range session.Execute(spec) {
		if err == nil || !strings.Contains(err.Error(), "Session.Fleet") {
			t.Fatalf("Execute on a fleet spec: err = %v, want a Session.Fleet redirect", err)
		}
		break
	}
}

// TestFleetRequiresTopology pins the flat-cluster error.
func TestFleetRequiresTopology(t *testing.T) {
	spec := &ExperimentSpec{Model: "3B", Cluster: "A800", SeqLen: 8192, Stages: 4,
		Methods: []string{"HelixPipe"},
		Fleet:   &SpecFleet{Templates: []SpecFleetTemplate{{Name: "a"}}},
	}
	if _, _, err := spec.Resolve(); err == nil ||
		!strings.Contains(err.Error(), "topology") {
		t.Errorf("flat-cluster fleet spec resolved: err = %v", err)
	}
}

// TestFleetTraceReplay drives the trace path end to end: a replayed trace
// produces jobs at the traced arrivals with the traced overrides.
func TestFleetTraceReplay(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(trace, []byte(`[
		{"arrival_sec": 0, "template": "short-8k"},
		{"arrival_sec": 30, "template": "long-16k", "priority": 9},
		{"arrival_sec": 30, "template": "short-8k", "iterations": 7}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpecFile("examples/fleet_capacity/fleet_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Fleet.Trace = trace
	spec.Fleet.Jobs = 0
	spec.Fleet.Arrival = ""
	spec.Fleet.RatePerHour = 0
	session, runset, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	fs := runset.Fleet
	if len(fs.Jobs) != 3 {
		t.Fatalf("trace produced %d jobs, want 3", len(fs.Jobs))
	}
	if fs.Jobs[1].Priority != 9 || fs.Jobs[2].Iterations != 7 {
		t.Errorf("trace overrides lost: %+v", fs.Jobs)
	}
	report, err := session.Fleet(*fs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Jobs != 3 {
		t.Errorf("trace run covered %d jobs, want 3", report.Jobs)
	}
}

// TestFleetProbeAndPerfetto pins the observability surface: the spec-level
// probe sees every engine event with sane cumulative counters, and the
// fleet report exports as a valid Perfetto trace with one process per job.
func TestFleetProbeAndPerfetto(t *testing.T) {
	session, fs := exampleFleet(t, "")
	probes := 0
	fs.Probe = func(p FleetProbeEvent) {
		probes++
		if p.Queued < 0 || p.Running < 0 || p.Preemptions < 0 {
			t.Fatalf("negative probe counters at t=%gs: %+v", p.TimeSec, p)
		}
	}
	report, err := session.Fleet(fs)
	if err != nil {
		t.Fatal(err)
	}
	if probes == 0 {
		t.Fatal("spec probe never fired")
	}

	var buf bytes.Buffer
	if err := WriteFleetPerfetto(&buf, report); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("fleet trace is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	runs := 0
	for _, e := range doc.TraceEvents {
		if e["ph"] == "M" && e["name"] == "process_name" {
			pids[e["pid"].(float64)] = true
		}
		if e["ph"] == "X" && e["name"] == "run" {
			runs++
			if e["ts"].(float64) < 0 || e["dur"].(float64) < 0 {
				t.Fatalf("run slice with negative time: %v", e)
			}
		}
	}
	if len(pids) != report.Jobs {
		t.Errorf("trace names %d processes, want one per job (%d)", len(pids), report.Jobs)
	}
	if runs != report.Jobs {
		t.Errorf("trace has %d run slices, want %d", runs, report.Jobs)
	}
}
