package bench

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
)

func TestTableRender(t *testing.T) {
	tbl := Table1()
	out := tbl.Render()
	for _, want := range []string{"table1", "QKVLinear", "Attention", "Total", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

func TestStaticExperiments(t *testing.T) {
	for _, tbl := range []*Table{Table1(), Table3(), Figure3(), Figure4(), Figure9()} {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty", tbl.ID)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Errorf("%s: row width %d != header %d", tbl.ID, len(row), len(tbl.Header))
			}
		}
	}
}

func TestTable2CrossValidates(t *testing.T) {
	tbl := Table2()
	if len(tbl.Rows) != 3 {
		t.Fatalf("table2 should have 3 rows, got %d", len(tbl.Rows))
	}
	// Measured columns must be filled (simulations succeeded).
	for _, row := range tbl.Rows {
		if row[2] == "-" || row[4] == "-" {
			t.Errorf("%s: simulation failed", row[0])
		}
	}
}

// TestFigure8Headline runs the 7B/H20 panel and checks the paper's headline
// claims: HelixPipe wins at 128k/p=8 by double digits, and its advantage
// grows with sequence length.
func TestFigure8Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("full panel sweep")
	}
	tbl, err := Figure8(model.Model7B(), costmodel.H20Cluster())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(Figure8SeqLens)*len(Figure8Stages) {
		t.Fatalf("panel has %d rows", len(tbl.Rows))
	}
	find := func(seq string, p string) []string {
		for _, row := range tbl.Rows {
			if row[0] == seq && row[1] == p {
				return row
			}
		}
		t.Fatalf("row %s/%s missing", seq, p)
		return nil
	}
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(cell, "+"), "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	headline := find("128k", "8")
	if headline[5] != "1.000" {
		t.Errorf("HelixPipe should be the best method at 128k/p8, normalized %s", headline[5])
	}
	gain := parse(headline[6])
	if gain < 12 || gain > 40 {
		t.Errorf("headline gain %.1f%%, paper reports 26%%", gain)
	}
	// Scalability: gain at 128k exceeds gain at 32k for p=8.
	if g32 := parse(find("32k", "8")[6]); g32 >= gain {
		t.Errorf("gain should grow with sequence length: 32k=%.1f%% vs 128k=%.1f%%", g32, gain)
	}
}

// TestFigure8A800ShortSeq pins the paper's weakest case: on A800 at 32k,
// 1F1B is the best method.
func TestFigure8A800ShortSeq(t *testing.T) {
	if testing.Short() {
		t.Skip("full panel sweep")
	}
	s := NewScenario(model.Model7B(), costmodel.A800Cluster(), 32768, 8)
	row, err := s.ThroughputRow()
	if err != nil {
		t.Fatal(err)
	}
	if row[sched.MethodHelix] >= row[sched.Method1F1B] {
		t.Errorf("A800/32k: 1F1B (%.0f tok/s) should beat HelixPipe (%.0f tok/s)",
			row[sched.Method1F1B], row[sched.MethodHelix])
	}
}

func TestFigure10Shapes(t *testing.T) {
	tbl, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("want 4 methods, got %d", len(tbl.Rows))
	}
	byMethod := map[string][]float64{}
	for _, row := range tbl.Rows {
		var vals []float64
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, v)
		}
		byMethod[row[0]] = vals
	}
	ob := byMethod["1F1B"]
	if ob[0] <= ob[6] {
		t.Error("1F1B memory should be skewed toward stage 0")
	}
	zb := byMethod["ZB1P"]
	if zb[7] <= zb[6] {
		t.Error("ZB1P should spike at the last stage")
	}
	hx := byMethod["HelixPipe"]
	maxH, minH := hx[0], hx[0]
	var maxZ float64
	for i := range hx {
		if hx[i] > maxH {
			maxH = hx[i]
		}
		if hx[i] < minH {
			minH = hx[i]
		}
		if zb[i] > maxZ {
			maxZ = zb[i]
		}
	}
	if maxH >= maxZ {
		t.Error("HelixPipe peak should be below ZB1P peak")
	}
	if maxH > 1.8*minH {
		t.Errorf("HelixPipe memory should be balanced: %v", hx)
	}
}

func TestFigure11RecomputeTradeoff(t *testing.T) {
	tbl, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 11: recomputation sacrifices up to ~20% throughput at
	// short sequences and the gap shrinks as attention grows to dominate;
	// on the A800 cluster the gap is near zero (its 2x compute makes the
	// recomputed pre/post passes cheap relative to communication).
	gapAt := func(cluster, seq string) float64 {
		for _, row := range tbl.Rows {
			if row[0] == cluster && row[1] == seq {
				with, _ := strconv.ParseFloat(row[4], 64)
				without, _ := strconv.ParseFloat(row[5], 64)
				return without - with
			}
		}
		t.Fatalf("row %s/%s missing", cluster, seq)
		return 0
	}
	short := gapAt("H20", "32k")
	long := gapAt("H20", "128k")
	if short < 0.08 || short > 0.25 {
		t.Errorf("H20/32k recompute gap = %.3f, paper reports up to ~20%%", short)
	}
	if long >= short {
		t.Errorf("H20: recompute gap should shrink with sequence length: 32k=%.3f 128k=%.3f", short, long)
	}
	for _, seq := range []string{"32k", "64k", "96k", "128k"} {
		if gap := gapAt("A800", seq); gap < -0.02 || gap > 0.12 {
			t.Errorf("A800/%s: recompute gap %.3f, paper reports near-zero gaps on A800", seq, gap)
		}
	}
}

func TestAblationTables(t *testing.T) {
	for _, fn := range []func() (*Table, error){ChunkedMLPTable, MicroBatchSaturation, InterleavedComparison, ZB1PSensitivity} {
		tbl, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty", tbl.ID)
		}
	}
}

func TestMicroBatchSaturationShrinksBubble(t *testing.T) {
	tbl, err := MicroBatchSaturation()
	if err != nil {
		t.Fatal(err)
	}
	first, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	last, _ := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-1][1], 64)
	if last >= first {
		t.Errorf("1F1B bubble fraction should shrink with more micro batches: %v -> %v", first, last)
	}
}

// TestSelectByTableID pins what makes the experiment selector lazy and still
// exact: each table entry's ID is the ID of the table it renders, so
// filtering by entry ID before running selects the same tables, in the same
// order, as running everything and filtering the results.
func TestSelectByTableID(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	exps := experiments()
	if len(all) != len(exps) {
		t.Fatalf("All returned %d tables for %d experiments", len(all), len(exps))
	}
	for i, e := range exps {
		if all[i].ID != e.id {
			t.Errorf("experiment %d is listed as %q but renders %q", i, e.id, all[i].ID)
		}
	}
	for _, prefix := range []string{"fig1", "fig8-", "table3", "zb1p", "nomatch"} {
		got, err := Select(prefix)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, tbl := range all {
			if strings.HasPrefix(tbl.ID, prefix) {
				want = append(want, tbl.ID)
			}
		}
		var ids []string
		for _, tbl := range got {
			ids = append(ids, tbl.ID)
		}
		if strings.Join(ids, ",") != strings.Join(want, ",") {
			t.Errorf("Select(%q) = %v, want %v", prefix, ids, want)
		}
	}
}
