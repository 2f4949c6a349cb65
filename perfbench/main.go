// Command perfbench is the repository benchmark: it drives named workloads
// through the public entry points of the cell pipeline (spec resolve →
// cost book → plan build → validate → simulate → report → cache →
// Session.Stream, plus the tuner, the fleet engine and the paper
// experiments) and prints host-time metrics of the program, never of the
// simulated cluster.
//
//	go run . --workload sweep-grid --seed 1 --seconds 10 --trace 0
//
// Each workload is a closed loop with one client: it submits one round of
// work, waits for every result, and submits the next until --seconds have
// passed. Round medians keep the figures steady on a shared host. With
// --trace 0 the last line of stdout is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separate traced run, whose spans are also written as a Perfetto trace.
// Human-readable lines go to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 0, "input seed (0 = the workload's default seed, whose digest is pinned)")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traceMode := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceMode)
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	// One P, so the Stream and tune pools run one cell at a time: on a
	// small shared host, two-P runs of identical inputs spread several
	// times wider run to run than one-P runs.
	runtime.GOMAXPROCS(1)
	if *seed == 0 {
		*seed = defaultSeed
	}
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%d host: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		w.name, *seed, *seconds, *traceMode, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)

	in, err := w.prepare(*seed, sizeFull)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: preparing %s: %v\n", w.name, err)
		return 1
	}
	var res result
	if *traceMode == 1 {
		// The Perfetto trace goes next to the build output, inside the
		// checkout.
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		res, err = traced(w, in, *seed, budget, path, sizeFull)
	} else {
		res, err = endToEnd(w, in, *seed, budget, sizeFull)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printHuman(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printHuman lists every metric by name with its unit on stderr.
func printHuman(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s (failed %d of %d attempted; correct=%v)\n",
		"fail_ratio", ratio, "ratio", res.Failed, res.Attempted, res.Correct)
}
