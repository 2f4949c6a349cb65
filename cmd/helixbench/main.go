// Command helixbench regenerates the paper's evaluation: every table and
// figure as a text table, written to stdout or one file per experiment. With
// -method it instead fans a Session.Sweep over the paper's sequence-length
// and pipeline-size axes for the named methods.
//
// Usage:
//
//	helixbench                      # run every experiment
//	helixbench -exp fig8            # the Figure 8 panels only
//	helixbench -exp table2 -json    # one experiment, as JSON
//	helixbench -out results/        # also write one .txt per experiment
//	helixbench -method helixpipe,1f1b -json   # sweep reports as JSON
//	helixbench -method help         # list the registered methods
//	helixbench -spec sweep.json -emit-spec resolved.json
//	                                # sweep an experiment spec (flags become
//	                                # overrides), save the resolved spec
//	helixbench -method helixpipe -csv sweep.csv
//	                                # stream rows into sweep.csv as cells
//	                                # complete (tail -f friendly)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	helixpipe "repro"
	"repro/internal/cliutil"
	"repro/internal/obs"
)

// The paper's Figure 8 sweep axes.
var (
	sweepSeqLens = []int{32768, 65536, 98304, 131072}
	sweepStages  = []int{2, 4, 8}
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("helixbench: ")
	sf := cliutil.RegisterSpecFlags()
	var (
		exp         = flag.String("exp", "all", "experiment id prefix (all, table1, table2, table3, fig3, fig4, fig8, fig9, fig10, fig11, chunk, saturation, interleaved, zb1p-sensitivity)")
		outDir      = flag.String("out", "", "directory to write one .txt per experiment")
		methodsFlag = flag.String("method", "", "comma-separated methods (case-insensitive) to sweep instead of running experiments; 'help' lists them")
		modelName   = flag.String("model", "7B", "model preset for -method sweeps")
		clusterName = flag.String("cluster", "H20", "cluster preset for -method sweeps")
		jsonOut     = flag.Bool("json", false, "emit machine-readable JSON on stdout")
		csvPath     = flag.String("csv", "", "stream sweep reports as CSV rows to this path as cells complete")
		noCache     = flag.Bool("nocache", false, "disable the report cache: simulate every cell, even exact duplicates")
		metricsOut  = flag.Bool("metrics", false, "dump the telemetry metrics snapshot (Prometheus text) to stderr after a sweep")
		listenAddr  = flag.String("listen", "", "serve /metrics and /debug/vars on this address (e.g. localhost:6060) for the run's duration")
	)
	flag.Parse()

	if *listenAddr != "" {
		addr, err := obs.Serve(*listenAddr, obs.Default())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "helixbench: serving /metrics and /debug/vars on http://%s\n", addr)
	}
	if *methodsFlag != "" || sf.Path != "" {
		runSweep(sf, *methodsFlag, *modelName, *clusterName, *jsonOut, *csvPath, *noCache, *metricsOut)
		return
	}
	if sf.EmitPath != "" {
		log.Fatal("-emit-spec needs a spec-driven sweep (-method or -spec); the experiment tables are not spec-driven")
	}
	if *csvPath != "" {
		log.Fatal("-csv streams sweep reports; use it with -method or -spec")
	}

	prefix := *exp
	if prefix == "all" {
		prefix = ""
	}
	// Only the matching experiments run: a static table is instant.
	tables, err := helixpipe.SelectExperiments(prefix)
	if err != nil {
		log.Fatal(err)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for _, t := range tables {
		var out string
		if !*jsonOut || *outDir != "" {
			out = t.Render()
		}
		if !*jsonOut {
			fmt.Println(out)
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, t.ID+".txt")
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
	if len(tables) == 0 {
		log.Fatalf("no experiment matches %q", *exp)
	}
	if *jsonOut {
		if err := helixpipe.WriteTablesJSON(os.Stdout, tables); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("ran %d experiments\n", len(tables))
}

// runSweep fans the spec's methods across its sweep axes — the paper's
// Figure 8 grid by default — streaming the reports row by row as cells
// complete (to stdout and, with -csv, as CSV rows), or collecting them as
// JSON.
func runSweep(sf *cliutil.SpecFlags, methodsFlag, modelName, clusterName string, jsonOut bool, csvPath string, noCache, metricsOut bool) {
	spec := sf.Load()
	if spec.Tune != nil {
		log.Fatalf("the spec holds a tune grid; run it with helixtune -spec %s", sf.Path)
	}
	ov := cliutil.NewOverlay()
	ov.String("model", modelName, &spec.Model)
	ov.String("cluster", clusterName, &spec.Cluster)
	ov.Bool("nocache", noCache, &spec.NoCache)
	if ov.Has("method") || len(spec.Methods) == 0 {
		// An empty -method on a spec-driven sweep keeps the spec default:
		// every registered method.
		spec.Methods = cliutil.MethodsArg(methodsFlag)
	}
	if spec.Sweep == nil {
		// A workload spec sweeps stages only: its per-micro-batch shapes
		// replace the sequence-length axis.
		sw := &helixpipe.SpecSweep{Stages: sweepStages}
		if spec.Workload == nil {
			sw.SeqLens = sweepSeqLens
		}
		spec.Sweep = sw
	}
	out := ov.Output(spec, func(out *helixpipe.SpecOutput) {
		ov.Bool("json", jsonOut, &out.JSON)
		ov.String("csv", csvPath, &out.CSV)
	})

	sf.EmitResolved(spec)
	session, runset, err := spec.Resolve()
	if err != nil {
		log.Fatal(err)
	}
	if runset.Engine != helixpipe.EngineSim {
		log.Fatalf("helixbench benchmarks the simulator; run %s-engine specs with helixtrain", runset.Engine)
	}
	for _, note := range spec.Notes() {
		fmt.Fprintf(os.Stderr, "helixbench: note: %s\n", note)
	}
	// A live progress line on stderr tracks the sweep: rate, ETA and the
	// cache-hit ratio, with a one-line summary when the run finishes. The
	// sink also turns on report provenance (the telemetry block), which the
	// digest-based golden comparisons ignore by design.
	prog := obs.NewProgress(os.Stderr, "sweep", len(runset.Cells))
	if session, err = session.With(helixpipe.WithEventSink(prog)); err != nil {
		log.Fatal(err)
	}
	// Attach an observable cache so the run can report its hit/miss counts.
	var cache *helixpipe.ReportCache
	if !spec.NoCache {
		cache = helixpipe.NewReportCache()
		if session, err = session.With(helixpipe.WithReportCache(cache)); err != nil {
			log.Fatal(err)
		}
	}
	// The CSV sink streams: each cell's row is flushed as it completes, so a
	// long sweep can be tailed instead of waited out.
	var csvw *helixpipe.ReportCSVWriter
	if out.CSV != "" {
		f, err := os.Create(out.CSV)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if csvw, err = helixpipe.NewReportCSVWriter(f); err != nil {
			log.Fatal(err)
		}
	}
	var reports []*helixpipe.Report
	if !out.JSON {
		fmt.Printf("%-22s %-8s %-4s %-14s %-14s %-10s\n",
			"method", "seq", "pp", "iteration (s)", "tokens/s", "bubble %")
	}
	for r, err := range session.Execute(spec) {
		if err != nil {
			log.Fatal(err)
		}
		if csvw != nil {
			if err := csvw.Write(r); err != nil {
				log.Fatal(err)
			}
		}
		if out.JSON {
			reports = append(reports, r)
			continue
		}
		fmt.Printf("%-22s %-8d %-4d %-14.3f %-14.0f %-10.1f\n",
			r.Method, r.SeqLen, r.Stages,
			r.Sim.IterationSeconds, r.Sim.TokensPerSecond, r.Sim.BubbleFraction*100)
	}
	if out.JSON {
		if err := helixpipe.WriteReportsJSON(os.Stdout, reports); err != nil {
			log.Fatal(err)
		}
	}
	// The progress summary replaces the old one-off cache-stats print: it
	// already folds the hit count into its final line on stderr, so JSON/CSV
	// consumers of stdout never see it.
	prog.Done()
	if metricsOut {
		if err := obs.WriteProm(os.Stderr, obs.Default()); err != nil {
			log.Fatal(err)
		}
	}
}
