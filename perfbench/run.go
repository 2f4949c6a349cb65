package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// roundStats are one measured round's figures.
type roundStats struct {
	out        *roundOut
	elapsed    time.Duration
	cpu        time.Duration
	allocBytes uint64
	allocs     uint64
	// kernel is the reference kernel's duration just before the round;
	// speed is the host's speed during the round relative to the
	// reference host (speed.go).
	kernel time.Duration
	speed  float64
	// peakRSS is the round's resident-memory high-water mark, in MB.
	peakRSS float64
}

// cellsPerS is the round's cell rate at the host's speed.
func (s roundStats) cellsPerS() float64 {
	return float64(s.out.cells) / (s.elapsed - s.out.setup - s.out.shadow).Seconds()
}

// rate is the round's cell rate at the reference speed.
func (s roundStats) rate() float64 { return s.cellsPerS() / s.speed }

// measureRound runs the reference kernel, then one round between CPU-time
// and heap-allocation reads. The round starts from a collected heap, as
// one submission from a fresh process would, so no round pays for the
// previous round's (or the kernel's) garbage.
func measureRound(run func() (*roundOut, error)) (roundStats, error) {
	var m0, m1 runtime.MemStats
	kernel := hostKernel()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	c0 := cpuTime()
	t0 := time.Now()
	out, err := run()
	elapsed := time.Since(t0)
	c1 := cpuTime()
	peak := peakRSSMB()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return roundStats{}, err
	}
	if out.cells == 0 {
		return roundStats{}, fmt.Errorf("round completed no cells")
	}
	return roundStats{out: out, elapsed: elapsed, cpu: c1 - c0, kernel: kernel, peakRSS: peak,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc, allocs: m1.Mallocs - m0.Mallocs}, nil
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the process's resident-memory high-water mark to its
// current resident size (Linux /proc/self/clear_refs), so that each round
// reads its own peak. The process-wide mark is the largest of dozens of
// garbage-collector overshoots, a few MB apart from run to run; the median
// of the rounds' marks is steady.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB returns the resident-memory high-water mark since the last
// reset: VmHWM from /proc/self/status, or where that cannot be read the
// process-wide mark from getrusage.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			rest, ok := strings.CutPrefix(line, "VmHWM:")
			if f := strings.Fields(rest); ok && len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// check accumulates correctness outcomes.
type check struct {
	ref       string // digest of the warm-up round
	attempted int
	failed    int
}

// newCheck runs the untimed warm-up round, which also lets lazy set-up
// (process-wide cost-book memo, runner pool) finish before timing, and
// pins its digest: against the committed digest on the default seed, and
// as the reference every later round must reproduce.
func newCheck(w workload, in inputs, seed uint64, sz size) (*check, error) {
	warm, err := in.round()
	if err != nil {
		return nil, err
	}
	c := &check{ref: warm.digest}
	if want, ok := pinnedDigest(w.name, sz); ok && seed == defaultSeed && want != warm.digest {
		fmt.Fprintf(os.Stderr, "perfbench: %s digest %s, pinned %s: every cell counts as failed\n",
			w.name, warm.digest, want)
		c.ref = "mismatch"
	}
	return c, nil
}

// round books one round's cells; a digest that differs from the reference
// fails every cell of the round.
func (c *check) round(out *roundOut) {
	c.attempted += out.cells
	if out.digest != c.ref {
		c.failed += out.cells
		return
	}
	c.failed += out.failed
}

// sample books a verify pass over a round's cells.
func (c *check) sample(in inputs, out *roundOut) error {
	checked, failed, err := in.verify(out)
	if err != nil {
		return err
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d sampled cells differ from a direct simulation\n", failed, checked)
	}
	c.failed += failed
	return nil
}

func (c *check) result(metrics map[string]metric) result {
	failed := min(c.failed, c.attempted)
	return result{Correct: failed == 0, Attempted: c.attempted, Failed: failed, Metrics: metrics}
}

// measure runs rounds of fn until the budget has passed (at least two).
func measure(budget time.Duration, c *check, fn func() (*roundOut, error)) ([]roundStats, error) {
	var rounds []roundStats
	deadline := time.Now().Add(budget)
	for len(rounds) < 2 || time.Now().Before(deadline) {
		st, err := measureRound(fn)
		if err != nil {
			return nil, err
		}
		c.round(st.out)
		if len(rounds) > 0 {
			// Only the last round's outputs are sampled; holding every
			// round's would grow the heap with the run length.
			rounds[len(rounds)-1].out.keep = nil
		}
		rounds = append(rounds, st)
	}
	// A round's host speed is taken from the kernels either side of it.
	last := hostKernel()
	for i := range rounds {
		after := last
		if i+1 < len(rounds) {
			after = rounds[i+1].kernel
		}
		rounds[i].speed = float64(2*refKernel) / float64(rounds[i].kernel+after)
	}
	return rounds, nil
}

// endToEnd measures the end-to-end metrics with tracing off.
func endToEnd(w workload, in inputs, seed uint64, budget time.Duration, sz size) (result, error) {
	c, err := newCheck(w, in, seed, sz)
	if err != nil {
		return result{}, err
	}
	rounds, err := measure(budget, c, in.round)
	if err != nil {
		return result{}, err
	}
	if err := c.sample(in, rounds[len(rounds)-1].out); err != nil {
		return result{}, err
	}
	per := func(f func(roundStats) float64) float64 {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = f(r)
		}
		return median(vals)
	}
	// Times are scaled to the reference speed (speed.go).
	metrics := map[string]metric{
		"setup_s":     {per(func(r roundStats) float64 { return r.out.setup.Seconds() * r.speed }), "s"},
		"cells_per_s": {per(roundStats.rate), "1/s"},
		"cpu_ms_per_cell": {per(func(r roundStats) float64 {
			return float64(r.cpu) / 1e6 / float64(r.out.cells) * r.speed
		}), "ms"},
		"alloc_bytes_per_cell": {per(func(r roundStats) float64 {
			return float64(r.allocBytes) / float64(r.out.cells)
		}), "B"},
		"allocs_per_cell": {per(func(r roundStats) float64 {
			return float64(r.allocs) / float64(r.out.cells)
		}), "count"},
		"peak_rss_mb": {per(func(r roundStats) float64 { return r.peakRSS }), "MB"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d cells, digest %s; host speed %.4g of the reference, %.6g cells per host second\n",
		len(rounds), c.attempted, c.ref, per(func(r roundStats) float64 { return r.speed }), per(roundStats.cellsPerS))
	return c.result(metrics), nil
}

// poolCounters reads the sim runner pool's gets and cold inits.
func poolCounters() (gets, cold int64) {
	return obs.Default().Counter("helix_sim_runner_pool_gets_total").Value(),
		obs.Default().Counter("helix_sim_runner_pool_cold_inits_total").Value()
}

// traced measures the per-layer metrics: a third of the budget runs
// untraced rounds (the reference for the tracing overhead, and the stream
// metrics from the entry point's own progress events), the rest runs
// traced rounds through explicit layer calls, and a final sequential pass
// over a few cells counts allocations per layer call.
func traced(w workload, in inputs, seed uint64, budget time.Duration, path string, sz size) (result, error) {
	c, err := newCheck(w, in, seed, sz)
	if err != nil {
		return result{}, err
	}
	plain, err := measure(budget/3, c, in.round)
	if err != nil {
		return result{}, err
	}
	if err := c.sample(in, plain[len(plain)-1].out); err != nil {
		return result{}, err
	}
	rec := newRecorder(false)
	gets0, cold0 := poolCounters()
	// The traced rounds must reproduce the untraced digest: the explicit
	// layer calls rebuild the same cells the entry point runs.
	tc := &check{ref: c.ref}
	tracedRounds, err := measure(budget-budget/3, tc, func() (*roundOut, error) {
		rec.beginRound()
		return in.traced(rec)
	})
	if err != nil {
		return result{}, err
	}
	gets1, cold1 := poolCounters()
	c.attempted += tc.attempted
	c.failed += tc.failed
	allocRec := newRecorder(true)
	allocRec.sampleCells = allocSampleCells
	if _, err := in.traced(allocRec); err != nil {
		return result{}, err
	}

	metrics := layerMetrics(rec, allocRec, plain, tracedRounds)
	if gets1 > gets0 {
		metrics["sim.pool_reuse_ratio"] = metric{1 - float64(cold1-cold0)/float64(gets1-gets0), "ratio"}
	}
	if err := rec.writePerfetto(path, w.name); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d untraced + %d traced rounds; trace written to %s\n",
		len(plain), len(tracedRounds), path)
	return c.result(metrics), nil
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quantile returns the q-quantile by linear interpolation.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest of the standard percentiles that leaves at
// least ten samples beyond it, and its value; (0, 0) when none does.
func tail(vals []float64) (pct, value float64) {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		beyond := float64(len(vals)) * (1 - p/100)
		if beyond >= 10 {
			return p, quantile(vals, p/100)
		}
	}
	return 0, 0
}

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}
