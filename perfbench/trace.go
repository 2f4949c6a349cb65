package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	helixpipe "repro"
	"repro/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented).
type span struct {
	id, parent int32 // parent 0: a root span
	cell       int64 // the cell every span of one cell shares; -1 outside cells
	lane       int   // the worker that ran it
	name       string
	start, end time.Duration // since the recorder's origin
	// allocs and bytes are the call's heap allocations; recorded only by
	// an allocation-counting recorder, which runs one goroutine at a time.
	allocs, bytes uint64
}

// recorder holds spans in memory until the run ends.
type recorder struct {
	t0          time.Time
	countAllocs bool
	// sampleCells, when positive, limits runCells to that many cells
	// spread over each submission.
	sampleCells int
	reg         *obs.Registry // private registry the traced caches publish into

	mu         sync.Mutex
	spans      []span
	roundStart int                // index of the current round's first span
	extras     map[string]float64 // figures a workload's own round observes

	nextCell atomic.Int64
	// Counts recorded at layer boundaries.
	simOps      atomic.Int64
	reportBytes atomic.Int64
	reports     atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheBytes  atomic.Int64
}

// allocSampleCells is how many cells per submission the allocation pass
// drives.
const allocSampleCells = 12

func newRecorder(countAllocs bool) *recorder {
	return &recorder{t0: time.Now(), countAllocs: countAllocs, reg: obs.NewRegistry(),
		extras: map[string]float64{}}
}

// beginRound marks where the next traced round's spans start.
func (r *recorder) beginRound() {
	r.mu.Lock()
	r.roundStart = len(r.spans)
	r.mu.Unlock()
}

func (r *recorder) setExtra(name string, v float64) {
	r.mu.Lock()
	r.extras[name] = v
	r.mu.Unlock()
}

func (r *recorder) rename(id int32, name string) {
	r.mu.Lock()
	r.spans[id-1].name = name
	r.mu.Unlock()
}

// do runs fn inside a span and returns the span's id; fn receives the id
// so it can parent child spans.
func (r *recorder) do(name string, parent int32, cell int64, lane int, fn func(id int32)) int32 {
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{id: id, parent: parent, cell: cell, lane: lane, name: name})
	r.mu.Unlock()
	var m0, m1 runtime.MemStats
	if r.countAllocs {
		runtime.ReadMemStats(&m0)
	}
	start := time.Since(r.t0)
	fn(id)
	end := time.Since(r.t0)
	if r.countAllocs {
		runtime.ReadMemStats(&m1)
	}
	r.mu.Lock()
	s := &r.spans[id-1]
	s.start, s.end = start, end
	s.allocs, s.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.mu.Unlock()
	return id
}

// add records a span whose times were observed elsewhere (progress
// events of the program's own worker pools).
func (r *recorder) add(name string, cell int64, lane int, start, end time.Time) {
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{id: id, cell: cell, lane: lane, name: name,
		start: start.Sub(r.t0), end: end.Sub(r.t0)})
	r.mu.Unlock()
}

func (r *recorder) cacheStats(st helixpipe.CacheStats) {
	r.cacheHits.Add(int64(st.Hits))
	r.cacheMisses.Add(int64(st.Misses))
	r.cacheBytes.Add(st.Bytes)
}

// durations returns the durations of every span with the name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time of the spans
// inside cells: span time minus the time its child spans cover.
func (r *recorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int32][]span{}
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range r.spans {
		if s.cell < 0 {
			continue
		}
		out[s.name] += (s.end - s.start - covered(children[s.id], s.start, s.end)).Seconds()
	}
	return out
}

// covered returns how much of [start, end) the spans cover, counting
// overlaps once.
func covered(spans []span, start, end time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total time.Duration
	cur := start
	for _, s := range spans {
		lo, hi := max(s.start, cur), min(s.end, end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// allocsPerCall returns the mean allocations and bytes of the named spans.
func (r *recorder) allocsPerCall(name string) (allocs, bytes float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.spans {
		if s.name == name {
			allocs += float64(s.allocs)
			bytes += float64(s.bytes)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return allocs / float64(n), bytes / float64(n)
}

// writePerfetto writes the last round's spans as a Chrome/Perfetto trace:
// one lane per worker, one slice per span, the cell id and parent in each
// slice's args. Earlier rounds are left out to keep the file small.
func (r *recorder) writePerfetto(path, label string) error {
	t := obs.NewTrace()
	t.ProcessName(1, "perfbench "+label)
	r.mu.Lock()
	lanes := map[int]bool{}
	for _, s := range r.spans[r.roundStart:] {
		if !lanes[s.lane] {
			lanes[s.lane] = true
			t.ThreadName(1, s.lane, fmt.Sprintf("worker %d", s.lane))
		}
		args := map[string]any{"parent": s.parent}
		if s.cell >= 0 {
			args["cell"] = s.cell
		}
		t.Complete(1, s.lane, s.name, "layer", float64(s.start)/1e3, float64(s.end-s.start)/1e3, args)
	}
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := t.WriteJSON(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// cellJob is one cell the traced run drives layer by layer.
type cellJob struct {
	method helixpipe.Method
	// spec is the cell's single-method spec, hashed by ReportCache.Key.
	spec *helixpipe.ExperimentSpec
	// keyExtra are extra cache-key components (a fleet carve signature).
	keyExtra []string
	// derive returns the cell's session.
	derive func() (*helixpipe.Session, error)
	// placements are the strategies searched per cell; the fastest
	// simulation wins. Empty keeps the session's placement.
	placements    []string
	placementSeed uint64
	// encode writes the cell's report as JSON, as a sweep's consumer does.
	encode bool
}

// runCells drives the cells across a worker pool as wide as Session.Stream's
// (GOMAXPROCS), each through cache key → cache do → costs → build →
// validate → simulate (→ encode), and returns the reports in cell order
// (nil for a failed cell). A nil cache skips the cache layer.
func (r *recorder) runCells(cells []cellJob, cache *helixpipe.ReportCache) []*helixpipe.Report {
	workers := runtime.GOMAXPROCS(0)
	if r.countAllocs {
		workers = 1
	}
	out := make([]*helixpipe.Report, len(cells))
	order := sampleIndexes(len(cells), len(cells))
	if r.sampleCells > 0 {
		order = sampleIndexes(len(cells), r.sampleCells)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				i := order[k]
				out[i] = r.runCell(cells[i], cache, w)
			}
		}()
	}
	wg.Wait()
	return out
}

func (r *recorder) runCell(job cellJob, cache *helixpipe.ReportCache, lane int) *helixpipe.Report {
	cell := r.nextCell.Add(1)
	var report *helixpipe.Report
	r.do("cell", 0, cell, lane, func(cid int32) {
		var err error
		if cache == nil {
			report, err = r.pipeline(job, cid, cell, lane)
		} else {
			var key string
			r.do("cache.key", cid, cell, lane, func(int32) { key, err = cache.Key(job.spec, job.keyExtra...) })
			if err != nil {
				return
			}
			var hit bool
			did := r.do("cache.do", cid, cell, lane, func(did int32) {
				report, hit, err = cache.Do(key, func() (*helixpipe.Report, error) {
					return r.pipeline(job, did, cell, lane)
				})
			})
			if hit {
				r.rename(did, "cache.hit")
			}
		}
		if err != nil {
			report = nil
			return
		}
		if !job.encode {
			return
		}
		r.do("report", cid, cell, lane, func(int32) {
			var cw countWriter
			if helixpipe.WriteReportsJSON(&cw, []*helixpipe.Report{report}) == nil {
				r.reportBytes.Add(cw.n)
				r.reports.Add(1)
			}
		})
	})
	return report
}

// pipeline runs one cell's layers below the cache.
func (r *recorder) pipeline(job cellJob, parent int32, cell int64, lane int) (*helixpipe.Report, error) {
	session, err := job.derive()
	if err != nil {
		return nil, err
	}
	placements := job.placements
	if len(placements) == 0 {
		placements = []string{""}
	}
	var best *helixpipe.Report
	var firstErr error
	for _, strategy := range placements {
		s := session
		if strategy != "" {
			var p helixpipe.Placement
			r.do("cluster.placement", parent, cell, lane, func(int32) {
				p, err = s.PlacementFor(job.method, strategy, job.placementSeed)
			})
			if err == nil {
				s, err = s.With(helixpipe.WithPlacement(p))
			}
			if err != nil {
				firstErr = cmpErr(firstErr, err)
				continue
			}
		}
		r.do("sched.costs", parent, cell, lane, func(int32) { _ = s.Costs() })
		var plan *helixpipe.Plan
		r.do("sched.build", parent, cell, lane, func(int32) { plan, err = s.Plan(job.method) })
		if err != nil {
			firstErr = cmpErr(firstErr, err)
			continue
		}
		r.do("sched.validate", parent, cell, lane, func(int32) { err = helixpipe.ValidatePlan(plan) })
		if err != nil {
			firstErr = cmpErr(firstErr, err)
			continue
		}
		var rep *helixpipe.Report
		r.do("sim", parent, cell, lane, func(int32) { rep, err = s.SimEngine().Run(plan) })
		if err != nil {
			firstErr = cmpErr(firstErr, err)
			continue
		}
		r.simOps.Add(int64(plan.NumOps()))
		if best == nil || rep.Sim.IterationSeconds < best.Sim.IterationSeconds {
			best = rep
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

func cmpErr(first, err error) error {
	if first != nil {
		return first
	}
	return err
}
