package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
)

// defaultSeed is the seed whose output digests are pinned (pinned.go).
const defaultSeed = 1

// size scales a workload: sizeFull for measurement, sizeTiny for the
// self-test.
type size int

const (
	sizeFull size = iota
	sizeTiny
)

// workload is one named set of inputs the benchmark drives.
type workload struct {
	name string
	// prepare generates the workload's inputs from the seed. It is not
	// timed: the program receives only the generated inputs.
	prepare func(seed uint64, sz size) (inputs, error)
}

// inputs is a prepared workload.
type inputs interface {
	// round submits one unit of work through the public entry point and
	// waits for all of its results (one closed-loop client, untraced).
	round() (*roundOut, error)
	// verify compares a sample of a round's cells against an uncached
	// direct simulation of the same cell and returns how many mismatch.
	verify(out *roundOut) (checked, failed int, err error)
	// traced drives one round through explicit calls into each layer,
	// recording a span around every call.
	traced(rec *recorder) (*roundOut, error)
}

// roundOut is what one round produced.
type roundOut struct {
	// setup is the host time from round start until the first cell
	// started: spec parse, Resolve, session construction and, where the
	// entry point has one, its pre-cell phase.
	setup time.Duration
	// shadow is traced-round time spent re-driving the round's cells
	// through explicit layer calls after the entry point already ran
	// them; it is left out of the round's cell rate.
	shadow time.Duration
	// cells completed (or attempted and failed) in the round.
	cells int
	// failed counts cells that returned an error the workload did not
	// plan for.
	failed int
	// digest hashes the modelled numbers of every cell in order.
	digest string
	// props are input properties an optimisation might key on.
	props props
	// streams holds per-cell timestamps of each streamed submission
	// (Session.Execute) of the round.
	streams []*streamObs
	// keep holds the outputs verify samples.
	keep any
}

// props are shares of a round's cells with a property an optimisation
// might key on; 0 where the property does not apply to the workload.
type props struct {
	// seqInvariant is the share of cells whose method's plan structure
	// does not vary with sequence length (GPipe, 1F1B, Interleaved,
	// AdaPipe).
	seqInvariant float64
	// cacheHit is the share of cells served by the report cache.
	cacheHit float64
	// pruned is the share of tune points discarded before simulation.
	pruned float64
}

var workloads = []workload{
	{name: "sweep-grid", prepare: prepareSweep},
	{name: "tune-varlen", prepare: prepareTune},
	{name: "fleet-stream", prepare: prepareFleet},
	{name: "paper-experiments", prepare: preparePaper},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seqInvariantMethods are the methods whose plan structure is the same at
// every sequence length (only their op durations change).
var seqInvariantMethods = map[string]bool{
	"GPipe": true, "1F1B": true, "Interleaved1F1B": true, "AdaPipe": true,
}

// digester hashes modelled numbers bit-exactly.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(label string, vals ...float64) {
	fmt.Fprint(d.h, label)
	for _, v := range vals {
		fmt.Fprintf(d.h, " %x", math.Float64bits(v))
	}
	d.h.Write([]byte{'\n'})
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// streamObs records the cell lifecycle of one streamed submission: when
// the submission started, when each cell started and finished on its
// worker (from the entry point's progress events) and when the consumer
// received it.
type streamObs struct {
	mu       sync.Mutex
	t0       time.Time
	first    time.Time // first CellStarted
	started  map[int]time.Time
	finished map[int]time.Time
	worker   map[int]int
	yielded  []time.Time // in yield order
}

func newStreamObs() *streamObs {
	return &streamObs{t0: time.Now(), started: map[int]time.Time{},
		finished: map[int]time.Time{}, worker: map[int]int{}}
}

// Emit implements obs.Sink.
func (s *streamObs) Emit(e obs.Event) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case obs.CellStarted:
		if s.first.IsZero() {
			s.first = now
		}
		s.started[e.Index] = now
		s.worker[e.Index] = e.Worker
	case obs.CellFinished:
		s.finished[e.Index] = now
	}
}

func (s *streamObs) yield() {
	s.mu.Lock()
	s.yielded = append(s.yielded, time.Now())
	s.mu.Unlock()
}

// firstStart returns when the first cell started, or now when none did.
func (s *streamObs) firstStart() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.first.IsZero() {
		return time.Now()
	}
	return s.first
}
