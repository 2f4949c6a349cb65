package main

import (
	"fmt"
	"sort"
	"time"
)

// The host this benchmark runs on is shared: its processor's speed drifts
// as neighbouring machines load it, by 20–30% over tens of seconds and by
// up to 2x over minutes, and CPU time per cell moves with wall time, so
// neither clock is steady across runs. Each measured round is therefore
// paired with a fixed reference kernel that runs just before it (and one
// more after the last round). The kernel lives entirely in this file and
// the standard library, so no change to the program moves it. Its mix
// resembles the cell pipeline's: about three quarters of its time goes to
// small allocations, map lookups, formatting and sorting, the rest to
// integer and floating-point arithmetic. Over a 15-minute sweep-grid run
// in which the kernel's speed moved 1.7x between 55-second spans, the
// cell rate at the host's speed moved 1.69x (interquartile spread 0.29 of
// the median) and the cell rate at the kernel's speed 1.10x (0.05). The timing
// metrics are reported at the reference speed: a round's times are scaled
// by its host speed, refKernel over the mean of the kernel durations
// either side of the round.

// refKernel fixes the reference speed: about the kernel's duration on the
// host the benchmark was built on (a 2-vCPU shared Xeon virtual machine,
// go1.24.0 linux/amd64, GOMAXPROCS 1) in its usual, loaded state.
const refKernel = 65 * time.Millisecond

// kernelEvent is one record the kernel builds, indexes and sorts.
type kernelEvent struct {
	at   float64
	id   int
	name string
}

// kernelSink keeps the kernel's result live so it is not optimised away.
var kernelSink int

// hostKernel runs the reference kernel once and returns its duration.
func hostKernel() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	sum := 0
	for r := 0; r < 14; r++ {
		byKey := make(map[int]*kernelEvent)
		var evs []*kernelEvent
		for i := 0; i < 5000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			e := &kernelEvent{at: float64(x>>11) / (1 << 53), id: i, name: fmt.Sprint(i % 97)}
			byKey[int(x%4096)] = e
			evs = append(evs, e)
		}
		sort.Slice(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
		for _, e := range evs {
			if o, ok := byKey[e.id%4096]; ok {
				sum += o.id + len(e.name)
			}
		}
	}
	f := 1.0
	for i := 0; i < 5_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*1.0000001 + float64(x&1023)*1e-9
	}
	kernelSink = sum + int(f) + int(x&1)
	return time.Since(t0)
}
