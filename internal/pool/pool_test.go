package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderedYieldsInIndexOrder makes job 0 finish last: the stream must
// still yield results in index order.
func TestOrderedYieldsInIndexOrder(t *testing.T) {
	const n = 6
	lastDone := make(chan struct{})
	var got []int
	for v, err := range Ordered(n, n, func(i, _ int) (int, error) {
		switch i {
		case 0:
			<-lastDone
		case n - 1:
			close(lastDone)
		default:
			time.Sleep(time.Duration(n-i) * time.Millisecond)
		}
		return 10 * i, nil
	}) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	if len(got) != n {
		t.Fatalf("yielded %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != 10*i {
			t.Fatalf("result %d is %d, want %d (order %v)", i, v, 10*i, got)
		}
	}
}

// TestOrderedLaunchWindow checks that no job more than 4×workers ahead of
// the yield cursor has started, and that worker ids stay in range.
func TestOrderedLaunchWindow(t *testing.T) {
	const n, workers = 100, 2
	var maxStarted atomic.Int64
	maxStarted.Store(-1)
	i := 0
	for _, err := range Ordered(n, workers, func(i, w int) (int, error) {
		if w < 0 || w >= workers {
			return 0, fmt.Errorf("job %d ran on worker %d", i, w)
		}
		for {
			cur := maxStarted.Load()
			if int64(i) <= cur || maxStarted.CompareAndSwap(cur, int64(i)) {
				break
			}
		}
		return i, nil
	}) {
		if err != nil {
			t.Fatal(err)
		}
		if ahead := maxStarted.Load() - int64(i); ahead > 4*workers {
			t.Fatalf("at cursor %d job %d has started, %d ahead (window %d)", i, maxStarted.Load(), ahead, 4*workers)
		}
		i++
	}
	if i != n {
		t.Fatalf("yielded %d results, want %d", i, n)
	}
}

// TestOrderedBreakLaunchesNothingFurther breaks after the first result:
// only the window launched up front plus the one job launched on receiving
// the first result ever run.
func TestOrderedBreakLaunchesNothingFurther(t *testing.T) {
	const n, workers = 100, 2
	const launched = 4*workers + 1
	ran := make(chan int, n)
	for range Ordered(n, workers, func(i, _ int) (int, error) {
		ran <- i
		return i, nil
	}) {
		break
	}
	seen := map[int]bool{}
	for len(seen) < launched {
		select {
		case i := <-ran:
			seen[i] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of the %d launched jobs ran", len(seen), launched)
		}
	}
	select {
	case i := <-ran:
		t.Fatalf("job %d ran after breaking at the first result (jobs run: %v)", i, seen)
	case <-time.After(50 * time.Millisecond):
	}
	for i := 0; i < launched; i++ {
		if !seen[i] {
			t.Errorf("job %d of the launch window did not run (jobs run: %v)", i, seen)
		}
	}
}

// TestOrderedErrorDoesNotAbort checks that a failing job is yielded in its
// place and every later job still runs and yields.
func TestOrderedErrorDoesNotAbort(t *testing.T) {
	const n = 10
	boom := errors.New("boom")
	i := 0
	for v, err := range Ordered(n, 3, func(i, _ int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	}) {
		switch {
		case i == 2 && !errors.Is(err, boom):
			t.Errorf("job 2 yielded error %v, want boom", err)
		case i != 2 && (err != nil || v != i):
			t.Errorf("job %d yielded (%d, %v)", i, v, err)
		}
		i++
	}
	if i != n {
		t.Fatalf("yielded %d results, want %d", i, n)
	}
}

// TestOrderedEmptyAndNoWorkers covers the edges: no jobs yields nothing, and
// a non-positive worker count still runs every job.
func TestOrderedEmptyAndNoWorkers(t *testing.T) {
	for range Ordered(0, 4, func(int, int) (int, error) { return 0, nil }) {
		t.Fatal("empty pool yielded a result")
	}
	count := 0
	for _, err := range Ordered(5, 0, func(i, w int) (int, error) {
		if w != 0 {
			return 0, fmt.Errorf("job %d ran on worker %d of a one-worker pool", i, w)
		}
		return i, nil
	}) {
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != 5 {
		t.Fatalf("yielded %d results, want 5", count)
	}
}
