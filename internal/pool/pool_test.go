package pool

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestSize(t *testing.T) {
	if got := Size(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Size(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Size(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Size(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Size(7); got != 7 {
		t.Errorf("Size(7) = %d", got)
	}
}

func TestGoRunsEveryWorker(t *testing.T) {
	var seen [5]atomic.Bool
	if err := Go(5, func(w int) { seen[w].Store(true) }); err != nil {
		t.Fatalf("Go: %v", err)
	}
	for w := range seen {
		if !seen[w].Load() {
			t.Errorf("worker %d never ran", w)
		}
	}
}

func TestIndexedCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 100} {
		const n = 57
		var hits [n]atomic.Int32
		if err := Indexed(workers, n, func(_, i int) { hits[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: Indexed: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d processed %d times", workers, i, got)
			}
		}
	}
	Indexed(4, 0, func(int, int) { t.Error("fn called for n=0") })
}

// TestIndexedWorkerIndices holds Indexed to what callers with per-worker
// state rely on: every worker index is in [0, workers), clamped to n, and
// no two calls with the same index overlap.
func TestIndexedWorkerIndices(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 20}, {3, 500}, {8, 5}} {
		limit := min(c.workers, c.n)
		busy := make([]atomic.Bool, limit)
		var calls atomic.Int32
		err := Indexed(c.workers, c.n, func(w, i int) {
			if w < 0 || w >= limit {
				t.Errorf("workers=%d n=%d: index %d ran on worker %d", c.workers, c.n, i, w)
				return
			}
			if !busy[w].CompareAndSwap(false, true) {
				t.Errorf("workers=%d n=%d: two calls overlap on worker %d", c.workers, c.n, w)
				return
			}
			calls.Add(1)
			runtime.Gosched() // give a wrongly shared index a chance to overlap
			busy[w].Store(false)
		})
		if err != nil {
			t.Fatalf("workers=%d n=%d: Indexed: %v", c.workers, c.n, err)
		}
		if got := int(calls.Load()); got != c.n {
			t.Errorf("workers=%d n=%d: %d calls, want %d", c.workers, c.n, got, c.n)
		}
	}
}

func TestDrainConsumesAll(t *testing.T) {
	jobs := make(chan int, 100)
	for i := 0; i < 100; i++ {
		jobs <- i
	}
	close(jobs)
	var sum atomic.Int64
	if err := Drain(context.Background(), 4, jobs, func(_, item int) { sum.Add(int64(item)) }); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := sum.Load(); got != 4950 {
		t.Errorf("sum = %d, want 4950", got)
	}
}

func TestDrainStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make(chan int) // unbuffered, never closed
	cancel()
	done := make(chan struct{})
	go func() {
		Drain(ctx, 3, jobs, func(_, _ int) {})
		close(done)
	}()
	<-done // must return despite the open channel
}

// TestDrainInFlightCompletes cancels the context while items are being
// processed and requires every item a worker had already accepted to run to
// completion — cancellation is checked between items, never preemptively.
func TestDrainInFlightCompletes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make(chan int)
	started := make(chan int, 4)   // items workers have accepted
	release := make(chan struct{}) // gates item completion
	var completed atomic.Int32

	done := make(chan error, 1)
	go func() {
		done <- Drain(ctx, 2, jobs, func(_, item int) {
			started <- item
			<-release
			completed.Add(1)
		})
	}()

	jobs <- 1
	jobs <- 2
	<-started
	<-started // both workers are mid-item
	cancel()  // cancel while items are in flight
	close(release)

	if err := <-done; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := completed.Load(); got != 2 {
		t.Errorf("%d in-flight items completed, want 2", got)
	}
}

func TestFeedProducerStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	produced := 0
	ch, feedErr := Feed(ctx, 0, func(emit func(int) bool) {
		for i := 0; ; i++ {
			if !emit(i) {
				return
			}
			produced++
		}
	})
	<-ch
	cancel()
	for range ch { // drain until the producer closes the channel
	}
	if err := feedErr(); err != nil {
		t.Fatalf("producer error: %v", err)
	}
	if produced == 0 {
		t.Error("producer emitted nothing before cancellation")
	}
}

// TestFeedNoLeakWhenConsumerAbandons is the producer-shutdown leak test:
// a consumer that stops reading and cancels the context must not strand the
// producer goroutine. Asserted by goroutine count (no external leak-check
// dependency): the count must return to its pre-test level.
func TestFeedNoLeakWhenConsumerAbandons(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 10; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		ch, feedErr := Feed(ctx, 0, func(emit func(int) bool) {
			for i := 0; emit(i); i++ {
			}
		})
		<-ch     // take one item, then abandon the channel
		cancel() // producer must observe this and close the channel
		for range ch {
		}
		if err := feedErr(); err != nil {
			t.Fatalf("trial %d: producer error: %v", trial, err)
		}
	}
	// The producers exit asynchronously after closing their channels; poll
	// briefly rather than demanding instantaneous convergence.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGoPanicContained(t *testing.T) {
	err := Go(3, func(w int) {
		if w == 1 {
			panic("boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *PanicError", err)
	}
	if pe.Worker != 1 || pe.Value != "boom" {
		t.Errorf("PanicError = %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack trace")
	}
}

func TestIndexedPanicCancelsSiblings(t *testing.T) {
	// Siblings must stop claiming work. The index space is too large to
	// finish, so Indexed returns only if they stop, however the panicking
	// worker is scheduled against them (a finite space lets the siblings
	// claim all of it while the panic's stack is captured); the watchdog
	// turns a regression into a failure instead of a hang.
	const n = math.MaxInt
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = Indexed(4, n, func(_, i int) {
			if i == 5 {
				panic(errors.New("index fault"))
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("siblings kept claiming indices for a minute after the panic")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *PanicError", err)
	}
	if pe.Shard != "index 5" {
		t.Errorf("Shard = %q, want \"index 5\"", pe.Shard)
	}
	// The wrapped error must be reachable through errors.Is.
	if !strings.Contains(err.Error(), "index fault") {
		t.Errorf("error text %q does not mention the panic value", err)
	}
}

func TestIndexedSequentialPanicContained(t *testing.T) {
	err := Indexed(1, 3, func(_, i int) {
		if i == 2 {
			panic("sequential fault")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *PanicError", err)
	}
	if pe.Shard != "index 2" {
		t.Errorf("Shard = %q", pe.Shard)
	}
}

func TestDrainPanicCancelsSiblings(t *testing.T) {
	jobs := make(chan int, 1000)
	for i := 0; i < 1000; i++ {
		jobs <- i
	}
	close(jobs)
	var processed atomic.Int32
	err := Drain(context.Background(), 4, jobs, func(_, item int) {
		if item == 3 {
			panic("drain fault")
		}
		processed.Add(1)
		time.Sleep(time.Millisecond) // give the cancellation time to land
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *PanicError", err)
	}
	if pe.Shard != "3" {
		t.Errorf("Shard = %q, want \"3\"", pe.Shard)
	}
	if got := processed.Load(); got >= 999 {
		t.Errorf("siblings drained %d items after the panic", got)
	}
}

func TestFeedProducerPanicClosesChannel(t *testing.T) {
	ch, feedErr := Feed(context.Background(), 0, func(emit func(int) bool) {
		emit(1)
		panic("producer fault")
	})
	n := 0
	for range ch { // the channel must still close
		n++
	}
	if n != 1 {
		t.Errorf("received %d items, want 1", n)
	}
	var pe *PanicError
	if err := feedErr(); !errors.As(err, &pe) {
		t.Fatalf("producer error = %v, want *PanicError", err)
	}
	if pe.Worker != -1 || pe.Shard != "producer" {
		t.Errorf("PanicError = %+v", pe)
	}
}

// TestFaultpointInjection drives the containment path through the test-only
// fault hooks, exactly as the model-layer fault tests do.
func TestFaultpointInjection(t *testing.T) {
	var fired atomic.Bool
	fault.Set(fault.PoolIndexed, fault.Fault{Fn: func(worker int, item any) {
		if item.(int) == 7 && fired.CompareAndSwap(false, true) {
			panic("injected")
		}
	}})
	defer fault.Clear(fault.PoolIndexed)

	err := Indexed(3, 100, func(int, int) {})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *PanicError", err)
	}
	if pe.Shard != "index 7" {
		t.Errorf("Shard = %q, want \"index 7\"", pe.Shard)
	}

	// After Clear the hook must be gone.
	fault.Clear(fault.PoolIndexed)
	if err := Indexed(3, 100, func(int, int) {}); err != nil {
		t.Errorf("cleared hook still fired: %v", err)
	}
}
