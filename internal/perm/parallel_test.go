package perm

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pool"
)

// collectParallel gathers every extension the parallel enumerator yields,
// as strings for order-insensitive comparison.
func collectParallel(t *testing.T, workers, n int, before func(a, b int) bool) []string {
	t.Helper()
	var mu sync.Mutex
	var got []string
	ok, err := LinearExtensionsParallel(context.Background(), workers, n, before, func(order []int) bool {
		mu.Lock()
		got = append(got, key(order))
		mu.Unlock()
		return true
	})
	if err != nil {
		t.Fatalf("parallel enumeration failed: %v", err)
	}
	if !ok {
		t.Fatal("exhaustive parallel enumeration reported an early stop")
	}
	sort.Strings(got)
	return got
}

func key(order []int) string {
	b := make([]byte, len(order))
	for i, v := range order {
		b[i] = byte('a' + v)
	}
	return string(b)
}

// TestParallelMatchesSequential compares the parallel enumerator's output
// set against the sequential oracle over random DAGs.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(7)
		edges := make(map[[2]int]bool)
		for k := 0; k < rng.Intn(2*n+1); k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b { // a<b keeps the constraint graph acyclic
				edges[[2]int{a, b}] = true
			}
		}
		before := func(a, b int) bool { return edges[[2]int{a, b}] }

		var want []string
		LinearExtensions(n, before, func(order []int) bool {
			want = append(want, key(order))
			return true
		})
		sort.Strings(want)

		for _, workers := range []int{2, 4} {
			got := collectParallel(t, workers, n, before)
			if len(got) != len(want) {
				t.Fatalf("trial %d workers=%d: %d extensions, want %d", trial, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d workers=%d: extension sets differ at %d: %q vs %q",
						trial, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelCycleYieldsNothing: a cyclic constraint admits no extensions,
// sequentially or in parallel.
func TestParallelCycleYieldsNothing(t *testing.T) {
	before := func(a, b int) bool { return (a+1)%4 == b } // 4-cycle
	got := collectParallel(t, 3, 4, before)
	if len(got) != 0 {
		t.Errorf("cyclic constraint yielded %d extensions", len(got))
	}
}

// TestCycleWalksNothing holds both enumerators to the cycle guard: with
// items 0 and 1 ordered both ways and 30 more items free, they yield
// nothing and report the space exhausted. A walk that met the cycle only
// at the end of each ordering would try the 30! orderings of the free
// items, and the test would hang until the -timeout watchdog stops it.
func TestCycleWalksNothing(t *testing.T) {
	before := func(a, b int) bool { return a < 2 && b < 2 && a != b }
	never := func([]int) bool { return false }
	if !LinearExtensions(32, before, never) {
		t.Error("sequential: yielded an extension of a cyclic order")
	}
	for _, workers := range []int{1, 2} {
		exhausted, err := LinearExtensionsParallel(context.Background(), workers, 32, before, never)
		if err != nil || !exhausted {
			t.Errorf("workers=%d: exhausted=%v err=%v, want the empty space exhausted", workers, exhausted, err)
		}
	}
}

// TestParallelEarlyStop: a yield returning false stops the whole pool and
// the enumerator reports the early stop.
func TestParallelEarlyStop(t *testing.T) {
	var yields atomic.Int64
	ok, err := LinearExtensionsParallel(context.Background(), 4, 8, func(a, b int) bool { return false },
		func([]int) bool { return yields.Add(1) < 3 })
	if err != nil {
		t.Fatalf("enumeration failed: %v", err)
	}
	if ok {
		t.Error("early-stopped enumeration reported exhaustion")
	}
	// 8! = 40320 total; the pool must have stopped far short of that.
	if n := yields.Load(); n >= 40320 {
		t.Errorf("pool enumerated all %d extensions after a stop request", n)
	}
}

// TestParallelCancellationIsPrompt starts an enumeration whose space
// (12! ≈ 4.8e8 orders) would take far longer than the test timeout to
// exhaust, cancels it, and requires a prompt return — the checkers' "stop
// every shard the moment a witness appears" behavior, driven externally.
func TestParallelCancellationIsPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	done := make(chan bool, 1)
	go func() {
		ok, err := LinearExtensionsParallel(ctx, 4, 12, func(a, b int) bool { return false },
			func([]int) bool {
				once.Do(func() { close(started) })
				return true
			})
		if err != nil {
			t.Errorf("cancelled enumeration returned an error: %v", err)
		}
		done <- ok
	}()
	<-started // the pool is demonstrably mid-enumeration
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Error("cancelled enumeration reported exhaustion")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("enumeration did not return within 10s of cancellation")
	}
}

// TestProductsParallelMatchesSequential compares index-vector sets.
func TestProductsParallelMatchesSequential(t *testing.T) {
	for _, sizes := range [][]int{{}, {1}, {3}, {2, 3}, {4, 1, 3}, {2, 2, 2, 2}, {5, 0, 2}} {
		var want []string
		Products(sizes, func(idx []int) bool {
			want = append(want, key(idx))
			return true
		})
		sort.Strings(want)

		var mu sync.Mutex
		var got []string
		ok, err := ProductsParallel(context.Background(), 3, sizes, func(idx []int) bool {
			mu.Lock()
			got = append(got, key(idx))
			mu.Unlock()
			return true
		})
		if err != nil {
			t.Fatalf("sizes %v: product enumeration failed: %v", sizes, err)
		}
		if !ok {
			t.Fatalf("sizes %v: exhaustive product enumeration reported an early stop", sizes)
		}
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("sizes %v: %d vectors, want %d", sizes, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sizes %v: vector sets differ: %q vs %q", sizes, got[i], want[i])
			}
		}
	}
}

// TestProductsParallelEarlyStop mirrors TestParallelEarlyStop for products.
func TestProductsParallelEarlyStop(t *testing.T) {
	var yields atomic.Int64
	ok, err := ProductsParallel(context.Background(), 4, []int{6, 6, 6, 6, 6},
		func([]int) bool { return yields.Add(1) < 5 })
	if err != nil {
		t.Fatalf("enumeration failed: %v", err)
	}
	if ok {
		t.Error("early-stopped enumeration reported exhaustion")
	}
	if n := yields.Load(); n >= 6*6*6*6*6 {
		t.Errorf("pool enumerated all %d vectors after a stop request", n)
	}
}

// TestParallelWorkerPanicContained injects a panic into a drain worker via
// the fault point and requires the enumerator to survive, report a
// *pool.PanicError naming the shard, and not claim exhaustion.
func TestParallelWorkerPanicContained(t *testing.T) {
	var fired atomic.Bool
	fault.Set(fault.PoolDrain, fault.Fault{Fn: func(worker int, item any) {
		if fired.CompareAndSwap(false, true) {
			panic("injected shard fault")
		}
	}})
	defer fault.Clear(fault.PoolDrain)

	ok, err := LinearExtensionsParallel(context.Background(), 4, 9,
		func(a, b int) bool { return false },
		func([]int) bool { return true })
	if ok {
		t.Error("faulted enumeration reported exhaustion")
	}
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *pool.PanicError", err)
	}
	if pe.Shard == "" {
		t.Error("PanicError does not name the shard")
	}
	if pe.Value != "injected shard fault" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
}
