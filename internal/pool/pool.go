// Package pool is the repository's one worker-pool implementation. Two
// subsystems consume it: the parallel enumeration engine in internal/perm
// (candidate write orders and coherence orders for the model checkers) and
// the classification sweeps in package relate. Keeping the spawn/wait/cancel
// plumbing here keeps those consumers to pure work definitions.
//
// Every knob in the repository follows one convention, resolved by Size:
// a worker count of 0 (the zero value) means runtime.GOMAXPROCS(0) — one
// worker per schedulable CPU, the "default on" setting — while 1 selects
// the consumer's sequential oracle path and larger values size the pool
// explicitly.
//
// # Fault containment
//
// A panic on a pool worker no longer kills the process: every worker
// recovers panics from its payload, reports the first one as a structured
// *PanicError naming the worker and the work item ("shard") it was
// processing, and — in Indexed and Drain — cancels its sibling workers so
// the pool winds down promptly instead of finishing a doomed computation.
// Fault injection lives in internal/fault (points fault.PoolGo,
// fault.PoolIndexed, fault.PoolDrain); the hooks are compiled in (one
// atomic load when unused) so tests and chaos runs exercise the exact
// production containment path.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Size resolves a worker-count knob to a concrete pool size: values <= 0
// select runtime.GOMAXPROCS(0); positive values are used as given.
func Size(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError is a panic recovered on a pool worker, surfaced as an error:
// the process survives, siblings are cancelled (Indexed, Drain), and the
// error identifies which worker and which shard of the computation died.
type PanicError struct {
	// Worker is the index of the panicking worker goroutine (-1 for a
	// Feed producer).
	Worker int
	// Shard describes the work item being processed when the panic
	// fired, e.g. "index 7" or a rendering of the Drain item.
	Shard string
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.Shard == "" {
		return fmt.Sprintf("pool: worker %d panicked: %v", e.Worker, e.Value)
	}
	return fmt.Sprintf("pool: worker %d panicked on shard %q: %v", e.Worker, e.Shard, e.Value)
}

// Unwrap exposes a panic value that was itself an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// firstError keeps the first error recorded across workers.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Go runs fn(0), …, fn(workers-1) concurrently and returns when all calls
// have returned. A panicking fn is recovered and reported as a
// *PanicError (the first one, if several workers die); the siblings are
// not interrupted — Go has no work queue to cancel. Use Indexed or Drain
// when sibling cancellation matters.
func Go(workers int, fn func(worker int)) error {
	var first firstError
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					first.set(&PanicError{Worker: w, Value: v, Stack: debug.Stack()})
				}
			}()
			fault.Hit(fault.PoolGo, w, w)
			fn(w)
		}()
	}
	wg.Wait()
	return first.get()
}

// Indexed calls fn(worker, i) for every i in [0, n), distributing indices
// across at most `workers` goroutines via an atomic cursor, and returns when
// every index has been processed. worker is the index in [0, workers) of
// the goroutine making the call; calls with the same worker never overlap,
// so fn may use per-worker state without locking. With one worker (or one
// index) it degenerates to a plain loop on the calling goroutine, as worker
// 0. A panic in fn is contained: sibling workers stop claiming indices, and
// the panic is returned as a *PanicError whose shard names the index.
func Indexed(workers, n int, fn func(worker, i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := runIndex(0, i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var stopped atomic.Bool
	var first firstError
	goErr := Go(workers, func(w int) {
		for !stopped.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := runIndex(w, i, fn); err != nil {
				first.set(err)
				stopped.Store(true)
				return
			}
		}
	})
	if err := first.get(); err != nil {
		return err
	}
	return goErr
}

// runIndex runs fn(w, i) under a recover that tags the index as the shard.
func runIndex(w, i int, fn func(worker, i int)) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Worker: w, Shard: fmt.Sprintf("index %d", i), Value: v, Stack: debug.Stack()}
		}
	}()
	if fault.Armed() {
		fault.Hit(fault.PoolIndexed, w, i) // i is boxed only when armed
	}
	fn(w, i)
	return nil
}

// Drain consumes jobs across `workers` goroutines, calling fn for each item
// until the channel is closed or ctx is cancelled. It returns when every
// worker has exited; items in flight when ctx is cancelled still complete
// (cancellation is checked between items, not preemptively). A panic in fn
// is contained: the sibling workers are cancelled (their in-flight items
// complete), and the panic is returned as a *PanicError whose shard is a
// rendering of the item being processed.
//
// Note that a worker panic does not cancel ctx itself — a producer feeding
// jobs keeps running until the caller cancels it. Callers that pair Drain
// with Feed should cancel their context and drain the channel on error
// (see internal/perm for the pattern).
func Drain[T any](ctx context.Context, workers int, jobs <-chan T, fn func(worker int, item T)) error {
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Metrics resolve once per Drain; a nil registry yields nil counters
	// whose Add is a no-op, so the un-instrumented path pays one branch per
	// item (items are shards — far off any hot loop).
	reg := obs.RegistryFrom(ctx)
	items, panics := reg.Counter("pool.items"), reg.Counter("pool.panics")
	var first firstError
	goErr := Go(workers, func(w int) {
		// Per-item spans split a worker's time into waiting for work
		// (pool.wait — worker idle, the queue's side of the story) and
		// executing it (pool.exec). SpanStarter resolves the context once
		// per worker; on an un-instrumented context it returns nil spans
		// and the loop pays two nil checks per item. A wait that ends in
		// shutdown instead of an item is cancelled, not recorded.
		startSpan := obs.SpanStarter(ctx)
		for {
			wait := startSpan("pool.wait")
			select {
			case <-dctx.Done():
				wait.Cancel()
				return
			case item, ok := <-jobs:
				if !ok {
					wait.Cancel()
					return
				}
				wait.End()
				items.Add(1)
				exec := startSpan("pool.exec")
				err := runItem(w, item, fn)
				exec.End()
				if err != nil {
					panics.Add(1)
					first.set(err)
					cancel()
					return
				}
			}
		}
	})
	if err := first.get(); err != nil {
		return err
	}
	return goErr
}

// runItem runs fn(w, item) under a recover that renders the item as the
// shard.
func runItem[T any](w int, item T, fn func(worker int, item T)) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Worker: w, Shard: fmt.Sprintf("%v", item), Value: v, Stack: debug.Stack()}
		}
	}()
	fault.Hit(fault.PoolDrain, w, item)
	fn(w, item)
	return nil
}

// Feed runs gen on its own goroutine and returns the channel it feeds plus
// an error function. The emit callback blocks until a consumer accepts the
// item or ctx is cancelled, returning false in the latter case so the
// producer can stop enumerating; the channel is closed when gen returns. A
// panic in gen is contained: the channel still closes, and — once it has
// closed — the returned error function reports the panic as a *PanicError
// (nil if gen returned normally).
func Feed[T any](ctx context.Context, buffer int, gen func(emit func(T) bool)) (<-chan T, func() error) {
	ch := make(chan T, buffer)
	var first firstError
	go func() {
		defer close(ch)
		defer func() {
			if v := recover(); v != nil {
				first.set(&PanicError{Worker: -1, Shard: "producer", Value: v, Stack: debug.Stack()})
			}
		}()
		gen(func(item T) bool {
			select {
			case ch <- item:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return ch, first.get
}
