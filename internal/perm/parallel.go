package perm

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pool"
)

// shardScope emits the shard_start/shard_finish trace events bracketing
// one prefix shard and counts it, when the context carries a sink or
// registry. The enabled check is hoisted so the un-instrumented path pays
// one boolean per shard and never formats the prefix.
func shardScope(ctx context.Context, enabled bool, worker int, prefix []int) func() {
	if !enabled {
		return nil
	}
	shard := fmt.Sprint(prefix)
	obs.EmitTo(ctx, obs.Event{Type: obs.EvShardStart, Worker: worker, Shard: shard})
	obs.CountTo(ctx, "perm.shards", 1)
	return func() {
		obs.EmitTo(ctx, obs.Event{Type: obs.EvShardFinish, Worker: worker, Shard: shard})
	}
}

// shardsPerWorker is how many work shards the prefix splitter aims to hand
// each worker. More shards give finer-grained load balancing — shard costs
// are wildly uneven, since legality pruning can kill one prefix instantly
// and leave another with millions of completions — at a slightly higher
// splitting cost.
const shardsPerWorker = 8

// LinearExtensionsParallel enumerates the same linear extensions as
// LinearExtensions, sharded across a worker pool by prefix splitting: the
// space is divided into the subtrees below every valid placement prefix of
// a chosen depth, and workers complete prefixes independently.
//
// yield may be invoked from multiple goroutines concurrently (each worker
// reuses its own slice; copy if retained). When any yield returns false, or
// ctx is cancelled, every worker stops promptly — this is the first-witness
// cancellation the model checkers rely on. exhausted is true only when the
// whole space was enumerated; an early stop (yield, cancellation, or a
// worker fault) reports false.
//
// A panic on a worker is contained by the pool: the sibling shards are
// cancelled and the panic is returned as a structured error (a
// *pool.PanicError naming the worker and the prefix shard) instead of
// killing the process.
//
// Worker counts follow the pool convention: workers <= 0 means GOMAXPROCS,
// and 1 runs the sequential enumerator on the calling goroutine (still
// honoring ctx between yields).
func LinearExtensionsParallel(ctx context.Context, workers, n int, before func(a, b int) bool, yield func(order []int) bool) (exhausted bool, err error) {
	if n > 64 {
		panic("perm: LinearExtensionsParallel limited to 64 items")
	}
	preds, ok := precedence(n, before)
	if !ok {
		return true, nil // no extensions
	}
	workers = pool.Size(workers)
	if workers == 1 || n <= 2 {
		return extend(preds, make([]int, 0, n), 0, n, func(order []int) bool {
			return ctx.Err() == nil && yield(order)
		}), nil
	}
	depth := splitDepth(preds, workers*shardsPerWorker)

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var stopped atomic.Bool
	stop := context.AfterFunc(cctx, func() { stopped.Store(true) })
	defer stop()

	traced := obs.Enabled(ctx)
	shards, feedErr := pool.Feed(cctx, workers, func(emit func([]int) bool) {
		extend(preds, make([]int, 0, depth), 0, depth, func(prefix []int) bool {
			return emit(append([]int(nil), prefix...))
		})
	})
	drainErr := pool.Drain(cctx, workers, shards, func(w int, prefix []int) {
		if done := shardScope(ctx, traced, w, prefix); done != nil {
			defer done()
		}
		var placed uint64
		for _, i := range prefix {
			placed |= 1 << uint(i)
		}
		// The walk meets no dead end, so a stop checked at each extension
		// is checked at least every n steps.
		if !extend(preds, append(make([]int, 0, n), prefix...), placed, n, func(order []int) bool {
			return !stopped.Load() && yield(order)
		}) {
			stopped.Store(true)
			cancel()
		}
	})
	// Read the early-stop flag before shutdownProducer cancels cctx (which
	// would itself trip the AfterFunc and fake an early stop).
	earlyStop := stopped.Load()
	err = shutdownProducer(cancel, shards, feedErr, drainErr)
	return err == nil && !earlyStop && ctx.Err() == nil, err
}

// shutdownProducer winds down a Feed/Drain pair after Drain has returned:
// it cancels the producer, drains the channel until the producer closes it
// (so no goroutine outlives the call), and returns the first fault — a
// drain-worker panic before a producer one.
func shutdownProducer[T any](cancel context.CancelFunc, shards <-chan T, feedErr func() error, drainErr error) error {
	cancel()
	for range shards {
	}
	if drainErr != nil {
		return drainErr
	}
	return feedErr()
}

// splitDepth picks the shortest prefix depth whose shard count reaches
// target (or the item count, for tiny spaces).
func splitDepth(preds []uint64, target int) int {
	depth := 0
	for depth < len(preds) {
		count := 0
		extend(preds, make([]int, 0, depth), 0, depth, func([]int) bool {
			count++
			return count < target
		})
		if count >= target {
			return depth
		}
		depth++
	}
	return depth
}

// ProductsParallel enumerates the same index vectors as Products, sharded
// across a worker pool by fixing the first dimensions: the splitter takes
// the shortest dimension prefix whose combination count reaches the shard
// target, and workers enumerate the remaining dimensions under each fixed
// prefix. Concurrency, cancellation, fault-containment and return-value
// semantics match LinearExtensionsParallel.
func ProductsParallel(ctx context.Context, workers int, sizes []int, yield func(idx []int) bool) (exhausted bool, err error) {
	workers = pool.Size(workers)
	if workers == 1 || len(sizes) == 0 {
		exhausted = true
		Products(sizes, func(idx []int) bool {
			if ctx.Err() != nil || !yield(idx) {
				exhausted = false
				return false
			}
			return true
		})
		return exhausted, nil
	}

	target := workers * shardsPerWorker
	split, combos := 0, 1
	for split < len(sizes) && combos < target {
		combos *= sizes[split]
		split++
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var stopped atomic.Bool
	stop := context.AfterFunc(cctx, func() { stopped.Store(true) })
	defer stop()

	traced := obs.Enabled(ctx)
	shards, feedErr := pool.Feed(cctx, workers, func(emit func([]int) bool) {
		Products(sizes[:split], func(prefix []int) bool {
			return emit(append([]int(nil), prefix...))
		})
	})
	drainErr := pool.Drain(cctx, workers, shards, func(w int, prefix []int) {
		if done := shardScope(ctx, traced, w, prefix); done != nil {
			defer done()
		}
		idx := make([]int, len(sizes))
		copy(idx, prefix)
		var rec func(d int) bool
		rec = func(d int) bool {
			if stopped.Load() {
				return false
			}
			if d == len(sizes) {
				return yield(idx)
			}
			for i := 0; i < sizes[d]; i++ {
				idx[d] = i
				if !rec(d + 1) {
					return false
				}
			}
			return true
		}
		if !rec(split) {
			stopped.Store(true)
			cancel()
		}
	})
	earlyStop := stopped.Load()
	err = shutdownProducer(cancel, shards, feedErr, drainErr)
	return err == nil && !earlyStop && ctx.Err() == nil, err
}
