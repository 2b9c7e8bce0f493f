// BenchmarkCacheHit measures what the content-addressed verdict cache
// buys: serving a relabeled variant of an already-solved history (the full
// hit path — canonicalize, hash, LRU lookup, verdict relabel) against
// re-running the engine solve. The asserted floor keeps the cache honest:
// a hit must stay at least 10x cheaper than the solve it replaces, or the
// canonicalization overhead has eaten the point of caching.
package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/history"
	"repro/internal/obs"
	"repro/internal/vcache"
	"repro/model"
)

// cacheBenchHistory is where caching pays: a 36-operation, 4-processor,
// 13-write history that the PRAM simulator recorded (sim.RandomRun with
// seed 13, values renumbered), checked under processor consistency. PC
// forbids it, and refuting it means exhausting the coherence orders, so
// the uncached solve takes milliseconds whatever the labeling, while a hit
// canonicalizes a history whose processors have distinct shapes and takes
// microseconds. Corpus litmus tests are the wrong subject here — they are
// small enough that every solve is cheaper than canonicalizing a symmetric
// history, which is exactly why the service keeps the cache off for
// trivially cheap tiers.
const cacheBenchHistory = `p0: r(x)0 r(y)0 w(x)1 w(y)2 r(y)2 r(z)0 r(z)0 r(y)2 w(x)3 w(y)4 w(x)5 w(z)6
p1: w(z)7 w(y)8 r(x)10
p2: w(z)9 r(z)9 r(y)0 r(y)0 w(x)10 r(y)0 r(x)10 r(y)0 r(x)10 r(y)0 r(y)0 r(y)0 r(y)0
p3: r(z)0 r(x)0 w(x)11 r(z)9 r(z)9 w(y)12 r(y)12 w(z)13`

func BenchmarkCacheHit(b *testing.B) {
	hist, err := history.Parse(cacheBenchHistory)
	if err != nil {
		b.Fatal(err)
	}
	m, err := model.ByName("PC")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	// A relabeled orbit-mate of the cached history: the hit path must do
	// its full work (no byte-identical shortcut).
	variant, err := history.RelabelRandom(hist, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}

	var hitNs, solveNs float64
	b.Run("hit", func(b *testing.B) {
		cache := vcache.New(64, obs.NewRegistry())
		if _, _, err := vcache.Check(ctx, cache, m, hist); err != nil {
			b.Fatal(err)
		}
		assertHitSolvesNothing(b, cache, m, variant)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, hit, err := vcache.Check(ctx, cache, m, variant)
			if err != nil {
				b.Fatal(err)
			}
			if !hit || v.Allowed || !v.Decided() {
				b.Fatalf("hit=%v allowed=%v decided=%v, want a forbidden cache hit", hit, v.Allowed, v.Decided())
			}
		}
		hitNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("solve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := model.AllowsCtx(ctx, m, variant)
			if err != nil {
				b.Fatal(err)
			}
			if v.Allowed || !v.Decided() {
				b.Fatalf("allowed=%v decided=%v, want forbidden under PC", v.Allowed, v.Decided())
			}
		}
		solveNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if hitNs > 0 && solveNs > 0 {
		speedup := solveNs / hitNs
		b.ReportMetric(speedup, "x-speedup")
		if speedup < 10 {
			b.Fatalf("cache hit %.0fns vs solve %.0fns: %.1fx speedup, want >= 10x", hitNs, solveNs, speedup)
		}
	}
}

// assertHitSolvesNothing checks, by counts rather than time, that a hit
// runs no engine solve. The lookup runs under a context with a budget,
// which arms the engine's work meter, and a registry, which counts every
// check the engine starts. The cache must count one more hit and no more
// misses, the registry no check run, and the verdict must carry no search
// nodes: the cached verdict was solved unmetered, so only a fresh solve
// under the metered context could report any.
func assertHitSolvesNothing(b *testing.B, cache *vcache.Cache, m model.Model, s *history.System) {
	b.Helper()
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(model.WithBudget(context.Background(), model.DefaultBudget()), reg)
	before := cache.Stats()
	v, hit, err := vcache.Check(ctx, cache, m, s)
	if err != nil {
		b.Fatal(err)
	}
	after := cache.Stats()
	if !hit || after.Hits != before.Hits+1 || after.Misses != before.Misses {
		b.Fatalf("hit=%v, hits %d -> %d, misses %d -> %d: want one more hit and no miss",
			hit, before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if runs := reg.Counter("check.runs").Value(); runs != 0 || v.Progress.Nodes != 0 {
		b.Fatalf("a cache hit started %d engine checks and reports %d nodes, want none", runs, v.Progress.Nodes)
	}
}
