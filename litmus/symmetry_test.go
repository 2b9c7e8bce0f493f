package litmus

import (
	"context"
	"math/rand"
	"testing"

	"repro/history"
	"repro/internal/obs"
	"repro/internal/vcache"
	"repro/model"
)

// The symmetry suite pins the property the verdict cache is built on:
// membership under every model in the paper's hierarchy is invariant under
// processor permutations, location renamings, and per-location value
// bijections fixing Initial. history.Canonicalize must collapse an entire
// relabeling orbit to one normal form, and every checker must return the
// same verdict anywhere on the orbit.

// symmetryPerms is how many random relabelings each corpus test is pushed
// through. Two keeps the full matrix (corpus × models × routes × perms)
// close to the differential test's cost while still exercising fresh
// permutations every case.
const symmetryPerms = 2

// TestCanonicalFormInvariantOnCorpus: for every corpus history H and
// random relabeling π, Canonicalize(π(H)) must equal Canonicalize(H)
// byte-for-byte — the cache-key property. The renaming must also be a
// genuine isomorphism: relabeling H through it rebuilds the normal form.
func TestCanonicalFormInvariantOnCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for _, tc := range Corpus() {
		canon, ren, err := history.Canonicalize(tc.History)
		if err != nil {
			t.Fatalf("%s: Canonicalize: %v", tc.Name, err)
		}
		rebuilt, err := history.Relabel(tc.History,
			func(p history.Proc) history.Proc { return ren.ProcTo[p] },
			func(l history.Loc) history.Loc { return ren.LocTo[l] },
			func(l history.Loc, v history.Value) history.Value { return ren.ValTo[l][v] })
		if err != nil {
			t.Fatalf("%s: Relabel through renaming: %v", tc.Name, err)
		}
		if history.Format(rebuilt) != history.Format(canon) {
			t.Fatalf("%s: renaming does not rebuild the canonical form", tc.Name)
		}
		for i := 0; i < 5*symmetryPerms; i++ {
			rs, err := history.RelabelRandom(tc.History, rng)
			if err != nil {
				t.Fatalf("%s: RelabelRandom: %v", tc.Name, err)
			}
			rc, _, err := history.Canonicalize(rs)
			if err != nil {
				t.Fatalf("%s: Canonicalize(relabeling %d): %v", tc.Name, i, err)
			}
			if history.Format(rc) != history.Format(canon) {
				t.Fatalf("%s: canonical form not invariant under relabeling:\nrelabeled:\n%s\ncanonical of original:\n%s\ncanonical of relabeling:\n%s",
					tc.Name, history.Format(rs), history.Format(canon), history.Format(rc))
			}
		}
	}
}

// TestVerdictsInvariantUnderRelabeling: verdict(π(H)) == verdict(H) for
// every corpus test under every model, on both the fast-path route and
// the pure enumerator, and relabeled witnesses verify against the
// relabeled history. This is the soundness side of the cache: sharing a
// verdict across an orbit is only legitimate if the checkers themselves
// cannot tell orbit members apart.
func TestVerdictsInvariantUnderRelabeling(t *testing.T) {
	routes := []model.RouteMode{model.RouteAuto, model.RouteEnumerate}
	rng := rand.New(rand.NewSource(42))
	forEachCorpusModel(t, func(t *testing.T, tc Test, m model.Model) {
		variants := make([]*history.System, symmetryPerms)
		for i := range variants {
			rs, err := history.RelabelRandom(tc.History, rng)
			if err != nil {
				t.Fatalf("RelabelRandom: %v", err)
			}
			variants[i] = rs
		}
		for _, route := range routes {
			ctx := model.WithRoute(context.Background(), route)
			base, berr := model.AllowsCtx(ctx, m, tc.History)
			for i, rs := range variants {
				v, err := model.AllowsCtx(ctx, m, rs)
				if (berr == nil) != (err == nil) {
					t.Errorf("%s route=%s perm=%d: original err=%v, relabeled err=%v",
						m.Name(), route, i, berr, err)
					continue
				}
				if berr != nil {
					continue // both reject the shape identically
				}
				if base.Allowed != v.Allowed || base.Decided() != v.Decided() {
					t.Errorf("%s route=%s perm=%d: verdict not relabeling-invariant: original=(allowed=%v decided=%v) relabeled=(allowed=%v decided=%v)\nrelabeled history:\n%s",
						m.Name(), route, i, base.Allowed, base.Decided(),
						v.Allowed, v.Decided(), history.Format(rs))
					continue
				}
				if v.Allowed {
					if err := model.VerifyWitness(m, rs, v.Witness); err != nil {
						t.Errorf("%s route=%s perm=%d: relabeled witness fails verification: %v",
							m.Name(), route, i, err)
					}
				}
			}
		}
	})
}

// TestCacheServesRelabeledVariants: checking a relabeled variant through
// the verdict cache must hit the entry its orbit-mate populated, agree
// with the direct verdict, and hand back a witness that verifies under
// the *caller's* labels — the relabel-on-the-way-out path.
func TestCacheServesRelabeledVariants(t *testing.T) {
	cache := vcache.New(1024, obs.NewRegistry())
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	forEachCorpusModel(t, func(t *testing.T, tc Test, m model.Model) {
		base, hit, err := vcache.Check(ctx, cache, m, tc.History)
		if err != nil {
			return // model rejects the history's shape; nothing cached
		}
		if hit {
			t.Fatalf("%s: first check of %s reported a cache hit", m.Name(), tc.Name)
		}
		for i := 0; i < symmetryPerms; i++ {
			rs, rerr := history.RelabelRandom(tc.History, rng)
			if rerr != nil {
				t.Fatalf("RelabelRandom: %v", rerr)
			}
			v, hit, err := vcache.Check(ctx, cache, m, rs)
			if err != nil {
				t.Errorf("%s perm=%d: cached check errs (%v) where direct check succeeded", m.Name(), i, err)
				continue
			}
			if !hit {
				t.Errorf("%s perm=%d: relabeled variant missed the cache", m.Name(), i)
			}
			if v.Allowed != base.Allowed || v.Decided() != base.Decided() {
				t.Errorf("%s perm=%d: cached verdict (allowed=%v decided=%v) disagrees with direct (allowed=%v decided=%v)",
					m.Name(), i, v.Allowed, v.Decided(), base.Allowed, base.Decided())
			}
			if v.Allowed {
				if err := model.VerifyWitness(m, rs, v.Witness); err != nil {
					t.Errorf("%s perm=%d: relabeled cached witness fails verification: %v",
						m.Name(), i, err)
				}
			}
		}
	})
	stats := cache.Stats()
	if stats.Hits+stats.Misses != stats.Lookups {
		t.Errorf("cache accounting broken: hits(%d)+misses(%d) != lookups(%d)",
			stats.Hits, stats.Misses, stats.Lookups)
	}
	if stats.Collisions != 0 {
		t.Errorf("cache reported %d hash collisions on the corpus", stats.Collisions)
	}
}
