package history_test

// The external test package lets the fuzz target cross-check verdict
// preservation with package model, which imports history.

import (
	"context"
	"math/rand"
	"testing"

	"repro/history"
	"repro/model"
)

// FuzzCanonicalize: for every parser-accepted history, canonicalization
// must terminate, be idempotent, hand back a renaming that is a genuine
// isomorphism onto the normal form, and be invariant under a random
// relabeling derived deterministically from the input. On small inputs the
// membership verdict itself is checked to survive canonicalization — the
// exact property the verdict cache stakes correctness on.
func FuzzCanonicalize(f *testing.F) {
	f.Add("p0: w(x)1 r(y)0\np1: w(y)1 r(x)0")
	f.Add("p0: w(x)1 r(x)1 r(x)2\np1: w(x)2 r(x)2 r(x)1")
	f.Add("p0: W(s)1 w(x)1 W(s)2\np1: R(s)2 r(x)1")
	f.Add("p0: r(a)0\np1: r(a)0")
	f.Add("p0:\np1: w(x)1")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := history.Parse(text)
		if err != nil {
			return
		}
		canon, ren, err := history.Canonicalize(s)
		if err != nil {
			return // an oversized symmetry class is a documented refusal
		}
		enc := history.Format(canon)
		if fresh := history.FreshString(canon); fresh != enc {
			t.Fatalf("cached canonical text differs from a fresh render:\ncached:\n%s\nfresh:\n%s", enc, fresh)
		}

		c2, _, err := history.Canonicalize(canon)
		if err != nil {
			t.Fatalf("canonical form refuses to re-canonicalize: %v\n%s", err, enc)
		}
		if history.Format(c2) != enc {
			t.Fatalf("not idempotent:\nfirst:\n%s\nsecond:\n%s", enc, history.Format(c2))
		}

		rebuilt, err := history.Relabel(s,
			func(p history.Proc) history.Proc { return ren.ProcTo[p] },
			func(l history.Loc) history.Loc { return ren.LocTo[l] },
			func(l history.Loc, v history.Value) history.Value { return ren.ValTo[l][v] })
		if err != nil {
			t.Fatalf("renaming is not a valid relabeling: %v", err)
		}
		if history.Format(rebuilt) != enc {
			t.Fatalf("renaming does not rebuild the canonical form:\n%s\nvs\n%s",
				history.Format(rebuilt), enc)
		}

		// Deterministic per-input randomness keeps crashes reproducible.
		seed := int64(len(text))
		for _, b := range []byte(text) {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		rs, err := history.RelabelRandom(s, rng)
		if err != nil {
			t.Fatalf("RelabelRandom: %v", err)
		}
		rc, _, err := history.Canonicalize(rs)
		if err != nil {
			t.Fatalf("relabeled history refuses to canonicalize: %v", err)
		}
		if history.Format(rc) != enc {
			t.Fatalf("canonical form not relabeling-invariant:\nrelabeled:\n%s\ngot:\n%s\nwant:\n%s",
				history.Format(rs), history.Format(rc), enc)
		}

		if s.NumOps() > 8 {
			return // keep the verdict cross-check tractable per input
		}
		ctx := model.WithBudget(context.Background(),
			model.Budget{MaxCandidates: 1 << 12, MaxNodes: 1 << 16})
		for _, m := range []model.Model{model.SC, model.PRAM, model.Coherence} {
			ov, oerr := model.AllowsCtx(ctx, m, s)
			cv, cerr := model.AllowsCtx(ctx, m, canon)
			if (oerr == nil) != (cerr == nil) {
				t.Fatalf("%s: original err=%v, canonical err=%v", m.Name(), oerr, cerr)
			}
			if oerr != nil {
				continue
			}
			if ov.Decided() && cv.Decided() && ov.Allowed != cv.Allowed {
				t.Fatalf("%s: verdict changed under canonicalization: original allowed=%v, canonical allowed=%v on\n%s",
					m.Name(), ov.Allowed, cv.Allowed, text)
			}
		}
	})
}
