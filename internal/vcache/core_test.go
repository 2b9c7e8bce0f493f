package vcache

import (
	"context"
	"errors"
	"testing"

	"repro/history"
	"repro/internal/obs"
	"repro/model"
)

// TestCheckCanonicalRelabels: the core solves a cold key once, answers
// the second call from the cache, and maps both verdicts back to the
// caller's labels, so the explanation built from each validates against
// the caller's own history. A solve error comes back as is.
// Canonicalization swaps this history's locations and its two writers, so
// an unmapped witness does not validate.
func TestCheckCanonicalRelabels(t *testing.T) {
	s, err := history.Parse("r(y)1 r(x)0 | w(x)1 | w(y)1")
	if err != nil {
		t.Fatal(err)
	}
	canon, ren, err := history.Canonicalize(s)
	if err != nil {
		t.Fatal(err)
	}
	c := New(8, obs.NewRegistry())
	ctx := context.Background()
	solves := 0
	solve := func() (model.Verdict, error) {
		solves++
		return model.AllowsCtx(ctx, model.TSO, canon)
	}
	for i, wantHit := range []bool{false, true} {
		v, hit, err := CheckCanonical(ctx, c, model.TSO, canon, ren, solve)
		if err != nil || hit != wantHit || solves != 1 || !v.Allowed {
			t.Fatalf("call %d: verdict %+v hit=%v err=%v after %d solves, want allowed, hit=%v, one solve",
				i, v, hit, err, solves, wantHit)
		}
		e, err := model.Explain(model.TSO, s, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := model.ValidateExplanation(model.TSO, s, e); err != nil {
			t.Fatalf("call %d: witness not in the caller's labels: %v", i, err)
		}
	}

	boom := errors.New("boom")
	if _, _, err := CheckCanonical(ctx, c, model.SC, canon, ren, func() (model.Verdict, error) {
		return model.Verdict{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the solve's", err)
	}
}

// TestAuditLeavesCallerSink: a hit's audit outlives the request that
// spent it, so its solve emits nothing into the caller's event sink: the
// only run the sink sees is the miss's.
func TestAuditLeavesCallerSink(t *testing.T) {
	c := New(8, obs.NewRegistry())
	c.SetAuditEvery(1)
	s, err := history.Parse(sb)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(1 << 12)
	ctx := obs.WithSink(context.Background(), ring)
	for i := 0; i < 2; i++ {
		if _, _, err := Check(ctx, c, model.SC, s); err != nil {
			t.Fatal(err)
		}
	}
	c.WaitAudits()
	if got := c.Stats().Audits; got != 1 {
		t.Fatalf("audits = %d, want 1", got)
	}
	runs := 0
	for _, e := range ring.Events() {
		if e.Type == obs.EvRunStart {
			runs++
		}
	}
	if runs != 1 {
		t.Errorf("the sink saw %d runs start, want only the miss's", runs)
	}
}
