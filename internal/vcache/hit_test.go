package vcache

import (
	"context"
	"testing"
	"time"

	"repro/history"
	"repro/internal/obs"
	"repro/model"
)

// TestHitReportsNoWork: the caller that solves gets the solve's work
// counters; a caller that coalesces onto that solve, and one served from
// the cache later, get the same verdict with Candidates and Nodes zero,
// and keep what describes the verdict (Allowed, Witness, Frontier).
func TestHitReportsNoWork(t *testing.T) {
	c := New(8, obs.NewRegistry())
	ctx := context.Background()
	const enc = "w(x)1 | r(x)1"
	k := KeyFor(enc, "SC", "auto")
	want := model.Verdict{
		Allowed:  true,
		Witness:  &model.Witness{},
		Progress: model.Progress{Candidates: 5, Nodes: 7, Frontier: 2},
	}
	started, gate := make(chan struct{}), make(chan struct{})
	solve := func() (model.Verdict, error) {
		close(started)
		<-gate
		return want, nil
	}
	never := func() (model.Verdict, error) {
		t.Error("a hit started a solve")
		return model.Verdict{}, nil
	}

	type answer struct {
		v   model.Verdict
		hit bool
		err error
	}
	first, waiter := make(chan answer, 1), make(chan answer, 1)
	go func() {
		v, hit, err := c.Do(ctx, k, enc, solve)
		first <- answer{v, hit, err}
	}()
	<-started
	go func() {
		v, hit, err := c.Do(ctx, k, enc, never)
		waiter <- answer{v, hit, err}
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)

	check := func(name string, a answer, wantHit bool) {
		t.Helper()
		if a.err != nil || a.hit != wantHit {
			t.Fatalf("%s: hit=%v err=%v, want hit=%v", name, a.hit, a.err, wantHit)
		}
		p := want.Progress
		if wantHit {
			p.Candidates, p.Nodes = 0, 0
		}
		if a.v.Allowed != want.Allowed || a.v.Witness != want.Witness || a.v.Unknown != want.Unknown || a.v.Progress != p {
			t.Errorf("%s: verdict %+v, want %+v with progress %+v", name, a.v, want, p)
		}
	}
	check("solver", <-first, false)
	check("coalesced", <-waiter, true)
	v, hit, err := c.Do(ctx, k, enc, never)
	check("resident", answer{v, hit, err}, true)
}

// TestCheckHitReportsNoWork runs the same through Check, on a real,
// metered solve: the miss reports the candidates and nodes it spent, a
// relabeled variant's hit reports none, and the verdicts agree.
func TestCheckHitReportsNoWork(t *testing.T) {
	c := New(8, obs.NewRegistry())
	m, err := model.ByName("TSO")
	if err != nil {
		t.Fatal(err)
	}
	ctx := model.WithBudget(context.Background(), model.Budget{MaxCandidates: 1 << 20, MaxNodes: 1 << 20})
	parse := func(h string) *history.System {
		s, err := history.Parse(h)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	miss, hit, err := Check(ctx, c, m, parse(sb))
	if err != nil || hit {
		t.Fatalf("first check: hit=%v err=%v, want a miss", hit, err)
	}
	if miss.Progress.Candidates == 0 || miss.Progress.Nodes == 0 {
		t.Fatalf("the metered solve reported no work (%+v); the hit below would prove nothing", miss.Progress)
	}
	got, hit, err := Check(ctx, c, m, parse("w(a)1 r(b)0 | w(b)1 r(a)0"))
	if err != nil || !hit {
		t.Fatalf("relabeled check: hit=%v err=%v, want a hit", hit, err)
	}
	if got.Progress.Candidates != 0 || got.Progress.Nodes != 0 {
		t.Errorf("hit reports candidates=%d nodes=%d, want 0/0", got.Progress.Candidates, got.Progress.Nodes)
	}
	if got.Allowed != miss.Allowed || got.Unknown != miss.Unknown || got.Progress.Frontier != miss.Progress.Frontier ||
		(got.Witness == nil) != (miss.Witness == nil) {
		t.Errorf("hit verdict %+v differs from the solved %+v beyond the work counters", got, miss)
	}
}
