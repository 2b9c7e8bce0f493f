package litmus

import (
	"context"
	"io"
	"testing"

	"repro/internal/obs"
	"repro/model"
)

// TestObservabilityNeverChangesVerdicts is the observability acceptance
// differential: for every corpus test (Figures 1–4 and the Bakery violation
// included) under every model, at one worker and at a parallel worker
// count, a check run with full instrumentation attached — a metrics
// registry plus a live JSONL trace sink — must reach exactly the verdict
// the un-instrumented check reaches, and instrumented witnesses must still
// verify. Tracing observes the search; it must never steer it.
func TestObservabilityNeverChangesVerdicts(t *testing.T) {
	forEachCorpusModel(t, func(t *testing.T, tc Test, m model.Model) {
		for _, workers := range []int{1, 4} {
			wm := model.WithWorkers(m, workers)
			plain, perr := wm.Allows(context.Background(), tc.History)

			reg := obs.NewRegistry()
			ctx := obs.WithRegistry(context.Background(), reg)
			ctx = obs.WithSink(ctx, obs.NewJSONL(io.Discard))
			traced, terr := model.AllowsCtx(ctx, wm, tc.History)

			if (perr == nil) != (terr == nil) {
				t.Errorf("%s w=%d: plain err=%v, traced err=%v", m.Name(), workers, perr, terr)
				continue
			}
			if perr != nil {
				continue // both reject the question consistently
			}
			if plain.Allowed != traced.Allowed || plain.Decided() != traced.Decided() {
				t.Errorf("%s w=%d: plain=(allowed=%v decided=%v) traced=(allowed=%v decided=%v)",
					m.Name(), workers, plain.Allowed, plain.Decided(),
					traced.Allowed, traced.Decided())
			}
			if traced.Allowed {
				if err := model.VerifyWitness(wm, tc.History, traced.Witness); err != nil {
					t.Errorf("%s w=%d: traced witness fails verification: %v", m.Name(), workers, err)
				}
			}
			if reg.Counter("check.runs").Value() == 0 {
				t.Errorf("%s w=%d: instrumented check recorded no run", m.Name(), workers)
			}
		}
	})
}

// TestObservabilityRingSink re-runs the Figure 1–4 tests with a bounded
// ring sink and checks the event stream is well-formed: every check is
// bracketed by run_start/run_finish for the same model, and the finish
// verdict matches the returned one.
func TestObservabilityRingSink(t *testing.T) {
	for _, name := range []string{"Fig1-SB", "Fig2-WRC", "Fig3-PRAM", "Fig4-Causal"} {
		tc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range model.All() {
			ring := obs.NewRing(4096)
			ctx := obs.WithSink(context.Background(), ring)
			v, err := model.AllowsCtx(ctx, m, tc.History)
			if err != nil {
				continue
			}
			want := "forbidden"
			switch {
			case !v.Decided():
				want = "unknown"
			case v.Allowed:
				want = "allowed"
			}
			var starts, finishes int
			lastVerdict := ""
			for _, e := range ring.Events() {
				switch e.Type {
				case obs.EvRunStart:
					starts++
					if e.Model != m.Name() {
						t.Errorf("%s/%s: run_start model = %q", name, m.Name(), e.Model)
					}
					if e.Ops != tc.History.NumOps() {
						t.Errorf("%s/%s: run_start ops = %d, want %d", name, m.Name(), e.Ops, tc.History.NumOps())
					}
				case obs.EvRunFinish:
					finishes++
					lastVerdict = e.Verdict
				}
			}
			if starts != 1 || finishes != 1 {
				t.Errorf("%s/%s: %d run_start, %d run_finish events, want 1 each",
					name, m.Name(), starts, finishes)
			}
			if lastVerdict != want {
				t.Errorf("%s/%s: run_finish verdict = %q, returned verdict = %q",
					name, m.Name(), lastVerdict, want)
			}
		}
	}
}
