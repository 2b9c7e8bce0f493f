package relate

import (
	"context"

	"repro/history"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/model"
)

// sweepScope emits the sweep_start/sweep_finish event pair around a
// classification sweep and tallies classified histories; a no-op closure
// when the context carries no observability destination.
func sweepScope(ctx context.Context, kind string, items int64) func(done int64) {
	if !obs.Enabled(ctx) {
		return func(int64) {}
	}
	obs.EmitTo(ctx, obs.Event{Type: obs.EvSweepStart, Kind: kind, Candidates: items})
	return func(done int64) {
		obs.CountTo(ctx, "relate.histories", done)
		obs.EmitTo(ctx, obs.Event{Type: obs.EvSweepFinish, Kind: kind, Candidates: done})
	}
}

// The classification sweeps — thousands of histories, each decided under a
// dozen models — are embarrassingly parallel: checkers are pure functions
// of their inputs (every Model in package model is a stateless value type,
// and each check builds its own solver state). Each sweep below is one
// function that shards histories across the shared worker pool
// (internal/pool — the same pool the model checkers and the explorer use)
// and aggregates; results are identical at every worker count,
// deterministically. The context's deadline, cancellation and budget
// (model.WithBudget) apply per check, and a check the budget cuts short
// lands in the matrix's Unknown column instead of silently vanishing or
// miscounting as a rejection.

// classification is one history's verdict vector.
type classification struct {
	verdict map[string]bool // model name → allowed
	ok      map[string]bool // model name → decided (no checker error, not cut short)
	unknown map[string]bool // model name → check cut short (deadline/budget/cancel)
}

// classify runs every model on one history under ctx.
func classify(ctx context.Context, h *history.System, models []model.Model) classification {
	c := classification{
		verdict: make(map[string]bool, len(models)),
		ok:      make(map[string]bool, len(models)),
		unknown: make(map[string]bool, len(models)),
	}
	for _, m := range models {
		v, err := model.AllowsCtx(ctx, m, h)
		if err != nil {
			continue
		}
		if !v.Decided() {
			c.unknown[m.Name()] = true
			continue
		}
		c.verdict[m.Name()] = v.Allowed
		c.ok[m.Name()] = true
	}
	return c
}

// BuildMatrix classifies every history under every model, fanning the
// per-history classification out over `workers` goroutines (0 = GOMAXPROCS,
// 1 = sequential). Checker errors (ambiguous reads-from, mixed-label
// locations) exclude that history from that model's rows and columns
// rather than failing the build. The context applies to every check: its
// deadline, cancellation and any model.WithBudget budget. Checks cut short
// are tallied per model in the matrix's Unknown column and excluded from
// Classified, Allowed and Sep — an undecided check never contributes a
// separation. The error is non-nil only for a contained worker fault
// (*pool.PanicError).
func BuildMatrix(ctx context.Context, histories []*history.System, models []model.Model, workers int) (*Matrix, error) {
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name()
	}
	mx := &Matrix{
		Models:     names,
		Classified: map[string]int{},
		Allowed:    map[string]int{},
		Unknown:    map[string]int{},
		Sep:        map[string]map[string]int{},
	}
	for _, n := range names {
		mx.Sep[n] = map[string]int{}
	}
	finish := sweepScope(ctx, "matrix", int64(len(histories)))

	results := make([]classification, len(histories))
	if err := pool.Indexed(pool.Size(workers), len(histories), func(_, i int) {
		results[i] = classify(ctx, histories[i], models)
	}); err != nil {
		return nil, err
	}

	for _, c := range results {
		for _, a := range names {
			if c.unknown[a] {
				mx.Unknown[a]++
			}
			if !c.ok[a] {
				continue
			}
			mx.Classified[a]++
			if c.verdict[a] {
				mx.Allowed[a]++
			}
		}
		for _, a := range names {
			if !c.ok[a] || !c.verdict[a] {
				continue
			}
			for _, b := range names {
				if a != b && c.ok[b] && !c.verdict[b] {
					mx.Sep[a][b]++
				}
			}
		}
	}
	finish(int64(len(histories)))
	return mx, nil
}

// shutdownFeed winds down a Feed/Drain pair: cancel the producer, drain the
// channel until it closes (no goroutine outlives the sweep), and return the
// first fault — a drain-worker one before a producer one.
func shutdownFeed[T any](cancel context.CancelFunc, jobs <-chan T, feedErr func() error, drainErr error) error {
	cancel()
	for range jobs {
	}
	if drainErr != nil {
		return drainErr
	}
	return feedErr()
}

// Density reports, for each model, how many histories of the enumerated
// shape it allows — an exhaustive measure of relative strictness — plus
// the histories whose check the budget or deadline cut short (undecided
// checks are counted in unknown, never in counts); total is the number of
// histories in the shape. Enumeration is sequential (it is cheap);
// classification is fanned out over `workers` goroutines, with per-worker
// partial counts merged at the end. A cancelled context aborts the sweep
// with the context's error — a partial density over an exhaustive shape
// would be misleading.
func Density(ctx context.Context, procs, opsPerProc, locs, workers int, models []model.Model) (counts, unknown map[string]int, total int, err error) {
	w := pool.Size(workers)
	finish := sweepScope(ctx, "density", 0)
	type partial struct {
		counts  map[string]int
		unknown map[string]int
		n       int
		err     error
	}
	parts := make([]partial, w)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs, feedErr := pool.Feed(cctx, w*4, func(emit func(*history.System) bool) {
		EnumerateHistories(procs, opsPerProc, locs, emit)
	})
	drainErr := pool.Drain(cctx, w, jobs, func(worker int, h *history.System) {
		p := &parts[worker]
		if p.counts == nil {
			p.counts = make(map[string]int, len(models))
			p.unknown = make(map[string]int, len(models))
		}
		p.n++
		for _, m := range models {
			v, err := model.AllowsCtx(cctx, m, h)
			if err != nil {
				if p.err == nil {
					p.err = err
				}
				continue
			}
			if !v.Decided() {
				p.unknown[m.Name()]++
				continue
			}
			if v.Allowed {
				p.counts[m.Name()]++
			}
		}
	})
	if err := shutdownFeed(cancel, jobs, feedErr, drainErr); err != nil {
		return nil, nil, 0, err
	}

	counts = make(map[string]int, len(models))
	unknown = make(map[string]int, len(models))
	for _, p := range parts {
		total += p.n
		for k, v := range p.counts {
			counts[k] += v
		}
		for k, v := range p.unknown {
			unknown[k] += v
		}
		if err == nil && p.err != nil {
			err = p.err
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, nil, 0, err
	}
	finish(int64(total))
	return counts, unknown, total, nil
}

// CheckLatticeExhaustive verifies every PaperLattice containment over the
// complete space of histories with the given shape under ctx, collecting
// at most one counterexample per violated containment. Undecided checks (budget, deadline) classify the
// history under neither side of an edge, so they can hide a violation but
// never fabricate one; a cancelled context aborts with the context's error.
func CheckLatticeExhaustive(ctx context.Context, procs, opsPerProc, locs, workers int) (violations []string, total int, err error) {
	byName := map[string]model.Model{}
	needed := map[string]bool{}
	lattice := PaperLattice()
	for _, m := range model.All() {
		byName[m.Name()] = m
	}
	for _, c := range lattice {
		needed[c.Strong] = true
		needed[c.Weak] = true
	}
	var models []model.Model
	for name := range needed {
		if m, ok := byName[name]; ok {
			models = append(models, m)
		}
	}

	w := pool.Size(workers)
	finish := sweepScope(ctx, "lattice", 0)
	type partial struct {
		violations map[string]string // "Strong⊆Weak" → counterexample
		n          int
	}
	parts := make([]partial, w)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs, feedErr := pool.Feed(cctx, w*4, func(emit func(*history.System) bool) {
		EnumerateHistories(procs, opsPerProc, locs, emit)
	})
	drainErr := pool.Drain(cctx, w, jobs, func(worker int, h *history.System) {
		p := &parts[worker]
		if p.violations == nil {
			p.violations = map[string]string{}
		}
		p.n++
		c := classify(cctx, h, models)
		for _, edge := range lattice {
			key := edge.Strong + "⊆" + edge.Weak
			if _, done := p.violations[key]; done {
				continue
			}
			if c.ok[edge.Strong] && c.verdict[edge.Strong] &&
				c.ok[edge.Weak] && !c.verdict[edge.Weak] {
				p.violations[key] = h.String()
			}
		}
	})
	if err := shutdownFeed(cancel, jobs, feedErr, drainErr); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}

	merged := map[string]string{}
	for _, p := range parts {
		total += p.n
		for k, v := range p.violations {
			if _, dup := merged[k]; !dup {
				merged[k] = v
			}
		}
	}
	for _, edge := range lattice {
		key := edge.Strong + "⊆" + edge.Weak
		if ex, bad := merged[key]; bad {
			violations = append(violations, key+" violated by "+ex)
		}
	}
	finish(int64(total))
	return violations, total, nil
}
