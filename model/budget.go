package model

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/history"
	"repro/internal/budget"
	"repro/internal/obs"
)

// Budget bounds the work a single membership check may perform. Deciding
// membership is NP-hard, so a production check needs admission control:
// without a budget an adversarial (or merely large) history can hang a
// checker indefinitely. A zero field is unlimited; the zero Budget imposes
// no bounds at all.
//
// A budget travels on the context (WithBudget) so it crosses the whole
// stack — model checks, explorer runs, relate sweeps — without threading a
// parameter through every layer.
type Budget struct {
	// MaxCandidates caps the number of mutual-consistency candidates
	// (write orders, coherence products, labeled serializations) tested.
	MaxCandidates int64
	// MaxNodes caps the number of search nodes the view-existence solver
	// may expand, summed across all candidates and workers.
	MaxNodes int64
	// Deadline is an absolute wall-clock cutoff. The effective deadline is
	// the earlier of this and the context's own deadline.
	Deadline time.Time
}

// DefaultBudget is a generous bound that no litmus-scale history
// approaches (the full corpus decides within a few million nodes) but that
// stops a runaway check on an oversized history in bounded time.
func DefaultBudget() Budget {
	return Budget{MaxCandidates: 1 << 20, MaxNodes: 1 << 24}
}

type budgetKey struct{}

// WithBudget attaches b to the context; every AllowsCtx call under the
// returned context enforces it.
func WithBudget(ctx context.Context, b Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFromContext returns the budget attached by WithBudget, or a zero
// (unlimited) Budget when none is attached.
func BudgetFromContext(ctx context.Context) (Budget, bool) {
	b, ok := ctx.Value(budgetKey{}).(Budget)
	return b, ok
}

// UnknownReason classifies why a check returned no definite answer. The
// zero value NotUnknown marks a decided verdict.
type UnknownReason uint8

const (
	// NotUnknown is the reason field of a decided verdict.
	NotUnknown UnknownReason = iota
	// DeadlineExceeded: the budget's (or context's) deadline passed.
	DeadlineExceeded
	// BudgetExhausted: MaxCandidates or MaxNodes tripped.
	BudgetExhausted
	// Canceled: the caller's context was cancelled.
	Canceled
)

// String renders the reason for CLI output and error messages.
func (r UnknownReason) String() string {
	switch r {
	case NotUnknown:
		return "decided"
	case DeadlineExceeded:
		return "deadline exceeded"
	case BudgetExhausted:
		return "budget exhausted"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("UnknownReason(%d)", uint8(r))
}

// Progress counts the work a check performed, whether or not it decided.
// Counters are maintained only when something could stop the check — a
// budget, a deadline, or a cancellable context; an open-loop check (under a
// bare context.Background) skips the accounting entirely and reports
// zeros.
type Progress struct {
	// Candidates is the number of mutual-consistency candidates tested.
	Candidates int64
	// Nodes is the number of search nodes the view solver expanded.
	Nodes int64
	// Frontier is the deepest partial linearization (operations placed)
	// any view search of the check reached — how close the solver got to a
	// full view before the check decided or stopped. Unlike the counters
	// above it is tracked on every check, open-loop included.
	Frontier int
}

// AllowsCtx checks m against s under ctx. A context that is already dead
// returns Unknown without doing any work. Otherwise the check is
// cooperative — it stops promptly on cancellation, deadline, or budget
// exhaustion and returns a three-valued Verdict (a check so small it
// completes within one polling stride may still decide; a completed search
// is always a sound answer).
func AllowsCtx(ctx context.Context, m Model, s *history.System) (Verdict, error) {
	if err := ctx.Err(); err != nil {
		r := Canceled
		if errors.Is(err, context.DeadlineExceeded) {
			r = DeadlineExceeded
		}
		return Verdict{Unknown: r}, nil
	}
	if !obs.Enabled(ctx) {
		return m.Allows(ctx, s)
	}
	// The route span attributes the solve to the procedure that ran it —
	// span.route.auto.ns vs span.route.enumerate.ns — and is the parent of
	// the pool's wait/exec spans. The Enabled check keeps the
	// un-instrumented path free of the name concatenation.
	sctx, sp := obs.StartSpan(ctx, "route."+RouteFromContext(ctx).String())
	v, err := m.Allows(sctx, s)
	sp.End()
	return v, err
}

// unknownReason maps the internal meter's stop reason to the public enum.
func unknownReason(r budget.Reason) UnknownReason {
	switch r {
	case budget.Deadline:
		return DeadlineExceeded
	case budget.Exhausted:
		return BudgetExhausted
	case budget.Canceled:
		return Canceled
	}
	return NotUnknown
}
