package model

import (
	"context"
	"fmt"
)

// RouteMode selects which family of decision procedures a check uses.
// Routing travels on the context (WithRoute) for the same reason budgets
// do: it must cross the whole stack — litmus runs, relate sweeps, explorer
// expansions — without threading a parameter through every layer.
type RouteMode uint8

const (
	// RouteAuto — the default — dispatches each model to its cheapest
	// sound procedure (Procedure names it): the polynomial fast paths for
	// SC, PRAM, causal and coherence; the forced-edge pre-pass ahead of
	// the write-order and coherence enumerations of TSO, PC, PCG, WO, RCsc,
	// RCpc and Causal+Coh; the value-axiom pre-pass ahead of TSO-ax's
	// store-order enumeration; and plain enumeration for Causal+LCoh and
	// Slow. Verdicts are identical to RouteEnumerate on every input; only
	// the work differs.
	RouteAuto RouteMode = iota
	// RouteEnumerate forces the pure enumeration procedures — the
	// differential oracle the fast paths are pinned against in CI.
	RouteEnumerate
)

// String renders the mode for CLI output and test names.
func (m RouteMode) String() string {
	switch m {
	case RouteAuto:
		return "auto"
	case RouteEnumerate:
		return "enumerate"
	}
	return fmt.Sprintf("RouteMode(%d)", uint8(m))
}

type routeKey struct{}

// WithRoute attaches a route mode to the context; every AllowsCtx call
// under the returned context uses it. Contexts without a mode default to
// RouteAuto.
func WithRoute(ctx context.Context, mode RouteMode) context.Context {
	return context.WithValue(ctx, routeKey{}, mode)
}

// RouteFromContext returns the route mode attached by WithRoute, or
// RouteAuto when none is attached.
func RouteFromContext(ctx context.Context) RouteMode {
	if m, ok := ctx.Value(routeKey{}).(RouteMode); ok {
		return m
	}
	return RouteAuto
}
