// Package incident is the flight recorder and incident-capture layer of
// the checking service. The observability stack can already say THAT
// something went wrong — shed storms, phase-gate breaches, fault-triggered
// degradation — but once the SSE ring evicts the events, the evidence of
// WHAT happened to a specific request is gone. This package keeps a
// bounded per-request record of every check's event/span trail (keyed by
// obs.Event.Req) plus a rolling window of registry deltas and, on a
// trigger — an injected fault firing, a worker panic, a cache-audit
// verdict disagreement, an SLO burn, or an explicit capture request —
// seals everything relevant into a self-contained Bundle: the offending
// history, model, tier, route and budget; the request's span tree and
// events; a metrics snapshot; a goroutine dump; build/host identity; and
// the trigger reason.
//
// Bundles are the operational analogue of model/explain.go's
// machine-checkable witnesses: Replay re-runs the recorded history through
// model.AllowsCtx under the recorded route and budget and diffs verdict,
// witness and phase profile against the recording — a deterministic repro,
// or a flagged divergence.
package incident

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/history"
	"repro/internal/obs"
	"repro/model"
)

// BundleSchema versions the bundle JSON; Decode refuses other schemas so
// a replay never silently misreads an artifact from a different layout.
const BundleSchema = 1

// Trigger records why a bundle was sealed.
type Trigger struct {
	// Kind classifies the trigger: "fault" (an injected fault fired),
	// "panic" (a worker panic was contained), "cache-divergence" (a
	// cache-hit audit re-solve disagreed with the cached verdict),
	// "slo-burn" (the rolling error-budget burn rate crossed its
	// threshold), or "manual" (POST /incidents/capture).
	Kind string `json:"kind"`
	// Point is the fault point for "fault" triggers.
	Point string `json:"point,omitempty"`
	// Detail carries trigger-specific context: the panic value, the
	// disagreeing verdicts, the burn rate.
	Detail string `json:"detail,omitempty"`
	// Req is the request the trigger attributed itself to, when any.
	Req string `json:"req,omitempty"`
	// Fires counts triggers that collapsed into this bundle: a request
	// whose fault fires AND whose worker then panics seals once, with
	// Fires == 2 (the first trigger's identity wins).
	Fires int64 `json:"fires,omitempty"`
}

// CheckInfo is the check the bundle is about: everything Replay needs to
// re-pose the exact question the service answered, plus the answer it
// recorded.
type CheckInfo struct {
	Req string `json:"req"`
	// History is the request's history text as submitted; Canonical is
	// its canonicalized encoding when the cache path computed one.
	History   string `json:"history"`
	Canonical string `json:"canonical,omitempty"`
	Model     string `json:"model"`
	Tier      string `json:"tier,omitempty"`
	Route     string `json:"route,omitempty"`
	// MaxCandidates / MaxNodes / DeadlineMs reproduce the tier's budget.
	MaxCandidates int64 `json:"max_candidates,omitempty"`
	MaxNodes      int64 `json:"max_nodes,omitempty"`
	DeadlineMs    int64 `json:"deadline_ms,omitempty"`
	// Verdict / Reason / Error are the recorded outcome ("" when the
	// trigger sealed before the check finished).
	Verdict string `json:"verdict,omitempty"`
	Reason  string `json:"reason,omitempty"`
	Error   string `json:"error,omitempty"`
	// Progress counters and wall time at finish.
	Candidates int64 `json:"candidates,omitempty"`
	Nodes      int64 `json:"nodes,omitempty"`
	Frontier   int   `json:"frontier,omitempty"`
	WallUs     int64 `json:"wall_us,omitempty"`
	// Explanation is the recorded machine-checkable witness explanation
	// (model.Explanation JSON), when the service produced one.
	Explanation json.RawMessage `json:"explanation,omitempty"`
}

// Outcome renders an engine verdict of m on sys as a check's recorded
// outcome: the verdict and reason (model.Verdict.Outcome), the work
// counters and, when explain is set and v is decided, the witness
// explanation built against sys (model.Explain, as JSON). The checking
// service answers with it and obsreplay -record seals it. err reports why
// a requested explanation could not be built; that costs the explanation,
// never the verdict.
func Outcome(m model.Model, sys *history.System, v model.Verdict, explain bool) (info CheckInfo, err error) {
	info.Verdict, info.Reason = v.Outcome()
	info.Candidates = v.Progress.Candidates
	info.Nodes = v.Progress.Nodes
	info.Frontier = v.Progress.Frontier
	if explain && v.Decided() {
		var e *model.Explanation
		if e, err = model.Explain(m, sys, v); err == nil {
			info.Explanation, err = e.JSON()
		}
	}
	return info, err
}

// MetricsDelta is one sample of the rolling registry-delta window: which
// counters moved, by how much, since the previous sample.
type MetricsDelta struct {
	// Us is the sample time on the obs monotonic process clock.
	Us int64 `json:"us"`
	// Counters holds only the counters that changed, keyed by name.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Bundle is one sealed incident: a self-contained JSON artifact carrying
// everything needed to understand — and re-run — the anomaly.
type Bundle struct {
	Schema   int     `json:"schema"`
	ID       string  `json:"id"`
	SealedAt string  `json:"sealed_at"` // RFC3339Nano, wall clock
	Trigger  Trigger `json:"trigger"`
	// Check is the attributed request, when the trigger had one.
	Check *CheckInfo `json:"check,omitempty"`
	// Events is the attributed request's full event/span trail, oldest
	// first; DroppedEvents counts trail evictions past the per-request
	// bound.
	Events        []obs.Event `json:"events,omitempty"`
	DroppedEvents int64       `json:"dropped_events,omitempty"`
	// Recent is the global tail of request-less events around the seal.
	Recent []obs.Event `json:"recent,omitempty"`
	// Deltas is the rolling registry-delta window at seal time.
	Deltas []MetricsDelta `json:"deltas,omitempty"`
	// Metrics is the full registry snapshot at seal time (runtime health
	// gauges sampled immediately before).
	Metrics obs.Snapshot `json:"metrics"`
	// Goroutines is the full goroutine dump at seal time.
	Goroutines string `json:"goroutines,omitempty"`
	// Build identifies the process and host that sealed the bundle.
	Build obs.BuildInfo `json:"build"`
}

// Encode renders the bundle as indented JSON.
func (b *Bundle) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses and validates a bundle written by Encode. It rejects
// unknown schemas and structurally hollow bundles (no ID or no trigger
// kind) so downstream tooling can trust what it loads.
func Decode(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("incident: decode bundle: %w", err)
	}
	if b.Schema != BundleSchema {
		return nil, fmt.Errorf("incident: bundle schema %d, want %d", b.Schema, BundleSchema)
	}
	if b.ID == "" {
		return nil, fmt.Errorf("incident: bundle has no id")
	}
	if b.Trigger.Kind == "" {
		return nil, fmt.Errorf("incident: bundle has no trigger kind")
	}
	return &b, nil
}

// Meta is the listing row of one spooled bundle — what GET /incidents
// returns per incident without shipping full bundles.
type Meta struct {
	ID       string  `json:"id"`
	SealedAt string  `json:"sealed_at"`
	Trigger  Trigger `json:"trigger"`
	Req      string  `json:"req,omitempty"`
	Model    string  `json:"model,omitempty"`
	Verdict  string  `json:"verdict,omitempty"`
	Events   int     `json:"events"`
	Bytes    int64   `json:"bytes,omitempty"`
}

// meta derives the listing row from a bundle.
func (b *Bundle) meta(size int64) Meta {
	m := Meta{
		ID:       b.ID,
		SealedAt: b.SealedAt,
		Trigger:  b.Trigger,
		Events:   len(b.Events),
		Bytes:    size,
	}
	if b.Check != nil {
		m.Req = b.Check.Req
		m.Model = b.Check.Model
		m.Verdict = b.Check.Verdict
	}
	return m
}
