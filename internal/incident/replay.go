package incident

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/history"
	"repro/internal/obs"
	"repro/model"
)

// PhaseDiff compares one span phase between the recording and the replay.
// Recorded durations come from the bundle's span events; replayed ones
// from the replay's private registry. A phase present on only one side
// has -1 on the other.
type PhaseDiff struct {
	Phase      string `json:"phase"`
	RecordedUs int64  `json:"recorded_us"`
	ReplayedUs int64  `json:"replayed_us"`
}

// Result is the outcome of replaying one bundle.
type Result struct {
	BundleID string `json:"bundle_id"`
	Model    string `json:"model"`
	Route    string `json:"route"`

	RecordedVerdict string `json:"recorded_verdict"`
	RecordedReason  string `json:"recorded_reason,omitempty"`
	ReplayVerdict   string `json:"replay_verdict"`
	ReplayReason    string `json:"replay_reason,omitempty"`

	// Reproduced: the replay reached the recorded decided verdict.
	// Recovered: the recording was undecided (budget/deadline/error) and
	// the replay decided — informative, not a divergence.
	// Divergence: both decided, different answers — the red flag.
	Reproduced bool   `json:"reproduced"`
	Recovered  bool   `json:"recovered,omitempty"`
	Divergence string `json:"divergence,omitempty"`
	// Note flags soft mismatches (a replay that ran out of budget where
	// the recording decided).
	Note string `json:"note,omitempty"`

	// WitnessValidated reports model.ValidateExplanation over the
	// *recorded* explanation — the bundle's own evidence re-verified.
	WitnessValidated bool   `json:"witness_validated,omitempty"`
	WitnessError     string `json:"witness_error,omitempty"`
	// ReplayWitnessValidated reports the same over a fresh explanation of
	// the replay's verdict.
	ReplayWitnessValidated bool   `json:"replay_witness_validated,omitempty"`
	ReplayWitnessError     string `json:"replay_witness_error,omitempty"`

	Candidates int64 `json:"candidates,omitempty"`
	Nodes      int64 `json:"nodes,omitempty"`
	Frontier   int   `json:"frontier,omitempty"`
	WallUs     int64 `json:"wall_us,omitempty"`

	Phases []PhaseDiff `json:"phases,omitempty"`
}

// Replay re-runs the bundle's history through model.AllowsCtx under the
// recorded route, budget and deadline, and diffs verdict, witness and
// phase profile against the recording. It is deterministic where the
// recording was: the solve runs single-worker so candidate/node counts
// and the chosen witness do not race.
func Replay(ctx context.Context, b *Bundle) (*Result, error) {
	if b.Check == nil {
		return nil, fmt.Errorf("incident: bundle %s has no check to replay (trigger %q)", b.ID, b.Trigger.Kind)
	}
	c := b.Check
	sys, err := history.Parse(c.History)
	if err != nil {
		return nil, fmt.Errorf("incident: bundle %s history: %w", b.ID, err)
	}
	m, err := model.ByName(c.Model)
	if err != nil {
		return nil, fmt.Errorf("incident: bundle %s: %w", b.ID, err)
	}
	m = model.WithWorkers(m, 1)

	res := &Result{
		BundleID:        b.ID,
		Model:           c.Model,
		Route:           c.Route,
		RecordedVerdict: c.Verdict,
		RecordedReason:  c.Reason,
	}

	route, err := model.ParseRoute(c.Route)
	if err != nil {
		return nil, fmt.Errorf("incident: bundle %s: %w", b.ID, err)
	}
	ctx = model.WithRoute(ctx, route)
	if c.MaxCandidates > 0 || c.MaxNodes > 0 {
		ctx = model.WithBudget(ctx, model.Budget{
			MaxCandidates: c.MaxCandidates,
			MaxNodes:      c.MaxNodes,
		})
	}
	if c.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(c.DeadlineMs)*time.Millisecond)
		defer cancel()
	}

	// A private registry collects the replay's span phases for the diff.
	reg := obs.NewRegistry()
	ctx = obs.WithRegistry(ctx, reg)
	sp := obs.NewSpan(nil, reg, "solve", "")
	start := time.Now()
	v, err := model.AllowsCtx(sp.Context(ctx), m, sys)
	res.WallUs = time.Since(start).Microseconds()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("incident: bundle %s replay: %w", b.ID, err)
	}
	res.ReplayVerdict, res.ReplayReason = v.Outcome()
	res.Candidates = v.Progress.Candidates
	res.Nodes = v.Progress.Nodes
	res.Frontier = v.Progress.Frontier

	switch {
	case c.Verdict == "allowed" || c.Verdict == "forbidden":
		switch {
		case res.ReplayVerdict == c.Verdict:
			res.Reproduced = true
		case v.Decided():
			res.Divergence = fmt.Sprintf("recorded %s, replay %s", c.Verdict, res.ReplayVerdict)
		default:
			res.Note = fmt.Sprintf("recorded %s, replay undecided (%s) — budget or deadline environment differs", c.Verdict, res.ReplayReason)
		}
	default:
		// The recording never decided (fault, panic, shed, budget stop):
		// any replay answer is new information, not a divergence.
		res.Reproduced = true
		if v.Decided() {
			res.Recovered = true
		}
	}

	// Re-verify the recorded explanation: the bundle's own evidence.
	if len(c.Explanation) > 0 {
		var e model.Explanation
		if err := json.Unmarshal(c.Explanation, &e); err != nil {
			res.WitnessError = fmt.Sprintf("decode: %v", err)
		} else if err := model.ValidateExplanation(m, sys, &e); err != nil {
			res.WitnessError = err.Error()
		} else {
			res.WitnessValidated = true
		}
	}
	// And certify the replay's own allowed verdict the same way.
	if v.Decided() && v.Allowed {
		e, err := model.Explain(m, sys, v)
		if err != nil {
			res.ReplayWitnessError = err.Error()
		} else if err := model.ValidateExplanation(m, sys, e); err != nil {
			res.ReplayWitnessError = err.Error()
		} else {
			res.ReplayWitnessValidated = true
		}
	}

	res.Phases = phaseDiff(b.Events, reg.Snapshot())
	return res, nil
}

// phaseDiff folds the recorded span events and the replay's span
// histograms into one table, total microseconds per phase per side.
func phaseDiff(recorded []obs.Event, replay obs.Snapshot) []PhaseDiff {
	rec := make(map[string]int64)
	for _, e := range recorded {
		if e.Type == obs.EvSpan && e.Span != "" {
			rec[e.Span] += e.DurUs
		}
	}
	rep := make(map[string]int64)
	for phase, lat := range obs.PhaseTable(replay) {
		rep[phase] = lat.SumNs / 1e3
	}
	names := make(map[string]bool)
	for k := range rec {
		names[k] = true
	}
	for k := range rep {
		names[k] = true
	}
	if len(names) == 0 {
		return nil
	}
	out := make([]PhaseDiff, 0, len(names))
	for k := range names {
		d := PhaseDiff{Phase: k, RecordedUs: -1, ReplayedUs: -1}
		if v, ok := rec[k]; ok {
			d.RecordedUs = v
		}
		if v, ok := rep[k]; ok {
			d.ReplayedUs = v
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	return out
}
