package obs

import "fmt"

// DiffOptions configures what DiffReports treats as a regression beyond
// the always-hard verdict flips.
type DiffOptions struct {
	// MaxStatRatio fails a model whose candidates or nodes grew beyond
	// old×ratio (0 disables stat checking). Growth below MinStat absolute
	// is ignored as noise.
	MaxStatRatio float64
	MinStat      int64
	// RequirePruneParts lists prune-attribution parts (e.g. "fastpath")
	// that must appear with a nonzero count in some model of the NEW
	// report. A required part that vanishes means the instrumentation —
	// or the procedure it instruments — silently stopped running, which
	// is a coverage loss no verdict comparison would catch.
	RequirePruneParts []string
	// RequireCounters lists registry counters (e.g. "vcache.hits") that
	// must be nonzero in the NEW report's metrics snapshot. Same rationale
	// as RequirePruneParts: a subsystem the gate runs on purpose (the
	// verdict cache) silently dropping to zero traffic is a regression
	// even when every verdict still matches.
	RequireCounters []string
	// MaxPhaseP95 maps a span phase name (Report.Phases key, e.g. "solve"
	// or "check") to the maximum allowed growth ratio of its estimated
	// p95 latency over the baseline. A gated phase that disappears from
	// the new report is hard (the instrumentation — or the phase — went
	// silent). The p95 estimates come from power-of-two histograms whose
	// buckets span a 2x range, so meaningful thresholds sit well above 2;
	// the CI gate also adds cross-hardware headroom.
	MaxPhaseP95 map[string]float64
	// MinPhaseNs ignores phase-p95 growth below this absolute delta in
	// nanoseconds (noise floor for very fast phases, where one bucket of
	// jitter is a large ratio).
	MinPhaseNs int64
}

// Problem is one finding of a report comparison. Hard problems (verdict
// flips, lost checks, threshold breaches) should fail a gate; soft ones
// are informational drift.
type Problem struct {
	Kind   string `json:"kind"`
	Hard   bool   `json:"hard"`
	Detail string `json:"detail"`
}

func (p Problem) String() string {
	sev := "note"
	if p.Hard {
		sev = "FAIL"
	}
	return fmt.Sprintf("[%s] %-17s %s", sev, p.Kind, p.Detail)
}

// DiffReports compares a new report against a baseline. Any decided
// verdict that flips between the two is a hard problem — the checkers
// changed their answer on the same input, which no performance win
// excuses. A decided check going unknown (coverage loss), a keyed check
// disappearing, and per-model decided-verdict counts shifting are also
// hard; stat and span-phase growth is hard only beyond the configured
// thresholds. New checks and improvements (unknown → decided) are notes.
func DiffReports(old, new *Report, opts DiffOptions) []Problem {
	var out []Problem
	add := func(hard bool, kind, format string, args ...any) {
		out = append(out, Problem{Kind: kind, Hard: hard, Detail: fmt.Sprintf(format, args...)})
	}
	if old.Schema != new.Schema {
		add(true, "schema-mismatch", "baseline schema %d vs new schema %d", old.Schema, new.Schema)
		return out
	}

	// Keyed checks: verdict flips are the headline regression.
	newByKey := make(map[string]CheckRecord, len(new.Checks))
	for _, c := range new.Checks {
		newByKey[checkKey(c)] = c
	}
	oldKeys := make(map[string]bool, len(old.Checks))
	for _, oc := range old.Checks {
		key := checkKey(oc)
		oldKeys[key] = true
		nc, ok := newByKey[key]
		if !ok {
			add(true, "missing-check", "%s: present in baseline, absent in new report", key)
			continue
		}
		switch {
		case oc.Verdict == nc.Verdict:
		case oc.Verdict == "unknown":
			add(false, "newly-decided", "%s: unknown in baseline, now %s", key, nc.Verdict)
		case nc.Verdict == "unknown":
			add(true, "coverage-loss", "%s: decided %s in baseline, now unknown", key, oc.Verdict)
		default:
			add(true, "verdict-flip", "%s: %s in baseline, now %s", key, oc.Verdict, nc.Verdict)
		}
	}
	newChecks := 0
	for _, c := range new.Checks {
		if !oldKeys[checkKey(c)] {
			newChecks++
		}
	}
	if newChecks > 0 {
		add(false, "new-checks", "%d checks in the new report have no baseline counterpart", newChecks)
	}

	// Per-model aggregates: catch flips in runs whose checks carry no
	// stable key (relate sweeps), and stat growth beyond thresholds.
	for _, name := range sortedNames(old.Models) {
		om := old.Models[name]
		nm, ok := new.Models[name]
		if !ok {
			add(true, "missing-model", "%s: in baseline, absent in new report", name)
			continue
		}
		if om.Checks == nm.Checks && (om.Allowed != nm.Allowed || om.Forbidden != nm.Forbidden) {
			add(true, "verdict-count", "%s: allowed/forbidden %d/%d in baseline, now %d/%d over the same %d checks (regenerate the baseline if the corpus changed intentionally)",
				name, om.Allowed, om.Forbidden, nm.Allowed, nm.Forbidden, om.Checks)
		}
		if opts.MaxStatRatio > 0 {
			statCheck := func(stat string, ov, nv int64) {
				if ov <= 0 || nv-ov < opts.MinStat {
					return
				}
				if ratio := float64(nv) / float64(ov); ratio > opts.MaxStatRatio {
					add(true, "stat-regression", "%s: %s %d → %d (%.2fx > %.2fx threshold)",
						name, stat, ov, nv, ratio, opts.MaxStatRatio)
				}
			}
			statCheck("candidates", om.Candidates, nm.Candidates)
			statCheck("nodes", om.Nodes, nm.Nodes)
		}
	}

	// Required prune parts: the gated report schema includes these
	// attribution counters; their disappearance fails even when every
	// verdict still matches.
	for _, part := range opts.RequirePruneParts {
		var total int64
		for _, m := range new.Models {
			total += m.Prunes[part]
		}
		if total == 0 {
			add(true, "prune-coverage", "no model attributes any prune to required part %q in the new report", part)
		}
	}

	// Required counters: same, but over the raw metrics snapshot (cache
	// hit rates and the like live here, not in prune attribution).
	for _, name := range opts.RequireCounters {
		if new.Metrics.Counters[name] == 0 {
			add(true, "counter-coverage", "required counter %q is zero or absent in the new report", name)
		}
	}

	// Gated span phases: a phase's p95 latency growing past its threshold
	// is a perf regression localized to that phase, a breakdown the
	// run's wall time cannot give. Phases absent from the
	// baseline are notes (the baseline predates the instrumentation);
	// phases absent from the new report are hard.
	for _, phase := range sortedNames(opts.MaxPhaseP95) {
		maxRatio := opts.MaxPhaseP95[phase]
		op, inOld := old.Phases[phase]
		np, inNew := new.Phases[phase]
		if !inNew {
			add(true, "phase-missing", "span phase %q gated but absent from the new report (no span.%s.ns histogram)", phase, phase)
			continue
		}
		if !inOld {
			add(false, "phase-new", "span phase %q has no baseline entry — regenerate the baseline to gate it", phase)
			continue
		}
		if maxRatio <= 0 || op.P95Ns <= 0 || np.P95Ns-op.P95Ns < opts.MinPhaseNs {
			continue
		}
		if ratio := float64(np.P95Ns) / float64(op.P95Ns); ratio > maxRatio {
			add(true, "phase-regression", "span phase %q p95 %dns → %dns (%.2fx > %.2fx threshold)",
				phase, op.P95Ns, np.P95Ns, ratio, maxRatio)
		}
	}

	// Budget outcome: a run that starts hitting its budget lost coverage
	// even if no keyed check went unknown.
	oldUnknown, newUnknown := sumValues(old.Unknowns), sumValues(new.Unknowns)
	if newUnknown > oldUnknown {
		add(true, "budget-outcome", "budget/deadline stops %d in baseline, now %d", oldUnknown, newUnknown)
	}
	return out
}

// AnyHard reports whether the problem list contains a hard failure.
func AnyHard(problems []Problem) bool {
	for _, p := range problems {
		if p.Hard {
			return true
		}
	}
	return false
}

func sumValues(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}
