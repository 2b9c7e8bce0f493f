package obs

import (
	"strings"
	"testing"
)

// buildReport assembles a small report through the public Sink surface —
// the same path cliflags drives.
func buildReport(t *testing.T, flip bool, extraNodes int64) *Report {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("check.TSO.memo_hits").Add(11)
	reg.Counter("check.TSO.prune.po").Add(5)
	reg.Counter("check.TSO.prune.value").Add(2)

	b := NewReportBuilder("litmus", []string{"-workers", "1"})
	b.Emit(Event{Type: EvCandidate}) // high-rate noise: must be ignored
	b.Emit(Event{Type: EvRunFinish, Model: "TSO", Verdict: "allowed", Candidates: 10, Nodes: 100 + extraNodes})
	b.Emit(Event{Type: EvRunFinish, Model: "TSO", Verdict: "forbidden", Candidates: 20, Nodes: 200})
	b.Emit(Event{Type: EvRunFinish, Model: "SC", Verdict: "unknown"})
	b.Emit(Event{Type: EvBudgetStop, Reason: "deadline"})
	sbVerdict := "allowed"
	if flip {
		sbVerdict = "forbidden"
	}
	b.Emit(Event{Type: EvLitmus, Test: "Fig1-SB", Model: "TSO", Verdict: sbVerdict, Frontier: 4})
	b.Emit(Event{Type: EvLitmus, Test: "Fig1-SB", Model: "SC", Verdict: "unknown"})
	b.Emit(Event{Type: EvExploreFinish, States: 50, Transitions: 120})
	b.Emit(Event{Type: EvViolation, Detail: "mutual exclusion"})
	return b.Report(reg)
}

func TestReportBuilder(t *testing.T) {
	r := buildReport(t, false, 0)
	if r.Schema != ReportSchema || r.Tool != "litmus" {
		t.Errorf("schema/tool = %d/%q", r.Schema, r.Tool)
	}
	if len(r.Checks) != 2 {
		t.Fatalf("checks = %d, want 2 (litmus events only)", len(r.Checks))
	}
	tso := r.Models["TSO"]
	if tso.Checks != 2 || tso.Allowed != 1 || tso.Forbidden != 1 ||
		tso.Candidates != 30 || tso.Nodes != 300 {
		t.Errorf("TSO summary = %+v", tso)
	}
	if tso.MemoHits != 11 {
		t.Errorf("TSO memo hits = %d, want 11 (from registry)", tso.MemoHits)
	}
	if tso.Prunes["po"] != 5 || tso.Prunes["value"] != 2 {
		t.Errorf("TSO prune attribution = %v", tso.Prunes)
	}
	if sc := r.Models["SC"]; sc.Unknown != 1 {
		t.Errorf("SC summary = %+v, want 1 unknown", sc)
	}
	if r.Unknowns["deadline"] != 1 {
		t.Errorf("unknowns = %v", r.Unknowns)
	}
	if r.Explore == nil || r.Explore.States != 50 || r.Explore.Violations != 1 {
		t.Errorf("explore = %+v", r.Explore)
	}
	if r.Build.GoVersion == "" || r.Build.NumCPU < 1 {
		t.Errorf("build info = %+v", r.Build)
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := buildReport(t, false, 0)
	var buf strings.Builder
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Checks) != len(r.Checks) || got.Models["TSO"].Candidates != 30 {
		t.Errorf("round-trip lost data: %+v", got)
	}
}

func TestDiffReportsClean(t *testing.T) {
	old := buildReport(t, false, 0)
	cur := buildReport(t, false, 0)
	problems := DiffReports(old, cur, DiffOptions{MaxStatRatio: 1.5})
	if AnyHard(problems) {
		t.Errorf("identical reports produced hard problems: %v", problems)
	}
}

func TestDiffReportsVerdictFlip(t *testing.T) {
	old := buildReport(t, false, 0)
	cur := buildReport(t, true, 0)
	problems := DiffReports(old, cur, DiffOptions{})
	if !AnyHard(problems) {
		t.Fatalf("flip not detected: %v", problems)
	}
	found := false
	for _, p := range problems {
		if p.Kind == "verdict-flip" && strings.Contains(p.Detail, "Fig1-SB/TSO") {
			found = true
		}
	}
	if !found {
		t.Errorf("no verdict-flip problem for Fig1-SB/TSO: %v", problems)
	}
}

func TestDiffReportsStatThreshold(t *testing.T) {
	old := buildReport(t, false, 0)
	grown := buildReport(t, false, 5000)
	// Below the ratio → clean; above → hard; disabled → clean.
	if ps := DiffReports(old, grown, DiffOptions{MaxStatRatio: 20, MinStat: 1}); AnyHard(ps) {
		t.Errorf("20x threshold tripped by 17x growth: %v", ps)
	}
	ps := DiffReports(old, grown, DiffOptions{MaxStatRatio: 1.5, MinStat: 1})
	if !AnyHard(ps) {
		t.Errorf("1.5x threshold missed 17x node growth: %v", ps)
	}
	if ps := DiffReports(old, grown, DiffOptions{}); AnyHard(ps) {
		t.Errorf("disabled stat checking still failed: %v", ps)
	}
	// MinStat suppresses small absolute growth regardless of ratio.
	if ps := DiffReports(old, grown, DiffOptions{MaxStatRatio: 1.5, MinStat: 100000}); AnyHard(ps) {
		t.Errorf("MinStat floor did not suppress: %v", ps)
	}
}

func TestDiffReportsCoverageLoss(t *testing.T) {
	old := buildReport(t, false, 0)
	cur := buildReport(t, false, 0)
	// Decided baseline check goes unknown: hard coverage loss.
	cur.Checks[0].Verdict = "unknown"
	ps := DiffReports(old, cur, DiffOptions{})
	if !AnyHard(ps) || !hasKind(ps, "coverage-loss") {
		t.Errorf("decided→unknown not flagged: %v", ps)
	}
	// The reverse direction is an improvement, not a failure.
	ps = DiffReports(cur, old, DiffOptions{})
	if hasKind(ps, "verdict-flip") {
		t.Errorf("unknown→decided misread as a flip: %v", ps)
	}
	for _, p := range ps {
		if p.Kind == "newly-decided" && p.Hard {
			t.Errorf("newly-decided marked hard: %v", p)
		}
	}
}

func TestDiffReportsMissingCheckAndModel(t *testing.T) {
	old := buildReport(t, false, 0)
	cur := buildReport(t, false, 0)
	cur.Checks = cur.Checks[:1]
	delete(cur.Models, "SC")
	// The SC run_finish still counted an unknown stop in cur.Unknowns; keep
	// budget outcomes equal so only the structural problems fire.
	ps := DiffReports(old, cur, DiffOptions{})
	if !hasKind(ps, "missing-check") || !hasKind(ps, "missing-model") {
		t.Errorf("missing check/model not flagged: %v", ps)
	}
}

func TestDiffReportsBudgetOutcome(t *testing.T) {
	old := buildReport(t, false, 0)
	cur := buildReport(t, false, 0)
	cur.Unknowns["budget"] = 3
	ps := DiffReports(old, cur, DiffOptions{})
	if !hasKind(ps, "budget-outcome") || !AnyHard(ps) {
		t.Errorf("budget outcome growth not flagged: %v", ps)
	}
}

func hasKind(ps []Problem, kind string) bool {
	for _, p := range ps {
		if p.Kind == kind {
			return true
		}
	}
	return false
}

// phaseReport builds a report whose registry carries one span histogram
// per (phase, p95-ish latency) pair; spanNs is observed once so the
// estimated quantiles all land in its bucket.
func phaseReport(t *testing.T, phases map[string]int64) *Report {
	t.Helper()
	reg := NewRegistry()
	for phase, ns := range phases {
		reg.Histogram("span." + phase + ".ns").Observe(ns)
	}
	b := NewReportBuilder("litmus", nil)
	b.Emit(Event{Type: EvRunFinish, Model: "TSO", Verdict: "allowed"})
	return b.Report(reg)
}

func TestReportPhasesTable(t *testing.T) {
	r := phaseReport(t, map[string]int64{"solve": 1 << 20, "cache.lookup": 1 << 10})
	if len(r.Phases) != 2 {
		t.Fatalf("phases = %v, want solve and cache.lookup", r.Phases)
	}
	solve := r.Phases["solve"]
	if solve.Count != 1 || solve.SumNs != 1<<20 {
		t.Errorf("solve = %+v, want count 1 sum %d", solve, 1<<20)
	}
	if solve.P50Ns < 1<<19 || solve.P50Ns > 1<<21 {
		t.Errorf("solve p50 = %d, want within one power-of-two bucket of %d", solve.P50Ns, 1<<20)
	}
	if solve.P50Ns > solve.P95Ns || solve.P95Ns > solve.P99Ns {
		t.Errorf("solve quantiles not monotone: %+v", solve)
	}
	// Non-span histograms must not leak into the table.
	reg := NewRegistry()
	reg.Histogram("check.TSO.duration_us").Observe(5)
	if got := phaseTable(reg.Snapshot()); got != nil {
		t.Errorf("non-span histogram produced phases: %v", got)
	}
	// Round-trip: the table survives Write/ReadReport for obsdiff.
	var buf strings.Builder
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Phases["solve"].SumNs != 1<<20 {
		t.Errorf("round-trip lost phases: %+v", got.Phases)
	}
}

func TestDiffReportsPhaseGate(t *testing.T) {
	old := phaseReport(t, map[string]int64{"solve": 1 << 20})
	same := phaseReport(t, map[string]int64{"solve": 1 << 20})
	grown := phaseReport(t, map[string]int64{"solve": 1 << 26})

	gate := DiffOptions{MaxPhaseP95: map[string]float64{"solve": 25}, MinPhaseNs: 1000}
	if ps := DiffReports(old, same, gate); AnyHard(ps) {
		t.Errorf("unchanged phase tripped the gate: %v", ps)
	}
	ps := DiffReports(old, grown, gate)
	if !AnyHard(ps) {
		t.Fatalf("64x phase growth passed a 25x gate: %v", ps)
	}
	found := false
	for _, p := range ps {
		if p.Kind == "phase-regression" && p.Hard && strings.Contains(p.Detail, `"solve"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("no phase-regression problem: %v", ps)
	}

	// The absolute noise floor suppresses ratio breaches on fast phases.
	if ps := DiffReports(old, grown, DiffOptions{MaxPhaseP95: map[string]float64{"solve": 25}, MinPhaseNs: 1 << 30}); AnyHard(ps) {
		t.Errorf("MinPhaseNs floor did not suppress: %v", ps)
	}

	// A gated phase vanishing from the new report is hard.
	empty := phaseReport(t, nil)
	ps = DiffReports(old, empty, gate)
	hardMissing := false
	for _, p := range ps {
		if p.Kind == "phase-missing" && p.Hard {
			hardMissing = true
		}
	}
	if !hardMissing {
		t.Errorf("missing gated phase not hard: %v", ps)
	}

	// A baseline predating the instrumentation only notes the new phase.
	ps = DiffReports(empty, grown, gate)
	if AnyHard(ps) {
		t.Errorf("phase absent from baseline failed hard: %v", ps)
	}
	noted := false
	for _, p := range ps {
		if p.Kind == "phase-new" && !p.Hard {
			noted = true
		}
	}
	if !noted {
		t.Errorf("phase absent from baseline not noted: %v", ps)
	}
}
