package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// writeReport materializes a small report to disk, optionally flipping
// one keyed verdict — the regression obsdiff exists to catch.
func writeReport(t *testing.T, dir, name string, flip bool) string {
	t.Helper()
	b := obs.NewReportBuilder("litmus", nil)
	v := "forbidden"
	if flip {
		v = "allowed"
	}
	b.Emit(obs.Event{Type: obs.EvLitmus, Test: "Fig1-SB", Model: "SC", Verdict: v})
	b.Emit(obs.Event{Type: obs.EvLitmus, Test: "Fig1-SB", Model: "TSO", Verdict: "allowed"})
	b.Emit(obs.Event{Type: obs.EvRunFinish, Model: "SC", Verdict: v, Candidates: 10, Nodes: 50})
	b.Emit(obs.Event{Type: obs.EvRunFinish, Model: "TSO", Verdict: "allowed", Candidates: 12, Nodes: 60})
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := b.Report(nil).Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunIdenticalReportsPass(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", false)
	cur := writeReport(t, dir, "cur.json", false)
	var out, errb bytes.Buffer
	if code := run([]string{base, cur}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "0 problems (0 hard)") {
		t.Errorf("summary line missing: %q", out.String())
	}
}

func TestRunVerdictFlipFails(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", false)
	cur := writeReport(t, dir, "cur.json", true)
	var out, errb bytes.Buffer
	if code := run([]string{base, cur}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "verdict-flip") || !strings.Contains(out.String(), "Fig1-SB/SC") {
		t.Errorf("flip not reported: %q", out.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", false)
	cur := writeReport(t, dir, "cur.json", true)
	var out, errb bytes.Buffer
	if code := run([]string{"-json", base, cur}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), `"kind": "verdict-flip"`) {
		t.Errorf("JSON problems missing flip: %q", out.String())
	}
}

func TestRunRequirePrune(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", false)
	cur := writeReport(t, dir, "cur.json", false)
	var out, errb bytes.Buffer
	// Neither fixture report carries fastpath prune counters, so requiring
	// the part must fail the new report.
	if code := run([]string{"-require-prune", "fastpath", base, cur}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "prune-coverage") {
		t.Errorf("prune-coverage not reported: %q", out.String())
	}
}

func TestRunRequireCounter(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", false)
	cur := writeReport(t, dir, "cur.json", false)
	var out, errb bytes.Buffer
	// The fixture reports carry no vcache counters at all, so requiring
	// one must fail the new report.
	if code := run([]string{"-require-counter", "vcache.hits", base, cur}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "counter-coverage") {
		t.Errorf("counter-coverage not reported: %q", out.String())
	}

	// A report whose registry recorded cache hits passes the same gate.
	reg := obs.NewRegistry()
	reg.Counter("vcache.hits").Add(3)
	b := obs.NewReportBuilder("litmus", nil)
	b.Emit(obs.Event{Type: obs.EvLitmus, Test: "Fig1-SB", Model: "SC", Verdict: "forbidden"})
	b.Emit(obs.Event{Type: obs.EvLitmus, Test: "Fig1-SB", Model: "TSO", Verdict: "allowed"})
	b.Emit(obs.Event{Type: obs.EvRunFinish, Model: "SC", Verdict: "forbidden", Candidates: 10, Nodes: 50})
	b.Emit(obs.Event{Type: obs.EvRunFinish, Model: "TSO", Verdict: "allowed", Candidates: 12, Nodes: 60})
	cached := filepath.Join(dir, "cached.json")
	f, err := os.Create(cached)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Report(reg).Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out.Reset()
	if code := run([]string{"-require-counter", "vcache.hits", base, cached}, &out, &errb); code != 0 {
		t.Fatalf("cached report: exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

func TestRunUsageAndIOErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no args: exit = %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &out, &errb); code != 2 {
		t.Errorf("missing files: exit = %d, want 2", code)
	}
	if code := run([]string{"-bogus-flag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
}

// writePhaseReport writes a minimal report whose registry holds one span
// histogram per phase at the given latency.
func writePhaseReport(t *testing.T, dir, name string, phases map[string]int64) string {
	t.Helper()
	reg := obs.NewRegistry()
	for phase, ns := range phases {
		reg.Histogram("span." + phase + ".ns").Observe(ns)
	}
	b := obs.NewReportBuilder("litmus", nil)
	b.Emit(obs.Event{Type: obs.EvRunFinish, Model: "SC", Verdict: "forbidden"})
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := b.Report(reg).Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunMaxPhaseGate(t *testing.T) {
	dir := t.TempDir()
	base := writePhaseReport(t, dir, "base.json", map[string]int64{"solve": 1 << 20})
	same := writePhaseReport(t, dir, "same.json", map[string]int64{"solve": 1 << 20})
	worse := writePhaseReport(t, dir, "worse.json", map[string]int64{"solve": 1 << 28})

	var out, errb bytes.Buffer
	if code := run([]string{"-max-phase", "solve=25", base, same}, &out, &errb); code != 0 {
		t.Fatalf("unchanged phase: exit = %d; stdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	out.Reset()
	if code := run([]string{"-max-phase", "solve=25", base, worse}, &out, &errb); code != 1 {
		t.Fatalf("256x phase regression: exit = %d, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "phase-regression") {
		t.Errorf("phase-regression not reported: %q", out.String())
	}
	// The gated phase vanishing fails even when every verdict matches.
	gone := writePhaseReport(t, dir, "gone.json", nil)
	out.Reset()
	if code := run([]string{"-max-phase", "solve=25", base, gone}, &out, &errb); code != 1 {
		t.Fatalf("missing phase: exit = %d, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "phase-missing") {
		t.Errorf("phase-missing not reported: %q", out.String())
	}
	// A malformed flag value is a usage error.
	out.Reset()
	if code := run([]string{"-max-phase", "solve", base, same}, &out, &errb); code != 2 {
		t.Errorf("bad -max-phase value: exit = %d, want 2", code)
	}
}
