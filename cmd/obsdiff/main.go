// Command obsdiff compares two structured run reports (written by the
// shared -report flag) and decides whether the newer run regressed. Any
// decided verdict that flips between the two reports is a hard failure —
// the checkers changed their answer on the same input; a keyed check
// disappearing, a decided check going unknown, and per-model verdict
// counts shifting fail too. Work growth (candidates, nodes) fails only
// beyond a configurable threshold, so the same command serves both the CI
// regression gate (verdict-exact, stat-tolerant) and local triage. Wall
// time is not compared: two runs' wall times compare hosts as much as
// code.
//
// -max-phase phase=R (repeatable) gates span-phase latency: it compares
// the phases table's estimated p95s. The quantiles come from power-of-two
// histograms (2x-wide buckets), so sensible ratios sit well above 2 — the
// CI gates use ~25x. -min-phase-ns sets the absolute noise floor under
// which growth is ignored.
//
// Usage:
//
//	obsdiff [-max-stat R] [-min-stat N] [-require-prune P]...
//	        [-require-counter C]... [-max-phase P=R]... [-min-phase-ns N]
//	        [-json] baseline.json new.json
//
// Exit status: 0 when the new report passes, 1 on any hard problem,
// 2 on bad usage or unreadable input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// stringList collects a repeatable string flag.
type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

// ratioMap collects a repeatable "name=ratio" flag into a map.
type ratioMap map[string]float64

func (m *ratioMap) String() string {
	var parts []string
	for k, v := range *m {
		parts = append(parts, fmt.Sprintf("%s=%g", k, v))
	}
	return strings.Join(parts, ",")
}

func (m *ratioMap) Set(v string) error {
	name, ratio, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=ratio, got %q", v)
	}
	r, err := strconv.ParseFloat(ratio, 64)
	if err != nil {
		return fmt.Errorf("bad ratio in %q: %w", v, err)
	}
	if *m == nil {
		*m = make(ratioMap)
	}
	(*m)[name] = r
	return nil
}

// run is main without the process exit, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxStat := fs.Float64("max-stat", 1.5,
		"fail when a model's candidates or nodes grow beyond this ratio of the baseline (0 disables)")
	minStat := fs.Int64("min-stat", 1000,
		"ignore stat growth below this absolute delta (noise floor)")
	var requirePrune stringList
	fs.Var(&requirePrune, "require-prune",
		"fail when no model attributes a prune to this part in the new report (repeatable)")
	var requireCounter stringList
	fs.Var(&requireCounter, "require-counter",
		"fail when this registry counter is zero or absent in the new report's metrics snapshot (repeatable)")
	var maxPhase ratioMap
	fs.Var(&maxPhase, "max-phase",
		"fail when this span phase's p95 latency grows beyond name=ratio of the baseline (repeatable; quantiles are 2x-bucket estimates, use ratios well above 2)")
	minPhaseNs := fs.Int64("min-phase-ns", 200000,
		"ignore span-phase growth below this absolute delta in nanoseconds (noise floor)")
	jsonOut := fs.Bool("json", false, "print the problem list as JSON")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: obsdiff [flags] baseline.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	baseline, err := readReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}
	current, err := readReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}
	problems := obs.DiffReports(baseline, current, obs.DiffOptions{
		MaxStatRatio:      *maxStat,
		MinStat:           *minStat,
		RequirePruneParts: requirePrune,
		RequireCounters:   requireCounter,
		MaxPhaseP95:       maxPhase,
		MinPhaseNs:        *minPhaseNs,
	})

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if problems == nil {
			problems = []obs.Problem{}
		}
		enc.Encode(problems) //nolint:errcheck // stdout
	} else {
		for _, p := range problems {
			fmt.Fprintln(stdout, p)
		}
	}

	hard := 0
	for _, p := range problems {
		if p.Hard {
			hard++
		}
	}
	fmt.Fprintf(stdout, "obsdiff: %d checks vs %d, %d problems (%d hard)\n",
		len(baseline.Checks), len(current.Checks), len(problems), hard)
	if hard > 0 {
		return 1
	}
	return 0
}

func readReport(path string) (*obs.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := obs.ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
