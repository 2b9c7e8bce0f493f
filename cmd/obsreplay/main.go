// Command obsreplay replays incident bundles sealed by the flight
// recorder (internal/incident): it re-runs the bundle's recorded history
// through model.AllowsCtx under the recorded route and budget, and diffs
// verdict, witness and phase profile against the recording. A bundle is
// the operational analogue of a machine-checkable witness — obsreplay is
// its checker.
//
//	obsreplay [-json] [-timeout D] [-strict] BUNDLE
//
// BUNDLE is a bundle file, "-" for stdin, or an http(s) URL — typically a
// served incident, e.g. http://host/incidents/inc-20260807T…-0001.
//
// With -record, obsreplay instead seals a fresh bundle locally by running
// one check through the real recorder — how the checked-in CI sample
// bundle is produced, and a quick way to make a reproducible artifact out
// of a history someone pasted into a bug report:
//
//	obsreplay -record 'w(x)1 r(y)0 | w(y)1 r(x)0' -model SC -out sample.json
//
// Exit status: 0 when the replay reproduces the recording (or recovers a
// verdict the recording had to withhold), 1 on a divergence or an invalid
// witness (with -strict, also when a decided recording fails to
// reproduce), 2 on bad usage or unreadable input.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/history"
	"repro/internal/incident"
	"repro/internal/obs"
	"repro/model"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		asJSON  = fs.Bool("json", false, "emit the replay result as JSON")
		timeout = fs.Duration("timeout", 30*time.Second, "overall replay budget (on top of the bundle's own recorded deadline)")
		strict  = fs.Bool("strict", false, "also fail when a decided recording does not reproduce (e.g. the replay ran out of budget)")

		record  = fs.String("record", "", "seal a fresh bundle for this history instead of replaying one")
		mdl     = fs.String("model", "", "memory model for -record (model.ByName)")
		route   = fs.String("route", "auto", "route for -record: auto or enumerate")
		maxCand = fs.Int64("max-candidates", 1<<16, "candidate budget for -record (0 = none)")
		maxNode = fs.Int64("max-nodes", 1<<20, "search-node budget for -record (0 = none)")
		ddl     = fs.Duration("deadline", 2*time.Second, "deadline for -record's solve (0 = none)")
		reason  = fs.String("reason", "recorded by obsreplay", "trigger detail for -record")
		out     = fs.String("out", "-", "output file for -record ('-' = stdout)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: obsreplay [-json] [-timeout D] [-strict] BUNDLE\n")
		fmt.Fprintf(stderr, "       obsreplay -record HISTORY -model NAME [-route R] [-out FILE]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *record != "" {
		return doRecord(stderr, *record, *mdl, *route, *maxCand, *maxNode, *ddl, *reason, *out)
	}

	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	data, err := loadBundle(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "obsreplay:", err)
		return 2
	}
	b, err := incident.Decode(data)
	if err != nil {
		fmt.Fprintln(stderr, "obsreplay:", err)
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := incident.Replay(ctx, b)
	if err != nil {
		fmt.Fprintln(stderr, "obsreplay:", err)
		return 2
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res) //nolint:errcheck
	} else {
		printResult(stdout, b, res)
	}

	switch {
	case res.Divergence != "":
		fmt.Fprintf(stdout, "FAIL: %s\n", res.Divergence)
		return 1
	case res.WitnessError != "":
		fmt.Fprintf(stdout, "FAIL: recorded witness invalid: %s\n", res.WitnessError)
		return 1
	case res.ReplayWitnessError != "":
		fmt.Fprintf(stdout, "FAIL: replay witness invalid: %s\n", res.ReplayWitnessError)
		return 1
	case *strict && res.Note != "":
		fmt.Fprintf(stdout, "FAIL (strict): %s\n", res.Note)
		return 1
	}
	return 0
}

// loadBundle reads a bundle from a file, stdin ("-"), or an http(s) URL.
func loadBundle(src string) ([]byte, error) {
	switch {
	case src == "-":
		return io.ReadAll(os.Stdin)
	case strings.HasPrefix(src, "http://"), strings.HasPrefix(src, "https://"):
		resp, err := http.Get(src)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s: %s", src, resp.Status, strings.TrimSpace(string(data)))
		}
		return data, nil
	default:
		return os.ReadFile(src)
	}
}

// printResult renders the human-readable replay report.
func printResult(w io.Writer, b *incident.Bundle, res *incident.Result) {
	fmt.Fprintf(w, "bundle   %s sealed %s\n", b.ID, b.SealedAt)
	fmt.Fprintf(w, "trigger  %s", b.Trigger.Kind)
	if b.Trigger.Point != "" {
		fmt.Fprintf(w, " at %s", b.Trigger.Point)
	}
	if b.Trigger.Fires > 1 {
		fmt.Fprintf(w, " (x%d)", b.Trigger.Fires)
	}
	if b.Trigger.Detail != "" {
		fmt.Fprintf(w, ": %s", b.Trigger.Detail)
	}
	fmt.Fprintln(w)
	c := b.Check
	fmt.Fprintf(w, "check    %s over %q (tier %s, route %s)\n", res.Model, c.History, c.Tier, res.Route)

	rec := res.RecordedVerdict
	if rec == "" {
		rec = "(none)"
	} else if res.RecordedReason != "" {
		rec += " (" + res.RecordedReason + ")"
	}
	rep := res.ReplayVerdict
	if res.ReplayReason != "" {
		rep += " (" + res.ReplayReason + ")"
	}
	state := "REPRODUCED"
	switch {
	case res.Divergence != "":
		state = "DIVERGED"
	case res.Recovered:
		state = "RECOVERED"
	case res.Note != "":
		state = "INCONCLUSIVE"
	}
	fmt.Fprintf(w, "verdict  recorded %s, replay %s — %s\n", rec, rep, state)
	if res.Note != "" {
		fmt.Fprintf(w, "note     %s\n", res.Note)
	}
	if len(b.Check.Explanation) > 0 {
		v := "INVALID"
		if res.WitnessValidated {
			v = "valid"
		}
		fmt.Fprintf(w, "witness  recorded explanation %s", v)
		if res.ReplayWitnessValidated {
			fmt.Fprintf(w, "; replay re-certified")
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "work     %d candidates, %d nodes, %dus wall\n", res.Candidates, res.Nodes, res.WallUs)
	if len(res.Phases) > 0 {
		fmt.Fprintf(w, "phases   (recorded -> replayed, us)\n")
		for _, p := range res.Phases {
			fmt.Fprintf(w, "  %-12s %8s -> %8s\n", p.Phase, phaseUs(p.RecordedUs), phaseUs(p.ReplayedUs))
		}
	}
}

func phaseUs(v int64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// doRecord seals a fresh bundle by running one check through the real
// flight recorder, so the artifact is exactly what a served incident
// looks like.
func doRecord(stderr io.Writer, hist, mdl, routeName string, maxCand, maxNode int64, ddl time.Duration, reason, out string) int {
	if mdl == "" {
		fmt.Fprintln(stderr, "obsreplay: -record needs -model")
		return 2
	}
	sys, err := history.Parse(hist)
	if err != nil {
		fmt.Fprintln(stderr, "obsreplay:", err)
		return 2
	}
	m, err := model.ByName(mdl)
	if err != nil {
		fmt.Fprintln(stderr, "obsreplay:", err)
		return 2
	}
	m = model.WithWorkers(m, 1)
	route, err := model.ParseRoute(routeName)
	if err != nil {
		fmt.Fprintln(stderr, "obsreplay:", err)
		return 2
	}

	reg := obs.NewRegistry()
	spool, err := incident.NewSpool("", 1, reg)
	if err != nil {
		fmt.Fprintln(stderr, "obsreplay:", err)
		return 2
	}
	rec := incident.NewRecorder(incident.Config{}, spool, reg)

	const req = "obsreplay-record"
	ctx := model.WithRoute(context.Background(), route)
	ctx = obs.WithRegistry(ctx, reg)
	if maxCand > 0 || maxNode > 0 {
		ctx = model.WithBudget(ctx, model.Budget{MaxCandidates: maxCand, MaxNodes: maxNode})
	}
	if ddl > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ddl)
		defer cancel()
	}
	rec.NoteCheck(req, incident.CheckInfo{
		History:       hist,
		Model:         m.Name(),
		Tier:          "cli",
		Route:         route.String(),
		MaxCandidates: maxCand,
		MaxNodes:      maxNode,
		DeadlineMs:    ddl.Milliseconds(),
	})
	if canon, _, cerr := history.Canonicalize(sys); cerr == nil {
		rec.NoteCanonical(req, history.Format(canon))
	}

	sp := obs.NewSpan(rec, reg, "solve", req)
	start := time.Now()
	v, err := model.AllowsCtx(sp.Context(ctx), m, sys)
	sp.End()
	if err != nil {
		fmt.Fprintln(stderr, "obsreplay:", err)
		return 2
	}
	wallUs := time.Since(start).Microseconds()
	// The service's rendering, explanation included: a bundle sealed here
	// records exactly what a served check would. A decided verdict whose
	// explanation cannot be built is still recorded, without it.
	info, _ := incident.Outcome(m, sys, v, true)
	info.WallUs = wallUs
	rec.NoteVerdict(req, info)

	id := rec.CaptureNow(req, incident.Trigger{Kind: "manual", Detail: reason})
	if id == "" {
		fmt.Fprintln(stderr, "obsreplay: capture failed to seal")
		return 2
	}
	raw, _, err := spool.Raw(id)
	if err != nil {
		fmt.Fprintln(stderr, "obsreplay:", err)
		return 2
	}
	if out == "" || out == "-" {
		os.Stdout.Write(raw) //nolint:errcheck
		return 0
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		fmt.Fprintln(stderr, "obsreplay:", err)
		return 2
	}
	fmt.Fprintf(stderr, "obsreplay: sealed %s (%s, %s) -> %s\n", id, m.Name(), info.Verdict, out)
	return 0
}
