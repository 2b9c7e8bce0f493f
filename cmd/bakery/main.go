// Command bakery reproduces the paper's Section 5 experiment: Lamport's
// Bakery algorithm, with every synchronization access labeled, is run on a
// simulated release-consistent memory. Under RCsc the exhaustive explorer
// proves mutual exclusion over the whole (operational) state space; under
// RCpc it finds an execution with both processors in the critical section,
// prints the schedule and the recorded history, and confirms with the
// non-operational checkers that the history is a legal RCpc history and
// not an RCsc one.
//
// Usage:
//
//	bakery [-memory rcsc|rcpc|sc|tso|tso-fwd|pram|pcg|causal] [-n 2]
//	       [-mode exhaustive|stochastic] [-runs 1000] [-seed 1]
//	       [-algorithm bakery|peterson|dekker|fast|dijkstra|szymanski] [-check]
//	       [-workers N] [-timeout D] [-budget N] [-trace FILE]
//	       [-metrics FILE] [-report FILE] [-serve ADDR] [-pprof FILE]
//
// -workers sizes the confirmation checkers' pools; the exploration is one
// depth-first search. -timeout bounds the exploration (and the
// confirmation checks) by wall clock; a truncated exploration reports why it stopped. -budget bounds the
// confirmation checkers' work. -trace and -metrics stream exploration and
// checker events/counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/algorithms"
	"repro/cmd/internal/cliflags"
	"repro/explore"
	"repro/model"
	"repro/program"
	"repro/sim"
)

func main() {
	memory := flag.String("memory", "rcpc", "memory model to simulate: rcsc, rcpc, sc, tso, tso-fwd, pram, pcg, causal, slow")
	n := flag.Int("n", 2, "number of competing processors (2 for peterson/dekker)")
	mode := flag.String("mode", "exhaustive", "exhaustive or stochastic")
	runs := flag.Int("runs", 1000, "stochastic runs")
	seed := flag.Int64("seed", 1, "stochastic seed")
	algo := flag.String("algorithm", "bakery", "bakery, peterson, dekker, fast, dijkstra or szymanski")
	check := flag.Bool("check", true, "validate a violating history against the RCsc/RCpc checkers")
	shared := cliflags.Register(flag.CommandLine)
	flag.Parse()
	workers := &shared.Workers

	ctx, done, err := shared.Setup(context.Background())
	if err != nil {
		fatal(err)
	}
	defer done()

	labeled := strings.HasPrefix(*memory, "rc")
	mkMem := memoryFactory(*memory)
	progs, err := buildProgs(*algo, *n, labeled)
	if err != nil {
		fatal(err)
	}
	mk := func() (*program.Machine, error) { return program.NewMachine(mkMem(*n), progs) }

	fmt.Printf("algorithm=%s n=%d memory=%s labeled=%v mode=%s\n\n", *algo, *n, *memory, labeled, *mode)

	var violation *explore.Violation
	switch *mode {
	case "exhaustive":
		m, err := mk()
		if err != nil {
			fatal(err)
		}
		res, err := explore.ExhaustiveCtx(ctx, m, explore.Options{StopAtFirst: true})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("explored %d states, %d transitions (complete=%v, terminal=%d)\n",
			res.States, res.Transitions, res.Complete, res.TerminalStates)
		if len(res.Violations) == 0 {
			if res.Complete {
				fmt.Println("RESULT: mutual exclusion HOLDS in every reachable state (exhaustive proof)")
			} else {
				fmt.Printf("RESULT: no violation found, but exploration was truncated (%s)\n", res.Incomplete)
			}
			return
		}
		violation = &res.Violations[0]
	case "stochastic":
		count, first, err := explore.Stochastic(mk, *runs, *seed, explore.Options{PInternal: 0.15})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("RESULT: %d/%d runs violated mutual exclusion\n", count, *runs)
		if count == 0 {
			return
		}
		violation = first
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	fmt.Printf("\nVIOLATION: %v\n", violation.Err)
	fmt.Printf("schedule (%d choices): %s\n", len(violation.Trace), strings.Join(violation.Trace, ", "))
	fmt.Printf("\nrecorded history (tagged values):\n%s\n", violation.History)

	if !*check || !labeled {
		return
	}
	for _, m := range []model.Model{model.RCpc, model.RCsc} {
		m = model.WithWorkers(m, *workers)
		v, err := model.AllowsCtx(ctx, m, violation.History)
		if err != nil {
			fmt.Printf("%s checker: error: %v\n", m.Name(), err)
			continue
		}
		if !v.Decided() {
			fmt.Printf("%s checker: UNKNOWN (%s) after %d candidates, %d nodes\n",
				m.Name(), v.Unknown, v.Progress.Candidates, v.Progress.Nodes)
			continue
		}
		fmt.Printf("%s checker: allowed=%v\n", m.Name(), v.Allowed)
	}
	fmt.Println("\n(the paper's Section 5 claim: the violating history is a legal RCpc history")
	fmt.Println(" but not an RCsc one — RCsc and RCpc differ for read/write coordination)")
}

func memoryFactory(name string) func(int) sim.Memory {
	switch name {
	case "sc":
		return func(n int) sim.Memory { return sim.NewSC(n) }
	case "tso":
		return func(n int) sim.Memory { return sim.NewTSONoForward(n) }
	case "tso-fwd":
		return func(n int) sim.Memory { return sim.NewTSO(n) }
	case "pram":
		return func(n int) sim.Memory { return sim.NewPRAM(n) }
	case "pcg":
		return func(n int) sim.Memory { return sim.NewPCG(n) }
	case "causal":
		return func(n int) sim.Memory { return sim.NewCausal(n) }
	case "rcsc":
		return func(n int) sim.Memory { return sim.NewRCsc(n) }
	case "rcpc":
		return func(n int) sim.Memory { return sim.NewRCpc(n) }
	case "slow":
		return func(n int) sim.Memory { return sim.NewSlow(n) }
	default:
		fatal(fmt.Errorf("unknown memory %q", name))
		return nil
	}
}

func buildProgs(algo string, n int, labeled bool) ([][]program.Stmt, error) {
	switch algo {
	case "bakery":
		return algorithms.Bakery(n, 1, labeled), nil
	case "peterson":
		if n != 2 {
			return nil, fmt.Errorf("peterson requires -n 2")
		}
		return algorithms.Peterson(1, labeled), nil
	case "dekker":
		if n != 2 {
			return nil, fmt.Errorf("dekker requires -n 2")
		}
		return algorithms.Dekker(1, labeled), nil
	case "fast":
		if n != 2 {
			return nil, fmt.Errorf("fast (Lamport's fast mutex) requires -n 2")
		}
		return algorithms.LamportFast(labeled), nil
	case "dijkstra":
		return algorithms.Dijkstra(n, labeled), nil
	case "szymanski":
		return algorithms.Szymanski(n, labeled), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bakery:", err)
	os.Exit(1)
}
