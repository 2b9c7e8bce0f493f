// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives a real in-process obshttp checking server over
// loopback HTTP with seeded open-loop load, or the Bakery state-space
// explorer directly, checks every answer, and prints its metrics by name
// with their units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fresh-misses --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh --workload bakery-explore --seed 1 --seconds 45 --spread 5
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// from a separate traced run. --spread k runs the workload k times with
// seeds seed..seed+k-1 and prints each metric's median, quartiles and
// (max-min)/median. NOTES.md defines the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

var workloads = []string{"relabel-hits", "fresh-misses", "bakery-explore"}

func main() {
	workload := flag.String("workload", "", "relabel-hits, fresh-misses or bakery-explore")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 45, "how long one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spread := flag.Int("spread", 0, "run the workload this many times with consecutive seeds and print each metric's spread")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *spread); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// spanDir is where a traced run writes its spans, under the checkout's
// build directory.
const spanDir = ".bench_build"

func run(workload string, seed int64, seconds, trace int, spread int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if spread > 0 {
		return spreadMode(workload, seed, seconds, trace, spread)
	}
	ctx := context.Background()
	var tr *tracer
	if trace == 1 {
		tr = newTracer()
	}
	var rep *report
	var err error
	if w, ok := serviceWorkload(workload); ok {
		rep, err = runService(ctx, w, seed, seconds, tr)
	} else if workload == "bakery-explore" {
		rep, err = runBakery(ctx, seconds, tr)
	} else {
		return fmt.Errorf("unknown --workload %q (have %v)", workload, workloads)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
		if err := tr.write(path); err != nil {
			return err
		}
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", workload, seed, seconds, trace)
	fmt.Printf("stamp %s\n", stampJSON())
	if err := rep.emit(os.Stdout, tr != nil); err != nil {
		return err
	}
	if !rep.correct() {
		return fmt.Errorf("%d of %d operations failed; %d problems", rep.failed, rep.attempted, len(rep.problems))
	}
	return nil
}

var began = time.Now()

// logf reports progress on standard error, stamped with the time since
// the process started.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.1fs] %s\n", time.Since(began).Seconds(), fmt.Sprintf(format, args...))
}

// stamp records what produced a result: the host's CPUs, the scheduler's
// setting, the toolchain and the source revision when the build knew it.
type stamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func stampJSON() string {
	s := stamp{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				s.Dirty = kv.Value == "true"
			}
		}
	}
	data, _ := json.Marshal(s) // a struct of strings, ints and bools always marshals
	return string(data)
}
