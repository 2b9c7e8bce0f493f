// Package cliflags registers the bounding and observability flags shared
// by every command in this repository — -workers, -timeout, -budget,
// -fastpath, -trace, -metrics, -report, -serve, -drain-timeout, -degrade,
// -faults, -cache-size, -pprof — with one help text, and
// wires them into a context: the timeout and work budget bound every check
// made under it, the trace sink receives structured JSONL events, the
// metrics registry collects counters flushed as a JSON snapshot on exit,
// -report writes a structured run report (obs.Report) for cmd/obsdiff, and
// -serve starts the live observability HTTP service for the duration of
// the run — Prometheus /metrics, SSE /trace, /runs, pprof, plus the
// checking service itself: POST /check with tiered admission control,
// bounded by -drain-timeout at shutdown and shedding per -degrade.
// -faults (or FAULT_INJECT in the environment) arms the internal/fault
// chaos points for the whole run.
//
// Usage, from a command's main:
//
//	f := cliflags.Register(flag.CommandLine)
//	flag.Parse()
//	ctx, done, err := f.Setup(context.Background())
//	if err != nil { ... }
//	defer done()
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obshttp"
	"repro/internal/vcache"
	"repro/model"
)

// Flags holds the parsed shared flags.
type Flags struct {
	// Workers sizes worker pools (checker enumeration, sweep
	// classification): 0 = one per CPU, 1 = sequential. The explorer is
	// one sequential search and ignores it.
	Workers int
	// Timeout bounds the whole run by wall clock (0 = none).
	Timeout time.Duration
	// Budget bounds each check's work: max mutual-consistency candidates
	// and max search nodes (0 = none).
	Budget int64
	// FastPath routes each model to its polynomial fast-path procedure
	// when one exists (model.RouteAuto, the default); false pins every
	// check to the exhaustive enumerator (model.RouteEnumerate), the
	// differential oracle the fast paths are gated against.
	FastPath bool
	// Trace names the JSONL trace-event file ("-" = stderr).
	Trace string
	// Metrics names the exit metrics-snapshot file ("-" = stderr).
	Metrics string
	// Report names the structured run-report file ("-" = stderr): the
	// obs.Report JSON artifact cmd/obsdiff compares across runs.
	Report string
	// Serve is the listen address of the live observability HTTP service
	// ("" = off; ":0" picks a free port, printed to stderr). The service
	// also exposes POST /check — membership checking over HTTP with
	// admission control — plus /healthz and /readyz.
	Serve string
	// DrainTimeout bounds -serve's graceful shutdown: how long queued and
	// in-flight POST /check work may finish before being hard-cancelled.
	DrainTimeout time.Duration
	// Degrade selects the service's shed mode: over-capacity checks
	// answer 200 Unknown{reason:"shed"} instead of 429 Too Many Requests.
	Degrade bool
	// Faults arms fault-injection points for chaos runs, e.g.
	// "svc.worker=delay:50ms@p:0.1" (see internal/fault; also readable
	// from the FAULT_INJECT environment variable).
	Faults string
	// CacheSize bounds the content-addressed verdict cache
	// (internal/vcache): histories are canonicalized so relabeled
	// variants collapse onto one solve. The cache serves both the run's
	// own checks and -serve's POST /check; 0 disables it.
	CacheSize int
	// Pprof names the CPU-profile file; with a ".trace" suffix a Go
	// runtime execution trace is written instead.
	Pprof string
	// IncidentDir is where -serve's flight recorder spools sealed incident
	// bundles ("" keeps them in memory; they are still served over
	// /incidents). Bundles replay offline with cmd/obsreplay.
	IncidentDir string
	// AuditEvery arms the verdict cache's hit audit under -serve: every
	// n-th cache hit re-solves in the background and a disagreement seals
	// a cache-divergence incident (0 = off).
	AuditEvery int64
}

// Register installs the shared flags on fs and returns their destination.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Workers, "workers", 0,
		"worker pool size for checkers and sweeps (0 = one per CPU, 1 = sequential); explorations are sequential")
	fs.DurationVar(&f.Timeout, "timeout", 0,
		"wall-clock limit for the whole run (0 = none); exceeding it reports UNKNOWN, not an error")
	fs.Int64Var(&f.Budget, "budget", 0,
		"work budget per check: max candidates and max search nodes (0 = none)")
	fs.BoolVar(&f.FastPath, "fastpath", true,
		"route models to their polynomial fast-path checkers when one exists (false = always enumerate)")
	fs.StringVar(&f.Trace, "trace", "",
		"write structured trace events as JSONL to this file ('-' = stderr)")
	fs.StringVar(&f.Metrics, "metrics", "",
		"write a metrics snapshot as JSON to this file on exit ('-' = stderr)")
	fs.StringVar(&f.Report, "report", "",
		"write a structured run report (verdicts, work, prune attribution, wall time) as JSON to this file on exit ('-' = stderr); compare reports with cmd/obsdiff")
	fs.StringVar(&f.Serve, "serve", "",
		"serve live observability HTTP on this address while the run lasts (':0' picks a free port): POST /check, /metrics (Prometheus), /metrics.json, /trace (SSE), /runs, /healthz, /readyz, /debug/pprof/")
	fs.DurationVar(&f.DrainTimeout, "drain-timeout", 5*time.Second,
		"graceful-shutdown bound for -serve: how long queued and in-flight POST /check work may finish before being hard-cancelled")
	fs.BoolVar(&f.Degrade, "degrade", false,
		"shed over-capacity POST /check work as 200 Unknown{reason:\"shed\"} instead of 429 Too Many Requests")
	fs.StringVar(&f.Faults, "faults", "",
		"arm fault-injection points for chaos runs, e.g. 'svc.worker=delay:50ms@p:0.1,pool.drain=panic:chaos@nth:100' (see internal/fault)")
	fs.IntVar(&f.CacheSize, "cache-size", 0,
		"bound the content-addressed verdict cache to this many canonical histories (0 = no cache); hits skip the NP-hard solve and replay the witness under the caller's labels")
	fs.StringVar(&f.Pprof, "pprof", "",
		"write a CPU profile to this file (a .trace suffix writes a Go execution trace for `go tool trace` instead)")
	fs.StringVar(&f.IncidentDir, "incident-dir", "",
		"spool -serve's sealed incident bundles into this directory (default: in-memory; fetch over /incidents, replay with cmd/obsreplay)")
	fs.Int64Var(&f.AuditEvery, "audit-every", 0,
		"audit every n-th verdict-cache hit under -serve with a background re-solve; a disagreement seals a cache-divergence incident (0 = off)")
	return f
}

// Setup applies the flags to ctx: -timeout and -budget bound it, -trace
// attaches a JSONL event sink, -metrics/-report/-serve attach a shared
// metrics registry (plus the report builder and the live HTTP service,
// which tee into the same event stream), and -pprof starts profiling. The
// returned function tears everything down — stops profiling, flushes and
// closes the trace file, writes the metrics snapshot and the run report,
// shuts the server down — and must be called exactly once, normally
// deferred.
func (f *Flags) Setup(ctx context.Context) (context.Context, func(), error) {
	var down []func() error
	teardown := func() {
		for i := len(down) - 1; i >= 0; i-- {
			if err := down[i](); err != nil {
				fmt.Fprintln(os.Stderr, "cliflags:", err)
			}
		}
	}

	// Fault injection arms first (FAULT_INJECT env, then the -faults
	// flag), so every later layer — including the -serve service — runs
	// under the requested chaos.
	if err := fault.Init(); err != nil {
		teardown()
		return nil, nil, fmt.Errorf("FAULT_INJECT: %w", err)
	}
	if f.Faults != "" {
		if err := fault.Apply(f.Faults); err != nil {
			teardown()
			return nil, nil, fmt.Errorf("-faults: %w", err)
		}
	}

	if f.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.Timeout)
		down = append(down, func() error { cancel(); return nil })
	}
	if f.Budget > 0 {
		ctx = model.WithBudget(ctx, model.Budget{MaxCandidates: f.Budget, MaxNodes: f.Budget})
	}
	if !f.FastPath {
		ctx = model.WithRoute(ctx, model.RouteEnumerate)
	}

	// -metrics, -report and -serve share one registry; the trace file, the
	// report builder and the server's broadcast/run-log share one event
	// stream via a tee. With none of them set, the context carries neither
	// and the engine stays on its nil-probe fast path.
	var reg *obs.Registry
	if f.Metrics != "" || f.Report != "" || f.Serve != "" {
		reg = obs.NewRegistry()
		ctx = obs.WithRegistry(ctx, reg)
	}
	var sinks obs.Tee

	// One verdict cache serves both the run's own checks (litmus.RunCtx
	// picks it off the context) and -serve's POST /check path, so a warmed
	// CLI run and the service it exposes share hits. The hit/miss/evict
	// counters land in the same registry as everything else — and thus in
	// -metrics snapshots and -report artifacts.
	var cache *vcache.Cache
	if f.CacheSize > 0 {
		cache = vcache.New(f.CacheSize, reg)
		ctx = vcache.WithCache(ctx, cache)
	}

	if f.Metrics != "" {
		path := f.Metrics
		down = append(down, func() error {
			w, closeOut, err := openOut(path)
			if err != nil {
				return err
			}
			werr := reg.WriteJSON(w)
			if cerr := closeOut(); werr == nil {
				werr = cerr
			}
			return werr
		})
	}

	if f.Report != "" {
		builder := obs.NewReportBuilder(filepath.Base(os.Args[0]), os.Args[1:])
		sinks = append(sinks, builder)
		path := f.Report
		down = append(down, func() error {
			w, closeOut, err := openOut(path)
			if err != nil {
				return err
			}
			werr := builder.Report(reg).Write(w)
			if cerr := closeOut(); werr == nil {
				werr = cerr
			}
			return werr
		})
	}

	if f.Trace != "" {
		w, closeOut, err := openOut(f.Trace)
		if err != nil {
			teardown()
			return nil, nil, err
		}
		sink := obs.NewJSONL(w)
		sinks = append(sinks, sink)
		down = append(down, func() error {
			if err := sink.Err(); err != nil {
				return fmt.Errorf("trace: %d events written, then: %w", sink.Count(), err)
			}
			return closeOut()
		})
	}

	if f.Serve != "" {
		srv := obshttp.New(reg, 0)
		// Tap the trace file and the report builder into the server's own
		// event path (before EnableCheck captures it): events the service
		// originates — POST /check run records and the per-phase span tree
		// — reach -trace and -report, not just /trace subscribers. The
		// context then carries srv.Sink() alone, which already tees into
		// everything, so each event is delivered exactly once per sink.
		switch len(sinks) {
		case 0:
		case 1:
			srv.Tap(sinks[0])
		default:
			srv.Tap(sinks)
		}
		// The flight recorder is always on for served runs: faults,
		// contained panics, cache-audit divergences and SLO burn seal
		// replayable bundles, spooled to -incident-dir (or memory) and
		// served under /incidents. It must be enabled before EnableCheck
		// so the recorder rides the sink the checker captures.
		if err := srv.EnableIncidents(obshttp.IncidentOptions{
			SpoolDir:   f.IncidentDir,
			AuditEvery: f.AuditEvery,
		}); err != nil {
			teardown()
			return nil, nil, err
		}
		srv.EnableCheck(obshttp.CheckOptions{
			Workers:      f.Workers,
			Degrade:      f.Degrade,
			DrainTimeout: f.DrainTimeout,
			Enumerate:    !f.FastPath,
			Cache:        cache,
		})
		addr, err := srv.Start(f.Serve)
		if err != nil {
			teardown()
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "obs: serving http://%s/ (POST /check, /metrics /trace /runs /incidents /cachez /healthz /readyz /debug/pprof/)\n", addr)
		ctx = obs.WithSink(ctx, srv.Sink())
		down = append(down, func() error {
			// The shutdown budget covers the service drain (bounded by
			// -drain-timeout inside) plus connection teardown.
			sctx, cancel := context.WithTimeout(context.Background(), f.DrainTimeout+5*time.Second)
			defer cancel()
			return srv.Shutdown(sctx)
		})
	} else {
		switch len(sinks) {
		case 0:
		case 1:
			ctx = obs.WithSink(ctx, sinks[0])
		default:
			ctx = obs.WithSink(ctx, sinks)
		}
	}

	if f.Pprof != "" {
		out, err := os.Create(f.Pprof)
		if err != nil {
			teardown()
			return nil, nil, err
		}
		if strings.HasSuffix(f.Pprof, ".trace") {
			if err := rtrace.Start(out); err != nil {
				out.Close()
				teardown()
				return nil, nil, err
			}
			down = append(down, func() error { rtrace.Stop(); return out.Close() })
		} else {
			if err := pprof.StartCPUProfile(out); err != nil {
				out.Close()
				teardown()
				return nil, nil, err
			}
			down = append(down, func() error { pprof.StopCPUProfile(); return out.Close() })
		}
	}

	return ctx, teardown, nil
}

// openOut opens path for writing, with "-" meaning stderr (left open).
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stderr, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
