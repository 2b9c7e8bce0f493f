package main

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/history"
	"repro/internal/obs"
	"repro/internal/vcache"
	"repro/model"
)

const (
	setupReps = 7
	// minRounds is the fewest measurement rounds a run makes.
	minRounds = 4
	// windowDur is the length of one round's fixed-rate window.
	windowDur = 2500 * time.Millisecond
)

// finishTap collects the service's run_finish events — queue wait and
// solve time per request id — while enabled. It is teed into the server
// only on traced runs, the way -serve -trace taps the trace file.
type finishTap struct {
	on   atomic.Bool
	mu   sync.Mutex
	byID map[string][2]int64
}

func (t *finishTap) Emit(e obs.Event) {
	if e.Type != obs.EvRunFinish || !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.byID[e.Req]
	t.byID[e.Req] = [2]int64{max(old[0], e.WaitUs), max(old[1], e.SolveUs)}
}

func (t *finishTap) get(id string) (wait, solve int64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.byID[id]
	return v[0], v[1], ok
}

// phase is one batch of scheduled checks and their outcomes.
type phase struct {
	reqs    []request
	samples []sample
}

// runService drives one service workload and returns its report.
func runService(ctx context.Context, w *workload, seed int64, seconds int, tr *tracer) (*report, error) {
	rep := newReport()
	var base []string
	if w.pairs != nil {
		var err error
		if base, err = baseVerdicts(ctx, w.pairs); err != nil {
			return nil, err
		}
	}
	var tap *finishTap
	if tr != nil {
		tap = &finishTap{byID: map[string][2]int64{}}
	}
	var phases []phase

	// Set-up: server start plus the fixed warm-up pass, several times; the
	// best is reported, as interference on a shared host only adds time.
	warm, err := w.warmup()
	if err != nil {
		return nil, err
	}
	var svc *service
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, fmt.Errorf("stop server: %w", err)
			}
		}
		runtime.GC()
		start := time.Now()
		var tapSink obs.Sink
		if tap != nil {
			tapSink = tap
		}
		if svc, err = startService(tapSink); err != nil {
			return nil, err
		}
		ss, _ := svc.run(warm, nil)
		setups = append(setups, time.Since(start).Seconds())
		phases = append(phases, phase{warm, ss})
	}
	defer svc.stop() //nolint:errcheck // the success path stops it and checks
	rep.set("setup_s", slices.Min(setups))
	logf("set-up: %d x %d warm-up checks, best %.3fs", setupReps, len(warm), slices.Min(setups))

	total := time.Duration(seconds) * time.Second
	var windows []window
	addWindow := func(f *fixedResult) {
		windows = append(windows, window{fixedResult: f, phase: len(phases)})
		phases = append(phases, f.phase)
	}
	if tr != nil {
		fixed, err := fixedPhase(svc, w, seed, "fixed", total/4)
		if err != nil {
			return nil, err
		}
		addWindow(fixed)
		logf("fixed rate: %d checks at %.0f/s", fixed.checks, w.rate)
		before := svc.cache.Stats()
		tap.on.Store(true)
		traced, err := fixedPhase(svc, w, seed, "fixed-traced", total/4)
		if err != nil {
			return nil, err
		}
		tap.on.Store(false)
		phases = append(phases, traced.phase)
		after := svc.cache.Stats()
		traceService(rep, tr, tap, fixed, traced, before, after)
	} else {
		// Rounds of a fixed-rate window, an engine pass and a capacity
		// probe until the run's time is spent, so each metric samples the
		// whole run, not one stretch of it that a busy spell on a shared
		// host may cover.
		var engine, rates []float64
		for r := 0; ; r++ {
			roundStart := time.Now()
			win, err := fixedPhase(svc, w, seed, fmt.Sprintf("fixed%d", r), windowDur)
			if err != nil {
				return nil, err
			}
			addWindow(win)
			secs, err := engineSeconds(ctx, w, base)
			if err != nil {
				return nil, err
			}
			engine = append(engine, secs)
			rate, probe, err := capacityProbe(svc, w, r)
			if err != nil {
				return nil, err
			}
			rates = append(rates, rate)
			phases = append(phases, probe)
			logf("round %d: %d checks at %.0f/s, engine pass %.3fs, capacity %.0f/s", r, win.checks, w.rate, secs, rate)
			if r+1 >= minRounds && time.Since(began)+time.Since(roundStart) > total {
				break
			}
		}
		rep.set("explore_s", calmerHalf(engine, true))
		rep.set("capacity_rps", calmerHalf(rates, false))
		logf("%d rounds: engine pass %.3fs and capacity %.0f/s, the means of the calmer half",
			len(rates), calmerHalf(engine, true), calmerHalf(rates, false))
	}
	rep.counts["obshttp.failed"] = float64(svc.reg.Counter("svc.check.failed").Value())
	rep.counts["obshttp.shed"] = float64(svc.reg.Counter("svc.check.shed").Value())
	if err := svc.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}

	// The oracle judges every answer the service gave. The set-up passes
	// all send the same warm-up requests, so those are decided once.
	var want [][]string
	unknown := 0
	for i, ph := range phases {
		ws := []string(nil)
		if i > 0 && i < setupReps {
			ws = want[0]
		} else if ws, err = expected(ctx, ph.reqs, base); err != nil {
			return nil, err
		}
		want = append(want, ws)
		for i := range ph.samples {
			s := &ph.samples[i]
			rep.attempted++
			if s.verdict == "unknown" {
				unknown++
			}
			if !s.answered() || s.verdict != ws[i] {
				rep.failed++
				rep.problem("%s: status %d verdict %q (%s) want %q err %v",
					ph.reqs[i].id, s.status, s.verdict, s.reason, ws[i], s.err)
			}
		}
	}
	rep.counts["model.unknown"] += float64(unknown)
	logf("oracle: %d answers judged, %d failed", rep.attempted, rep.failed)

	// The fixed-rate figures are taken over the calmer half of the
	// windows, the ones with the lowest p50, pooled: a busy spell on a
	// shared host slows whole windows.
	good, sent := 0, 0
	var peaks []float64
	for i := range windows {
		x := &windows[i]
		x.lat = latenciesMs(x.samples, want[x.phase])
		x.p50 = percentile(x.lat, 0.50)
		for _, l := range x.lat {
			if l <= float64(w.limit)/1e6 {
				good++
			}
		}
		sent += len(x.lat)
		peaks = append(peaks, x.peakMB)
	}
	slices.SortStableFunc(windows, func(a, b window) int { return cmp.Compare(a.p50, b.p50) })
	calm := windows[:(len(windows)+1)/2]
	var lat []float64
	var cpu time.Duration
	for _, x := range calm {
		lat = append(lat, x.lat...)
		cpu += x.cpu
	}
	rep.set("p50_ms", percentile(lat, 0.50))
	// The tail is reported by traced runs only: on two shared vCPUs the
	// p90 of runs of the same inputs spread by a third to two fifths of
	// its median, past any bound the benchmark may set (NOTES.md).
	rep.counts["loadgen.latency_ms_p90"] = percentile(lat, 0.90)
	rep.set("cpu_us_per_check", float64(cpu.Microseconds())/float64(len(lat)))
	rep.set("slo_ratio", float64(good)/float64(sent))
	rep.set("peak_heap_mb", median(peaks))
	logf("fixed rate: p50 %.3f, p90 %.3f, p99 %.3f ms over the %d checks of the calmer %d of %d windows",
		percentile(lat, 0.50), percentile(lat, 0.90), percentile(lat, 0.99), len(lat), len(calm), len(windows))
	if tr != nil {
		if err := layerPass(ctx, rep, tr, w, seed, base); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// window is a fixed-rate phase of the run and, once the oracle has judged
// it, its latencies.
type window struct {
	*fixedResult
	phase int // index into the run's phases
	lat   []float64
	p50   float64
}

// fixedResult is a fixed-rate phase with its process costs.
type fixedResult struct {
	phase
	t0      time.Time     // the phase's clock origin
	cpu     time.Duration // process CPU over the phase
	cpuUs   float64       // process CPU per scheduled check
	peakMB  float64
	allocKB float64 // heap allocated per check
	gcPer1k float64 // GC cycles per thousand checks
	checks  int
}

// fixedPhase offers the workload's fixed rate for d, open loop.
func fixedPhase(svc *service, w *workload, seed int64, stream string, d time.Duration) (*fixedResult, error) {
	due := schedule(seed, stream, w.rate, d)
	reqs, err := w.relabeledStream(seed, stream, len(due))
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%s: empty schedule", stream)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := startHeapSampler()
	cpu0 := cpuTime()
	ss, t0 := svc.run(reqs, due)
	cpu := cpuTime() - cpu0
	peak := heap.stop()
	runtime.ReadMemStats(&m1)
	n := float64(len(reqs))
	return &fixedResult{
		phase:   phase{reqs, ss},
		t0:      t0,
		cpu:     cpu,
		cpuUs:   float64(cpu.Microseconds()) / n,
		peakMB:  peak,
		allocKB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n,
		gcPer1k: float64(m1.NumGC-m0.NumGC) * 1000 / n,
		checks:  len(reqs),
	}, nil
}

// capacityProbe measures the highest rate the service sustains: the
// generator's connections send back to back, so checks complete as fast
// as the service can answer them, and any higher offered rate makes the
// open-loop backlog grow. Probe r sends probeChecks checks and returns
// the answered checks per second, a
// failed or Unknown check counting for nothing. Probe r's checks are the
// same under every seed: a few slow solves set a short probe's rate, so
// probes drawn afresh would differ by a fifth between runs on their
// inputs alone.
func capacityProbe(svc *service, w *workload, r int) (float64, phase, error) {
	reqs, err := w.stream(fixedSeed, fmt.Sprintf("saturate%d", r), w.probeChecks)
	if err != nil {
		return 0, phase{}, err
	}
	runtime.GC()
	ss, _ := svc.run(reqs, nil)
	first, last, answered := ss[0].start, ss[0].end, 0
	for i := range ss {
		first, last = min(first, ss[i].start), max(last, ss[i].end)
		if ss[i].answered() {
			answered++
		}
	}
	return float64(answered) / (last - first).Seconds(), phase{reqs, ss}, nil
}

// engineSeconds is the wall time of the workload's engine pass: a fixed
// set of its checks, the same under every seed, decided in process
// through vcache.Check, with no HTTP. On relabel-hits the cache is warmed
// with the corpus first, so the pass is canonicalization and cache hits;
// on fresh-misses every check solves.
func engineSeconds(ctx context.Context, w *workload, base []string) (float64, error) {
	reqs, err := w.stream(fixedSeed, "engine", w.engineChecks)
	if err != nil {
		return 0, err
	}
	bctx := budgetCtx(ctx)
	cache := vcache.New(cacheSize, nil)
	for _, p := range w.pairs {
		if _, _, err := vcache.Check(bctx, cache, model.WithWorkers(p.model, 1), p.test.History); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	start := time.Now()
	got := make([]string, len(reqs))
	for i, r := range reqs {
		s, err := history.Parse(r.history())
		if err != nil {
			return 0, err
		}
		m, err := model.ByName(r.model)
		if err != nil {
			return 0, err
		}
		v, _, err := vcache.Check(bctx, cache, model.WithWorkers(m, 1), s)
		if err != nil {
			return 0, err
		}
		got[i] = render(v)
	}
	secs := time.Since(start).Seconds()
	for i, r := range reqs {
		if got[i] == "unknown" || (r.pair >= 0 && got[i] != base[r.pair]) {
			return 0, fmt.Errorf("engine pass: %s: %s on %s: got %s", r.id, r.model, r.history(), got[i])
		}
	}
	return secs, nil
}
