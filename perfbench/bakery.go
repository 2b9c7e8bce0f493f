package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/algorithms"
	"repro/explore"
	"repro/program"
	"repro/sim"
)

// The bakery-explore workload is the paper's Section 5 experiment as a
// complete state-space exploration: Lamport's Bakery for two processors,
// two rounds, labeled, on simulated RCpc memory, with no early stop. A
// complete exploration does the same work under any search order.
const (
	bakeryStates      = 84448
	bakeryTransitions = 271228
	bakeryViolations  = 930
	// bakeryLimit is the latency limit an exploration must meet to count
	// towards slo_ratio.
	bakeryLimit = 60 * time.Second
	// constructBatch machines are built per set-up sample: one takes
	// tens of microseconds, too little to time alone.
	constructBatch = 2000
)

func newBakery() (*program.Machine, error) {
	return program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, 2, true))
}

// exploration is one timed, checked exploration.
type exploration struct {
	res    explore.Result
	wall   time.Duration
	cpu    time.Duration
	peakMB float64
	allocs uint64 // bytes allocated
	gcs    uint32
}

func exploreOnce(ctx context.Context, tr *tracer) (*exploration, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := startHeapSampler()
	cpu0 := cpuTime()
	start := time.Now()
	root := tr.reserve("bakery.run", 0, "")
	var m *program.Machine
	var err error
	tr.timed("program.newmachine", root, "", func() { m, err = newBakery() })
	if err != nil {
		heap.stop()
		return nil, err
	}
	var res explore.Result
	tr.timed("explore.exhaustive", root, "", func() {
		res, err = explore.ExhaustiveCtx(ctx, m, explore.Options{})
	})
	tr.close(root)
	e := &exploration{res: res, wall: time.Since(start), cpu: cpuTime() - cpu0, peakMB: heap.stop()}
	runtime.ReadMemStats(&m1)
	e.allocs, e.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	return e, nil
}

// check compares an exploration's counts with the known ones.
func (e *exploration) check(rep *report) {
	r := e.res
	if !r.Complete || r.States != bakeryStates || r.Transitions != bakeryTransitions || len(r.Violations) != bakeryViolations {
		rep.failed++
		rep.problem("bakery: complete=%v states=%d transitions=%d violations=%d, want complete %d/%d/%d",
			r.Complete, r.States, r.Transitions, len(r.Violations), bakeryStates, bakeryTransitions, bakeryViolations)
	}
}

func runBakery(ctx context.Context, seconds int, tr *tracer) (*report, error) {
	rep := newReport()
	// Set-up is machine construction, timed in batches; the best batch is
	// reported, as interference on a shared host only adds time.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		for j := 0; j < constructBatch; j++ {
			if _, err := newBakery(); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds()/constructBatch)
	}
	rep.set("setup_s", slices.Min(setups))

	if tr != nil {
		// One untraced and one traced exploration: the second gives the
		// span tree, the pair gives the tracing overhead.
		var runs [2]*exploration
		for i, t := range []*tracer{nil, tr} {
			e, err := exploreOnce(ctx, t)
			if err != nil {
				return nil, err
			}
			rep.attempted++
			e.check(rep)
			runs[i] = e
		}
		plain, traced := runs[0], runs[1]
		self := tr.selfTimes()
		c := rep.counts
		c["explore.states"] = float64(traced.res.States)
		c["explore.transitions"] = float64(traced.res.Transitions)
		c["explore.violations"] = float64(len(traced.res.Violations))
		c["explore.states_per_s"] = float64(plain.res.States) / plain.wall.Seconds()
		c["explore.alloc_mb"] = float64(plain.allocs) / (1 << 20)
		c["explore.gc_cycles"] = float64(plain.gcs)
		c["explore.bytes_per_state"] = plain.peakMB * (1 << 20) / float64(plain.res.States)
		c["trace.unclaimed_us_p50"] = median(self["bakery.run"])
		c["trace.overhead_pct"] = 100 * (traced.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
		c["trace.explore_share_pct"] = 100 * sum(self["explore.exhaustive"]) / sum(spanDurations(tr, "bakery.run"))
		return rep, nil
	}

	// Explore while another exploration fits in the run's time; at least
	// one.
	var walls, cpus []float64
	var peak float64
	begin := time.Now()
	for {
		e, err := exploreOnce(ctx, nil)
		if err != nil {
			return nil, err
		}
		rep.attempted++
		e.check(rep)
		walls = append(walls, e.wall.Seconds())
		cpus = append(cpus, e.cpu.Seconds())
		peak = max(peak, e.peakMB)
		if time.Since(begin)+e.wall > time.Duration(seconds)*time.Second {
			break
		}
	}
	within := 0
	for _, w := range walls {
		if w <= bakeryLimit.Seconds() {
			within++
		}
	}
	rep.set("explore_s", median(walls))
	rep.set("capacity_rps", float64(len(walls))/sum(walls))
	rep.set("p50_ms", 1e3*median(walls))
	rep.set("slo_ratio", float64(within)/float64(len(walls)))
	rep.set("cpu_us_per_check", 1e6*median(cpus))
	rep.set("peak_heap_mb", peak)
	return rep, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// spanDurations lists the wall time, in microseconds, of every span named
// name.
func spanDurations(t *tracer, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}
