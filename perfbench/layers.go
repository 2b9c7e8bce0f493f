package main

import (
	"context"
	"fmt"
	"time"

	"repro/history"
	"repro/internal/vcache"
	"repro/model"
)

// layerSample is how many of the fixed-rate stream's checks the traced
// layer pass decides directly.
const layerSample = 400

// traceService derives the service-side layer metrics from the traced
// fixed-rate phase: the client's view of each check against the server's
// own wall, queue-wait and solve times.
func traceService(rep *report, tr *tracer, tap *finishTap, plain, traced *fixedResult, before, after vcache.Stats) {
	var lag, httpUs, serverUs, waits []float64
	var wallSum, solveSum float64
	for i := range traced.samples {
		s := &traced.samples[i]
		id := traced.reqs[i].id
		root := tr.add("loadgen.request", 0, id, traced.t0.Add(s.due), traced.t0.Add(s.end))
		tr.add("loadgen.lag", root, id, traced.t0.Add(s.due), traced.t0.Add(s.start))
		tr.add("obshttp.http", root, id, traced.t0.Add(s.start), traced.t0.Add(s.end))
		lag = append(lag, float64(s.start-s.due)/1e6)
		httpUs = append(httpUs, float64((s.end-s.start).Microseconds()-s.wallUs))
		wait, solve, ok := tap.get(id)
		if ok && (wait > 0 || solve > 0) {
			waits = append(waits, float64(wait))
		}
		serverUs = append(serverUs, float64(s.wallUs-wait-solve))
		wallSum += float64(s.wallUs)
		solveSum += float64(solve)
	}
	c := rep.counts
	c["loadgen.lag_ms_p99"] = percentile(lag, 0.99)
	c["obshttp.http_us_p50"] = percentile(httpUs, 0.50)
	c["obshttp.server_us_p50"] = percentile(serverUs, 0.50)
	c["obshttp.wait_us_p50"] = percentile(waits, 0.50)
	c["obshttp.wait_us_p99"] = percentile(waits, 0.99)
	if wallSum > 0 {
		c["trace.model_share_pct"] = 100 * solveSum / wallSum
	}
	if lookups := after.Lookups - before.Lookups; lookups > 0 {
		c["vcache.hit_ratio"] = float64(after.Hits-before.Hits) / float64(lookups)
		c["vcache.evictions_per_check"] = float64(after.Evictions-before.Evictions) / float64(lookups)
	}
	c["runtime.alloc_kb_per_check"] = plain.allocKB
	c["runtime.gc_per_1k_checks"] = plain.gcPer1k
	c["trace.overhead_pct"] = 100 * (traced.cpuUs - plain.cpuUs) / plain.cpuUs
}

// layerPass decides a fixed sample of the workload's checks directly,
// layer by layer, each call wrapped in the benchmark's own span: parse,
// canonicalize, solve under the router (and again under the enumerator
// for the router's speed-up), and the cache's hit and insert paths.
func layerPass(ctx context.Context, rep *report, tr *tracer, w *workload, seed int64, base []string) error {
	reqs, err := w.relabeledStream(seed, "fixed", layerSample)
	if err != nil {
		return err
	}
	bctx := budgetCtx(ctx)
	ectx := model.WithRoute(bctx, model.RouteEnumerate)
	route := model.RouteAuto.String()
	// A cache warmed with the corpus answers relabel-hits' lookups from
	// memory; on fresh-misses every first lookup misses and inserts.
	cache := vcache.New(cacheSize, nil)
	for _, p := range w.pairs {
		if _, _, err := vcache.Check(bctx, cache, model.WithWorkers(p.model, 1), p.test.History); err != nil {
			return err
		}
	}
	autoUs := map[string]float64{}
	enumUs := map[string]float64{}
	solves := map[string]int{}
	var candidates, nodes, unknown int64
	for i, r := range reqs {
		id := fmt.Sprintf("layer.%d", i)
		m, err := model.ByName(r.model)
		if err != nil {
			return err
		}
		m = model.WithWorkers(m, 1)
		root := tr.reserve("layer.check", 0, id)
		text := r.history()
		var s, canon *history.System
		tr.timed("history.parse", root, id, func() { s, err = history.Parse(text) })
		if err != nil {
			return err
		}
		tr.timed("history.canon", root, id, func() { canon, _, err = history.Canonicalize(s) })
		if err != nil {
			return err
		}
		enc := history.Format(canon)
		key := vcache.KeyFor(enc, m.Name(), route)
		var v model.Verdict
		start := time.Now()
		tr.timed("model.solve", root, id, func() { v, err = model.AllowsCtx(bctx, m, canon) })
		autoUs[r.model] += float64(time.Since(start).Microseconds())
		if err != nil {
			return err
		}
		solves[r.model]++
		candidates += v.Progress.Candidates
		nodes += v.Progress.Nodes
		if !v.Decided() {
			unknown++
		}
		if r.pair >= 0 && render(v) != base[r.pair] {
			rep.problem("layer pass: %s: %s verdict %s, base %s", id, r.model, render(v), base[r.pair])
		}
		solved := func() (model.Verdict, error) { return v, nil }
		if r.pair < 0 {
			tr.timed("vcache.miss", root, id, func() { _, _, err = cache.Do(ctx, key, enc, solved) })
			if err != nil {
				return err
			}
		}
		var hit bool
		tr.timed("vcache.hit", root, id, func() { _, hit, err = cache.Do(ctx, key, enc, solved) })
		if err != nil {
			return err
		}
		if !hit {
			rep.problem("layer pass: %s: cache missed a key it holds", id)
		}
		tr.close(root)
		start = time.Now()
		tr.timed("model.enumerate", 0, id, func() { _, err = model.AllowsCtx(ectx, m, canon) })
		enumUs[r.model] += float64(time.Since(start).Microseconds())
		if err != nil {
			return err
		}
	}
	self := tr.selfTimes()
	c := rep.counts
	c["history.parse_us"] = median(self["history.parse"])
	c["history.canon_us"] = median(self["history.canon"])
	c["vcache.hit_us"] = median(self["vcache.hit"])
	c["vcache.miss_overhead_us"] = median(self["vcache.miss"])
	c["model.solve_us_p50"] = percentile(self["model.solve"], 0.50)
	c["model.solve_us_p99"] = percentile(self["model.solve"], 0.99)
	c["model.candidates"] = float64(candidates)
	c["model.nodes"] = float64(nodes)
	c["model.unknown"] += float64(unknown)
	c["trace.unclaimed_us_p50"] = median(self["layer.check"])
	for _, m := range model.All() {
		name := m.Name()
		if n := solves[name]; n > 0 {
			c[metricName("model.solve_us."+name)] = autoUs[name] / float64(n)
			c[metricName("model.route_speedup."+name)] = enumUs[name] / max(autoUs[name], 1)
		}
	}
	return nil
}
