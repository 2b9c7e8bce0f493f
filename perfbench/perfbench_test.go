package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"relabel-hits", "fresh-misses"} {
		w, _ := serviceWorkload(name)
		for _, gen := range []func(int64, string, int) ([]request, error){w.stream, w.relabeledStream} {
			a, err := gen(7, "fixed", 40)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := gen(7, "fixed", 40)
			c, _ := gen(8, "fixed", 40)
			differs := false
			for i := range a {
				if !bytes.Equal(a[i].body, b[i].body) {
					t.Fatalf("%s: request %d differs under the same seed:\n%s\n%s", name, i, a[i].body, b[i].body)
				}
				differs = differs || !bytes.Equal(a[i].body, c[i].body)
			}
			if !differs {
				t.Errorf("%s: seeds 7 and 8 gave identical request bodies", name)
			}
		}
		sa := schedule(7, "fixed", w.rate, time.Second)
		if !reflect.DeepEqual(sa, schedule(7, "fixed", w.rate, time.Second)) {
			t.Errorf("%s: arrival schedule differs under the same seed", name)
		}
		if reflect.DeepEqual(sa, schedule(8, "fixed", w.rate, time.Second)) {
			t.Errorf("%s: seeds 7 and 8 gave identical arrival schedules", name)
		}
		if n := len(sa); float64(n) < 0.8*w.rate || float64(n) > 1.2*w.rate {
			t.Errorf("%s: %d arrivals in a second at rate %.0f", name, n, w.rate)
		}
	}
}

func TestFreshMissesAreDistinct(t *testing.T) {
	w := freshMisses()
	reqs, err := w.stream(1, "fixed", 500)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range reqs {
		if seen[r.history()] {
			t.Fatalf("history repeated within 500 requests:\n%s", r.history())
		}
		seen[r.history()] = true
	}
}

// TestMetricNames pins metric-name hygiene: every name is made of
// [A-Za-z0-9_.-], carries a unit, is used once, and BENCHMARK.json
// lists exactly the same names with the same units.
func TestMetricNames(t *testing.T) {
	if got := metricName("model.solve_us.Causal+Coh"); got != "model.solve_us.Causal_Coh" {
		t.Errorf("metricName kept a '+': %s", got)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		seen := map[string]bool{}
		for _, d := range defs {
			if !validName.MatchString(d.name) || !validUnit.MatchString(d.unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s: %s listed twice", kind, d.name)
			}
			seen[d.name] = true
		}
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s %s, the benchmark emits %s %s",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer(), bench.PerLayer)
}

func TestEmitPrintsEveryMetric(t *testing.T) {
	rep := newReport()
	for _, d := range endToEnd {
		rep.set(d.name, 1.5)
	}
	rep.attempted = 3
	var out bytes.Buffer
	if err := rep.emit(&out, false); err != nil {
		t.Fatal(err)
	}
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 3 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.name]; m.Unit != d.unit || m.Value != 1.5 {
			t.Errorf("%s: %+v", d.name, m)
		}
	}
	delete(rep.e2e, "setup_s")
	if err := rep.emit(&bytes.Buffer{}, false); err == nil {
		t.Error("a missing end-to-end metric was not an error")
	}
	out.Reset()
	if err := rep.emit(&out, true); err != nil {
		t.Fatal(err)
	}
	if res, _ := lastResult(out.Bytes()); len(res.Metrics) != len(perLayer()) {
		t.Errorf("traced result has %d metrics, want %d", len(res.Metrics), len(perLayer()))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	root := tr.add("root", 0, "r", at(0), at(100))
	tr.add("a", root, "r", at(10), at(40))
	tr.add("b", root, "r", at(30), at(60)) // overlaps a
	tr.add("c", root, "r", at(90), at(120))
	self := tr.selfTimes()
	if got := self["root"][0]; got != 40 {
		t.Errorf("root self time %v µs, want 40", got)
	}
	if got := self["c"][0]; got != 30 {
		t.Errorf("leaf self time %v µs, want 30", got)
	}
}

// TestSmokeWorkloadShape runs each service workload briefly, traced, and
// checks its shape: relabel-hits is served from the cache, fresh-misses
// is not, and every answer agrees with the oracle.
func TestSmokeWorkloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and loads it")
	}
	for _, c := range []struct {
		name     string
		min, max float64
	}{{"relabel-hits", 0.99, 1}, {"fresh-misses", 0, 0.01}} {
		w, _ := serviceWorkload(c.name)
		rep, err := runService(context.Background(), w, 3, 2, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct() {
			t.Fatalf("%s: %d of %d failed: %v", c.name, rep.failed, rep.attempted, rep.problems)
		}
		if r := rep.counts["vcache.hit_ratio"]; r < c.min || r > c.max {
			t.Errorf("%s: vcache.hit_ratio %v, want within [%v, %v]", c.name, r, c.min, c.max)
		}
		if n := rep.counts["model.unknown"]; n != 0 {
			t.Errorf("%s: %v Unknown verdicts", c.name, n)
		}
	}
}

// TestSmokeUntraced makes a short untraced fresh-misses run, the fewest
// measurement rounds, and checks that every end-to-end metric is set and
// every answer agrees with the oracle.
func TestSmokeUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and loads it")
	}
	rep, err := runService(context.Background(), freshMisses(), 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("%d of %d failed: %v", rep.failed, rep.attempted, rep.problems)
	}
	for _, d := range endToEnd {
		if v := rep.e2e[d.name]; !(v > 0) {
			t.Errorf("%s = %v, want a positive value", d.name, v)
		}
	}
}
