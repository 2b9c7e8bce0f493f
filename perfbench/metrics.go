package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"strings"

	"repro/model"
)

// metricDef is one metric the benchmark reports, as BENCHMARK.json lists
// it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// every one; their meaning per workload is in NOTES.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"capacity_rps", "1/s"},
	{"p50_ms", "ms"},
	{"slo_ratio", "ratio"},
	{"cpu_us_per_check", "us"},
	{"peak_heap_mb", "MiB"},
	{"explore_s", "s"},
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for it.
func perLayer() []metricDef {
	defs := []metricDef{
		{"loadgen.lag_ms_p99", "ms"},
		{"loadgen.latency_ms_p90", "ms"},
		{"obshttp.http_us_p50", "us"},
		{"obshttp.server_us_p50", "us"},
		{"obshttp.wait_us_p50", "us"},
		{"obshttp.wait_us_p99", "us"},
		{"obshttp.failed", "count"},
		{"obshttp.shed", "count"},
		{"history.parse_us", "us"},
		{"history.canon_us", "us"},
		{"vcache.hit_ratio", "ratio"},
		{"vcache.hit_us", "us"},
		{"vcache.miss_overhead_us", "us"},
		{"vcache.evictions_per_check", "ratio"},
		{"model.solve_us_p50", "us"},
		{"model.solve_us_p99", "us"},
		{"model.candidates", "count"},
		{"model.nodes", "count"},
		{"model.unknown", "count"},
		{"runtime.alloc_kb_per_check", "KiB"},
		{"runtime.gc_per_1k_checks", "count"},
		{"explore.states", "count"},
		{"explore.transitions", "count"},
		{"explore.violations", "count"},
		{"explore.states_per_s", "1/s"},
		{"explore.alloc_mb", "MiB"},
		{"explore.gc_cycles", "count"},
		{"explore.bytes_per_state", "B"},
		{"trace.unclaimed_us_p50", "us"},
		{"trace.overhead_pct", "%"},
		{"trace.model_share_pct", "%"},
		{"trace.explore_share_pct", "%"},
	}
	for _, m := range model.All() {
		defs = append(defs, metricDef{metricName("model.solve_us." + m.Name()), "us"})
	}
	for _, m := range model.All() {
		defs = append(defs, metricDef{metricName("model.route_speedup." + m.Name()), "ratio"})
	}
	return defs
}

var (
	badNameChar = regexp.MustCompile(`[^A-Za-z0-9_.-]`)
	validName   = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metricName maps a name onto the characters a metric name may use:
// model names such as Causal+Coh carry a '+'.
func metricName(s string) string { return badNameChar.ReplaceAllString(s, "_") }

// report is one run's outcome: the operations it attempted and failed,
// what went wrong, and its metrics by name.
type report struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	counts            map[string]float64 // per-layer
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, counts: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.e2e[name] = v }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit writes every metric of the run's kind as a table, then the result
// object as the last line. An end-to-end metric the run did not measure
// is an error; per-layer metrics of layers a workload does not use are 0.
func (r *report) emit(w io.Writer, traced bool) error {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer(), r.counts
	}
	line := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for i, p := range r.problems {
		if i == 10 {
			fmt.Fprintf(w, "... %d more problems\n", len(r.problems)-10)
			break
		}
		fmt.Fprintf(w, "problem: %s\n", strings.TrimSpace(p))
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !traced {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		line.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(w, "%-36s %16.6g %s\n", d.name, v, d.unit)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
