package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// units is every metric the benchmark can produce, with its unit. The
// metrics BENCHMARK.json names must appear here with the same unit.
var units = map[string]string{
	// End to end.
	"setup_s":        "s",
	"serve_rps":      "req/s",
	"serve_p50_ms":   "ms",
	"serve_p90_ms":   "ms",
	"place_s":        "s",
	"reconcile_s":    "s",
	"sim_rps":        "req/s",
	"sim_mean_rt_ms": "ms",
	"max_rss_mb":     "MB",

	// Per layer.
	"scenario.build_s":            "s",
	"workload.next_ns":            "ns",
	"lrumodel.hit_ratios_us":      "us",
	"lrumodel.table_hit_frac":     "ratio",
	"placement.steps":             "count",
	"placement.heap_pops":         "count",
	"placement.stale_reevals":     "count",
	"placement.useful_pop_frac":   "ratio",
	"placement.predicted_cost":    "hops",
	"placement.incremental_s":     "s",
	"placement.dirty_rows":        "count",
	"control.observe_ns":          "ns",
	"control.roll_ms":             "ms",
	"control.round_ms":            "ms",
	"control.placement_ms":        "ms",
	"control.rounds_applied":      "count",
	"control.rounds_skipped":      "count",
	"sim.ns_per_req":              "ns",
	"sim.hit_ratio":               "ratio",
	"sim.local_frac":              "ratio",
	"cache.get_put_ns":            "ns",
	"cache.hit_ratio":             "ratio",
	"httpcdn.local_frac":          "ratio",
	"clusterd.push_lag_ms":        "ms",
	"clusterd.not_found":          "count",
	"httpcdn.not_found":           "count",
	"go.alloc_bytes_per_req":      "B",
	"go.allocs_per_req":           "count",
	"go.gc_cpu_frac":              "ratio",
	"go.gc_cycles":                "count",
	"bench.gen_late_p99_ms":       "ms",
	"bench.trace_overhead_frac":   "ratio",
	"bench.serve_p99_ms":          "ms",
	"bench.serve_samples":         "count",
	"bench.latency_phase_offered": "req/s",
}

func init() {
	for _, src := range sources {
		for _, layer := range []string{"httpcdn", "clusterd"} {
			units[layer+".by_source."+src] = "count"
			units[layer+".p50_ms."+src] = "ms"
		}
	}
	for _, k := range spanKinds {
		units["self_ms."+k] = "ms"
	}
	for _, l := range spanLayers {
		units["self_ms.layer."+l.name] = "ms"
	}
}

// result is one workload run: how many operations were attempted and
// failed, every metric measured, and (traced runs) the span log.
type result struct {
	attempted int64
	failed    int64
	// failures holds the first few failed checks, for the report.
	failures []string
	metrics  map[string]float64
	notes    []string
	spans    *spanLog
}

func newResult() *result {
	return &result{metrics: make(map[string]float64), spans: newSpanLog()}
}

// set records a metric; the name must be known.
func (r *result) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("cdnbench: unknown metric " + name)
	}
	r.metrics[name] = v
}

// setDefault records a metric unless the run has already measured it.
func (r *result) setDefault(name string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.set(name, v)
	}
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// merge adds a sub-measurement's operation counts and failures.
func (r *result) merge(attempted, failed int64, failures []string) {
	r.attempted += attempted
	r.failed += failed
	for _, f := range failures {
		if len(r.failures) < 10 {
			r.failures = append(r.failures, f)
		}
	}
}

// note adds a line to the report's header.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// outputLine is the machine-readable last line of a run.
type outputLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable table (every measured metric, the
// wanted ones marked) to w and returns the JSON result line carrying
// exactly the wanted metrics. A wanted metric the run did not measure,
// or whose unit differs from the benchmark's own, is an error.
func (r *result) report(w io.Writer, want []metricSpec) (string, error) {
	out := outputLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	wanted := make(map[string]bool, len(want))
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		if units[m.Name] != m.Unit {
			return "", fmt.Errorf("metric %s has unit %q here but %q in the benchmark definition", m.Name, units[m.Name], m.Unit)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		wanted[m.Name] = true
	}

	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %16s  %s\n", "metric", "value", "unit")
	for _, n := range names {
		mark := " "
		if wanted[n] {
			mark = "*"
		}
		fmt.Fprintf(w, "%s%-31s %16.6g  %s\n", mark, n, r.metrics[n], units[n])
	}
	fmt.Fprintf(w, "attempted %d, failed %d", r.attempted, r.failed)
	if len(r.failures) > 0 {
		fmt.Fprintf(w, "; first failures:\n  %s", strings.Join(r.failures, "\n  "))
	}
	fmt.Fprintln(w)

	b, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
