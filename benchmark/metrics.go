package main

import (
	"sort"
	"strings"
)

// metricDef declares one metric; BENCHMARK.json carries the same list
// and the smoke test holds the two together.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEndDefs are what a user of the replicated space sees. Failures
// are not a metric here: the result line's failed and correct carry
// them, and one failed operation fails the run. Nor is a latency tail:
// p90, p99 and the mean of the slowest tenth each spread wider than the
// largest bound allowed on some workload (README), so they are
// per-layer metrics, which carry no bound.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"failover_ms", "ms", "lower", 0.15},
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// latencies returns the sorted latencies, in µs, of the window's
// submissions, each counted from when it was due.
func (w window) latencies() []float64 {
	out := make([]float64, len(w.samples))
	for i, sm := range w.samples {
		out[i] = micros(sm.done - sm.due)
	}
	sort.Float64s(out)
	return out
}

// endToEnd fills in the metrics that come from the measured window.
func endToEnd(m map[string]value, w window) {
	lat := w.latencies()
	n := len(lat)
	seconds := (w.to - w.from).Seconds()
	m["ops_s"] = value{float64(n) / seconds, "1/s", n}
	m["p50_us"] = value{percentile(lat, 50), "us", n}
	m["cpu_us_per_op"] = value{micros(w.cpu) / float64(max(n, 1)), "us", n}
}
