package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// schedule runs the first n operations of connection c0's schedule
// against a local PEATS and renders each as its arrival gap and request
// bytes.
func schedule(t *testing.T, s spec, seed int64, n int) []string {
	t.Helper()
	g, h, err := newLocal(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, n)
	for i := range out {
		gap := g.gap(pacedRate)
		it := g.plan(g.draw())
		if err := it.check(h.Submit(context.Background(), it.ops...)); err != nil {
			t.Fatalf("%s op %d: %v", s.name, i, err)
		}
		out[i] = fmt.Sprintf("%d %x", gap, requestBytes(it.ops))
	}
	return out
}

// One seed gives one operation schedule, another seed another, and
// every planned operation passes its own oracle on a single-node PEATS.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs {
		a, b, c := schedule(t, s, 7, 3000), schedule(t, s, 7, 3000), schedule(t, s, 8, 3000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", s.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", s.name)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{9, 1, 5, 7}); got != 6 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(sorted); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if got := spread(sorted); got != 1 {
		t.Errorf("spread = %v", got)
	}
}

func TestSelfTimeIsDurationMinusWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		{Name: "child", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "child", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps the first
		{Name: "child", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{Name: "grandchild", ID: 5, Parent: 2, Start: 12, End: 18},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"parent": 50, "child": 20 - 6 + 30 + 30, "grandchild": 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              float64
}

func declaredIn(defs []metricDef) []declared {
	out := make([]declared, len(defs))
	for i, d := range defs {
		out[i] = declared{d.name, d.unit, d.better, d.bound}
	}
	return out
}

// Every workload runs end to end, untraced and traced, on short
// windows: each metric BENCHMARK.json declares is printed once under a
// well-formed name, no operation fails and the replicas agree.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if got := declaredIn(endToEndDefs); !reflect.DeepEqual(got, file.EndToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program %v", file.EndToEnd, got)
	}
	if got := declaredIn(perLayerDefs); !reflect.DeepEqual(got, file.PerLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the program %v", file.PerLayer, got)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(file.Workloads), len(specs))
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, s := range specs {
		if file.Workloads[i].Name != s.name || file.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %v, the program %s: %s", i, file.Workloads[i], s.name, s.why)
		}
		for _, traced := range []bool{false, true} {
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			t.Run(fmt.Sprintf("%s/trace=%v", s.name, traced), func(t *testing.T) {
				t.Parallel()
				o := options{
					workload: s.name, seed: 1, seconds: 1, trace: traced, dir: t.TempDir(),
					warmup: 200 * time.Millisecond, trials: 1,
				}
				res, err := run(context.Background(), io.Discard, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("%s is declared and was not printed", d.name)
					}
					if v.Unit != d.unit || !wellFormed.MatchString(d.name) {
						t.Errorf("%s: unit %q, declared %q", d.name, v.Unit, d.unit)
					}
				}
			})
		}
	}
}
