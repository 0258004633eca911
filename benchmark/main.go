// Command benchmark is the repository's one replicated-PEATS benchmark:
// it builds cmd/peats-server's default deployment (n=4, f=1, TCP on
// loopback, durable store with group commit) four times in this
// process, drives it from two client connections with a seeded
// workload, checks every result against a model, and prints every
// metric BENCHMARK.json declares. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

const (
	// runSeconds is the window's default length and BENCHMARK.json's
	// run_seconds.
	runSeconds = 20
	// failoverTrials is how many fresh clusters lose their primary in
	// one untraced run. With the measured cluster that makes four
	// set-ups, whose median is setup_s.
	failoverTrials = 3
)

func main() {
	o := options{warmup: warmup, trials: failoverTrials}
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed of arrival times and key choice")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1 repeats the window with tracing on and prints the per-layer metrics instead")
	flag.StringVar(&o.report, "report", "", "append this run to a JSON report file, for -compare")
	flag.StringVar(&o.dir, "dir", "out", "directory for cluster data and trace files; created if absent")
	compare := flag.Bool("compare", false, "compare two report files: -compare a.json b.json")
	flag.Parse()
	o.trace = *trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two report files"))
		}
		worse, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || o.seconds < 1 {
		fatal(errors.New("usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-report file]"))
	}
	res, err := run(context.Background(), os.Stdout, o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	report   string
	dir      string
	// Fixed by the benchmark, the same on every commit; only the smoke
	// test shortens them.
	warmup time.Duration
	trials int
}

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the number of samples behind the value, printed beside it.
	n int
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run executes the selected workloads and merges their results; with
// more than one workload the metric names are prefixed by the
// workload's.
func run(ctx context.Context, out io.Writer, o options) (result, error) {
	selected := specs
	if o.workload != "all" {
		s, ok := specByName(o.workload)
		if !ok {
			return result{}, fmt.Errorf("unknown workload %q (want all or one of %s)", o.workload, workloadNames())
		}
		selected = []spec{s}
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, err
	}
	root, err := os.MkdirTemp(o.dir, "data-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)

	total := result{Correct: true, Metrics: make(map[string]value)}
	for _, s := range selected {
		res, err := runWorkload(ctx, root, s, o)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", s.name, err)
		}
		printMetrics(out, s.name, res)
		if o.report != "" {
			if err := appendReport(o.report, s.name, o, res); err != nil {
				return result{}, err
			}
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, v := range res.Metrics {
			if len(selected) > 1 {
				name = s.name + "." + name
			}
			total.Metrics[name] = v
		}
	}
	return total, nil
}

func printMetrics(out io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(out, "%-12s %-34s %14.4f %-6s n=%d\n", workload, name, v.Value, v.Unit, v.n)
	}
	fmt.Fprintf(out, "%-12s attempted=%d failed=%d correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
}

// runWorkload is one benchmark run of one workload.
//
// Untraced, it sets up four clusters one after another. The first
// serves the measured loop: warm-up, then the window the end-to-end
// metrics come from, then the digest and model check. Each of the
// others runs a failover trial. setup_s and failover_ms are the medians.
//
// Traced, it measures one window on a plain cluster and one on a
// cluster built with the tracer, half the length each, then runs the
// micro-probes; the per-layer metrics come from the traced window and
// trace.overhead_frac from the pair.
func runWorkload(ctx context.Context, root string, s spec, o options) (result, error) {
	length := time.Duration(o.seconds) * time.Second
	res := result{Metrics: make(map[string]value)}
	clusters := 0
	// fresh sets up the next cluster; a failure while building or
	// preloading is an error of the run, not a failed operation.
	fresh := func(tr *tracer) (*loaded, error) {
		clusters++
		return setUp(ctx, filepath.Join(root, fmt.Sprintf("cluster%d", clusters)), s, o.seed, tr)
	}
	// retire ends a cluster's life: counts its operations and runs the
	// end-of-life oracle, whose mismatch fails the run. The traced
	// cluster's files stay for the recovery probe.
	var mismatch error
	retire := func(l *loaded) {
		a, f := l.counts()
		res.Attempted += a
		res.Failed += f
		if err := l.firstErr(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: first failed operation: %v\n", s.name, err)
		}
		if err := l.finish(ctx); err != nil && mismatch == nil {
			mismatch = err
		}
		if l.cl.tr == nil {
			l.cl.remove()
		}
	}

	if o.trace {
		plain, err := fresh(nil)
		if err != nil {
			return res, err
		}
		untraced := plain.measure(ctx, s, o.warmup, length/2)
		retire(plain)

		tr := newTracer()
		traced, err := fresh(tr)
		if err != nil {
			return res, err
		}
		w := traced.measure(ctx, s, o.warmup, length/2)
		perLayer(res.Metrics, w, untraced, traced, tr)
		retire(traced)
		err = probes(res.Metrics, s, o.seed, root, traced.cl.nodes[0].dir)
		traced.cl.remove()
		if err != nil {
			return res, err
		}
		if err := tr.write(o.dir, s.name); err != nil {
			return res, err
		}
	} else {
		first, err := fresh(nil)
		if err != nil {
			return res, err
		}
		setups := []float64{first.setup.Seconds()}
		w := first.measure(ctx, s, o.warmup, length)
		retire(first)
		var failovers []float64
		for i := 0; i < o.trials; i++ {
			l, err := fresh(nil)
			if err != nil {
				return res, err
			}
			setups = append(setups, l.setup.Seconds())
			d, err := l.failover(ctx)
			if err != nil && mismatch == nil {
				mismatch = err
			}
			failovers = append(failovers, millis(d))
			retire(l)
		}
		endToEnd(res.Metrics, w)
		res.Metrics["setup_s"] = value{median(setups), "s", len(setups)}
		res.Metrics["failover_ms"] = value{median(failovers), "ms", len(failovers)}
	}
	if mismatch != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, mismatch)
		res.Failed++
	}
	res.Correct = res.Failed == 0
	return res, nil
}
