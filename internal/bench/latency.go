package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"peats/internal/bft"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/tuple"
)

// LatencyConfig sizes the commit-round comparison: the same ordered
// Submit workload with the client waiting for commit-quorum replies,
// with it accepting tentative ones (sent at prepared, one round before
// the commit quorum), and with tentative replies driven through the
// SubmitAsync/Flush pipeline. The replicas run the same in all three.
// The zero value selects laptop-sized defaults; CI smoke-tests the path
// with tiny parameters.
type LatencyConfig struct {
	// Ops is the number of Submit calls measured per mode.
	Ops int
	// Depth is the SubmitAsync window flushed at once in the pipelined
	// mode.
	Depth int
	// Groups lists the fault bounds f to sweep (n = 3f+1 replicas).
	Groups []int
	// NetDelay is the simulated one-way link delay applied to every
	// in-process link. The raw in-process transport delivers in
	// nanoseconds, which hides the protocol rounds the tentative path
	// removes behind scheduler noise; a LAN-like delay makes the round
	// count the dominant term, as it is in a real deployment. Negative
	// disables the delay.
	NetDelay time.Duration
}

func (c LatencyConfig) withDefaults() LatencyConfig {
	if c.Ops <= 0 {
		c.Ops = 160
	}
	if c.Depth <= 1 {
		c.Depth = 8
	}
	if len(c.Groups) == 0 {
		c.Groups = []int{1, 2}
	}
	if c.NetDelay == 0 {
		c.NetDelay = 100 * time.Microsecond
	}
	if c.NetDelay < 0 {
		c.NetDelay = 0
	}
	return c
}

// LatencyRow is one measurement: cfg.Ops ordered writes through one
// reply mode, with the per-Submit latency distribution. In the
// pipelined mode a window of Depth submissions shares one agreement
// batch, so its per-op latency is the window latency divided by the
// window size — the amortized cost a pipelining client pays.
type LatencyRow struct {
	Mode      string  `json:"mode"` // "committed", "tentative", "tentative+pipelined"
	F         int     `json:"f"`    // fault bound; n = 3f+1 replicas
	Depth     int     `json:"depth"`
	Ops       int     `json:"ops"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
	AvgMicros float64 `json:"avg_latency_us"`
	Percentiles
}

// LatencyTable measures Submit latency per reply mode and group size.
func LatencyTable(ctx context.Context, cfg LatencyConfig) ([]LatencyRow, error) {
	cfg = cfg.withDefaults()
	var rows []LatencyRow
	for _, f := range cfg.Groups {
		for _, mode := range []string{"committed", "tentative", "tentative+pipelined"} {
			row, err := latencyRun(ctx, f, mode, cfg)
			if err != nil {
				return nil, fmt.Errorf("latency bench (%s, f=%d): %w", mode, f, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func latencyRun(ctx context.Context, f int, mode string, cfg LatencyConfig) (LatencyRow, error) {
	ops, depth := cfg.Ops, cfg.Depth
	pol := policy.AllowAll()
	services := make([]bft.Service, 3*f+1)
	for i := range services {
		services[i] = bft.NewSpaceService(pol)
	}
	cl, err := bft.NewCluster(f, services, bft.WithBatchSize(64))
	if err != nil {
		return LatencyRow{}, err
	}
	defer cl.Stop()
	ts := bft.NewRemoteSpace(cl.Client("lat"))
	ts.TentativeWrites = mode != "committed"
	if cfg.NetDelay > 0 {
		// The client endpoint registers on first use above; delay every
		// pair of links uniformly, replicas and client alike.
		all := append(append([]string{}, cl.IDs...), "lat")
		for _, a := range all {
			for _, b := range all {
				if a != b {
					cl.Net.SetLink(a, b, 0, cfg.NetDelay)
				}
			}
		}
	}

	// One op per Submit, alternating out and inp of the same key so the
	// resident space — and with it checkpoint cost — stays bounded. A
	// pipelined window keeps the order out-before-inp, so the inp never
	// misses.
	opAt := func(i int) peats.Op {
		entry := tuple.T(tuple.Str("LAT"), tuple.Int(int64(i/2)%64))
		if i%2 == 0 {
			return peats.OutOp(entry)
		}
		return peats.InpOp(entry)
	}
	submit := func(i int) error {
		_, err := ts.Submit(ctx, opAt(i))
		return err
	}

	warm := ops / 4
	if warm < 2 {
		warm = 2
	}
	warm += warm % 2 // pair out/inp so the space drains
	for i := 0; i < warm; i++ {
		if err := submit(i); err != nil {
			return LatencyRow{}, fmt.Errorf("warmup op %d: %w", i, err)
		}
	}

	samples := make([]time.Duration, 0, ops)
	start := time.Now()
	if mode == "tentative+pipelined" {
		for w := 0; w < ops; w += depth {
			k := depth
			if w+k > ops {
				k = ops - w
			}
			handles := make([]*bft.PendingSubmit, k)
			winStart := time.Now()
			for i := 0; i < k; i++ {
				handles[i] = ts.SubmitAsync(opAt(w + i))
			}
			if err := ts.Flush(ctx); err != nil {
				return LatencyRow{}, fmt.Errorf("flush at op %d: %w", w, err)
			}
			per := time.Since(winStart) / time.Duration(k)
			for _, h := range handles {
				if _, err := h.Results(); err != nil {
					return LatencyRow{}, fmt.Errorf("pipelined op: %w", err)
				}
				samples = append(samples, per)
			}
		}
	} else {
		for i := 0; i < ops; i++ {
			opStart := time.Now()
			if err := submit(i); err != nil {
				return LatencyRow{}, fmt.Errorf("op %d: %w", i, err)
			}
			samples = append(samples, time.Since(opStart))
		}
	}
	elapsed := time.Since(start)

	row := LatencyRow{
		Mode: mode, F: f, Ops: ops,
		Seconds:     elapsed.Seconds(),
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
		AvgMicros:   float64(elapsed.Microseconds()) / float64(ops),
		Percentiles: percentiles(samples),
	}
	if mode == "tentative+pipelined" {
		row.Depth = depth
	}
	return row, nil
}

// LatencyGain is one mode's median-latency improvement over the
// committed baseline at one group size.
type LatencyGain struct {
	F       int     `json:"f"`
	Mode    string  `json:"mode"`
	Speedup float64 `json:"median_speedup"` // committed p50 / mode p50
}

// LatencyGains returns each non-baseline mode's median speedup per
// group size, in row order.
func LatencyGains(rows []LatencyRow) []LatencyGain {
	base := make(map[int]float64)
	for _, r := range rows {
		if r.Mode == "committed" {
			base[r.F] = r.P50
		}
	}
	var out []LatencyGain
	for _, r := range rows {
		if r.Mode == "committed" || base[r.F] <= 0 || r.P50 <= 0 {
			continue
		}
		out = append(out, LatencyGain{F: r.F, Mode: r.Mode, Speedup: base[r.F] / r.P50})
	}
	return out
}

// WriteLatencyTable renders the commit-round comparison with each
// mode's median speedup over the committed baseline.
func WriteLatencyTable(w io.Writer, rows []LatencyRow) {
	fmt.Fprintln(w, "committed: the client waits for 2f+1 commit-quorum replies; tentative: it accepts 2f+1 replies sent at prepared")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tn\tdepth\tops\tops/sec\tavg latency\tp50\tp95\tp99")
	for _, r := range rows {
		depth := "-"
		if r.Depth > 0 {
			depth = fmt.Sprintf("%d", r.Depth)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%.0f\t%.0fµs\t%.0fµs\t%.0fµs\t%.0fµs\n",
			r.Mode, 3*r.F+1, depth, r.Ops, r.OpsPerSec, r.AvgMicros, r.P50, r.P95, r.P99)
	}
	tw.Flush()
	for _, g := range LatencyGains(rows) {
		fmt.Fprintf(w, "%s at n=%d: %.1fx lower median Submit latency\n", g.Mode, 3*g.F+1, g.Speedup)
	}
}

// latencyReport is the machine-readable artifact schema.
type latencyReport struct {
	reportMeta
	Gains []LatencyGain `json:"median_speedups"`
	Rows  []LatencyRow  `json:"rows"`
}

// WriteLatencyJSON writes the rows as a machine-readable JSON report.
func WriteLatencyJSON(path string, rows []LatencyRow) error {
	return writeReportJSON(path, "latency", &latencyReport{
		Gains: LatencyGains(rows),
		Rows:  rows,
	})
}
