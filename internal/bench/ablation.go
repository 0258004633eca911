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
	"peats/internal/universal"
)

// AblationRow is one design-choice measurement: the same workload with
// the design element on and off.
type AblationRow struct {
	Name     string
	Baseline time.Duration // per-op, element off
	With     time.Duration // per-op, element on
	Note     string
}

// AblationTable measures three ablations:
// reference-monitor overhead, the wait-free helping mechanism, and the
// replication quorum size.
func AblationTable(ctx context.Context, iters int) ([]AblationRow, error) {
	if iters <= 0 {
		iters = 2000
	}
	rows := make([]AblationRow, 0, 3)

	monitor, err := measureMonitorOverhead(ctx, iters)
	if err != nil {
		return nil, err
	}
	rows = append(rows, monitor)

	helping, err := measureHelpingOverhead(ctx, iters)
	if err != nil {
		return nil, err
	}
	rows = append(rows, helping)

	quorum, err := measureQuorumOverhead(ctx, iters/20+1)
	if err != nil {
		return nil, err
	}
	rows = append(rows, quorum)
	return rows, nil
}

// measureMonitorOverhead times out+rdp pairs under the trivial policy
// vs a stateful rule set (§7's "little extra processing" claim).
func measureMonitorOverhead(ctx context.Context, iters int) (AblationRow, error) {
	run := func(pol policy.Policy) (time.Duration, error) {
		s := peats.New(pol)
		h := s.Handle("p0")
		start := time.Now()
		for i := 0; i < iters; i++ {
			entry := tuple.T(tuple.Str("PROPOSE"), tuple.Str("p0"), tuple.Int(int64(i)))
			if err := h.Out(ctx, entry); err != nil {
				return 0, err
			}
			if _, _, err := h.Rdp(ctx, tuple.T(tuple.Str("PROPOSE"), tuple.Str("p0"), tuple.Formal("v"))); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(2*iters), nil
	}
	stateful := policy.New(
		policy.Rule{Name: "Rrdp", Op: policy.OpRdp, When: policy.Always},
		policy.Rule{Name: "Rout", Op: policy.OpOut, When: policy.And(
			policy.EntryArity(3),
			policy.EntryField(0, tuple.Str("PROPOSE")),
			policy.EntryFieldIsInvoker(1),
		)},
	)
	base, err := run(policy.AllowAll())
	if err != nil {
		return AblationRow{}, err
	}
	with, err := run(stateful)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Name: "reference monitor", Baseline: base, With: with,
		Note: "out+rdp under allow-all vs stateful rules",
	}, nil
}

// measureHelpingOverhead times uncontended counter increments through
// the lock-free vs the wait-free construction.
func measureHelpingOverhead(ctx context.Context, iters int) (AblationRow, error) {
	procs := []policy.ProcessID{"p0", "p1", "p2"}

	lf := universal.NewLockFree(peats.New(universal.LockFreePolicy()).Handle("p0"), universal.CounterType{})
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := lf.Invoke(ctx, universal.CounterInc()); err != nil {
			return AblationRow{}, err
		}
	}
	base := time.Since(start) / time.Duration(iters)

	wf, err := universal.NewWaitFree(peats.New(universal.WaitFreePolicy(procs)).Handle("p0"),
		universal.CounterType{}, "p0", procs)
	if err != nil {
		return AblationRow{}, err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := wf.Invoke(ctx, universal.CounterInc()); err != nil {
			return AblationRow{}, err
		}
	}
	with := time.Since(start) / time.Duration(iters)
	return AblationRow{
		Name: "wait-free helping", Baseline: base, With: with,
		Note: "uncontended universal-construction op (Alg. 3 vs Alg. 4)",
	}, nil
}

// measureQuorumOverhead times replicated outs at f=1 vs f=2.
func measureQuorumOverhead(ctx context.Context, iters int) (AblationRow, error) {
	run := func(f int) (time.Duration, error) {
		n := 3*f + 1
		services := make([]bft.Service, n)
		for i := range services {
			services[i] = bft.NewSpaceService(policy.AllowAll())
		}
		cl, err := bft.NewCluster(f, services)
		if err != nil {
			return 0, err
		}
		defer cl.Stop()
		ts := bft.NewRemoteSpace(cl.Client("bench"))
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := ts.Out(ctx, tuple.T(tuple.Str("Q"), tuple.Int(int64(i)))); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(iters), nil
	}
	base, err := run(1)
	if err != nil {
		return AblationRow{}, err
	}
	with, err := run(2)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Name: "replication quorum", Baseline: base, With: with,
		Note: "replicated out, f=1 (4 replicas) vs f=2 (7 replicas)",
	}, nil
}

// WriteAblationTable renders the ablation measurements.
func WriteAblationTable(w io.Writer, rows []AblationRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ablation\toff\ton\tratio\tworkload")
	for _, r := range rows {
		ratio := float64(r.With) / float64(r.Baseline)
		fmt.Fprintf(tw, "%s\t%v\t%v\t%.2fx\t%s\n", r.Name, r.Baseline, r.With, ratio, r.Note)
	}
	tw.Flush()
}
