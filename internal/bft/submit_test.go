package bft

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peats/internal/metrics"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/space"
	"peats/internal/tuple"
	"peats/internal/wire"
)

func TestClusterSubmitMultiOpTx(t *testing.T) {
	cl := newPEATSCluster(t, 1, policy.AllowAll())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ts := NewRemoteSpace(cl.Client("mover"))
	task := tuple.T(tuple.Str("pending"), tuple.Str("job1"))
	if err := ts.Out(ctx, task); err != nil {
		t.Fatal(err)
	}
	// One round trip moves the tuple between queues atomically.
	res, err := ts.Submit(ctx,
		peats.InpOp(task),
		peats.OutOp(tuple.T(tuple.Str("active"), tuple.Str("job1"), tuple.Str("mover"))),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || !res[0].Found || !res[0].Tuple.Equal(task) {
		t.Fatalf("results = %+v", res)
	}
	if _, ok, _ := ts.Rdp(ctx, tuple.T(tuple.Str("pending"), tuple.Any())); ok {
		t.Error("pending tuple survived the move")
	}
	if _, ok, _ := ts.Rdp(ctx, tuple.T(tuple.Str("active"), tuple.Any(), tuple.Any())); !ok {
		t.Error("active tuple missing")
	}

	// Replaying the move aborts without effect: ErrAborted, and the
	// active queue still holds exactly one tuple.
	res, err = ts.Submit(ctx,
		peats.InpOp(task),
		peats.OutOp(tuple.T(tuple.Str("active"), tuple.Str("job1"), tuple.Str("mover"))),
	)
	if !errors.Is(err, peats.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if len(res) != 1 || res[0].Found {
		t.Fatalf("aborted prefix = %+v", res)
	}
	all, err := ts.RdAll(ctx, tuple.T(tuple.Str("active"), tuple.Any(), tuple.Any()))
	if err != nil || len(all) != 1 {
		t.Fatalf("active tuples = %v (%v), want exactly 1", all, err)
	}
}

// TestClusterSubmitConflictingTxsAtomic is the acceptance pin for tx
// atomicity and determinism: concurrent conflicting transactions from
// many clients race to consume the same resource; exactly one may win,
// losers must see a clean abort, and every correct replica must end
// with an identical space (one critical section per replica, identical
// SpaceResult vectors — otherwise reply votes could not have formed and
// snapshots would diverge).
func TestClusterSubmitConflictingTxsAtomic(t *testing.T) {
	pol := policy.AllowAll()
	services := make([]Service, 4)
	spaceSvcs := make([]*SpaceService, 4)
	for i := range services {
		spaceSvcs[i] = NewSpaceService(pol)
		services[i] = spaceSvcs[i]
	}
	cl, err := NewCluster(1, services, WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	seeder := NewRemoteSpace(cl.Client("seed"))
	const resources = 3
	for i := int64(0); i < resources; i++ {
		if err := seeder.Out(ctx, tuple.T(tuple.Str("RES"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 9
	var wg sync.WaitGroup
	claims := make(chan string, workers*resources)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			ts := NewRemoteSpace(cl.Client(id))
			for i := int64(0); i < resources; i++ {
				_, err := ts.Submit(ctx,
					peats.InpOp(tuple.T(tuple.Str("RES"), tuple.Int(i))),
					peats.OutOp(tuple.T(tuple.Str("CLAIM"), tuple.Int(i), tuple.Str(id))),
				)
				switch {
				case err == nil:
					claims <- fmt.Sprintf("%d:%s", i, id)
				case errors.Is(err, peats.ErrAborted):
					// Lost the race: clean abort, no partial effects.
				default:
					t.Errorf("worker %s res %d: %v", id, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(claims)
	won := 0
	for range claims {
		won++
	}
	if won != resources {
		t.Errorf("%d claims for %d resources (double or lost claims)", won, resources)
	}

	reader := NewRemoteSpace(cl.Client("reader"))
	left, err := reader.RdAll(ctx, tuple.T(tuple.Str("RES"), tuple.Any()))
	if err != nil || len(left) != 0 {
		t.Errorf("unconsumed resources: %v (%v)", left, err)
	}
	claimed, err := reader.RdAll(ctx, tuple.T(tuple.Str("CLAIM"), tuple.Any(), tuple.Any()))
	if err != nil || len(claimed) != resources {
		t.Errorf("claims = %v (%v), want %d", claimed, err, resources)
	}

	// Every replica that has executed everything holds identical state.
	var top uint64
	for _, r := range cl.Replicas {
		if e := r.Executed(); e > top {
			top = e
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	var snaps [][]byte
	for time.Now().Before(deadline) {
		snaps = snaps[:0]
		for i, r := range cl.Replicas {
			if r.Executed() >= top {
				snaps = append(snaps, spaceSvcs[i].Snapshot())
			}
		}
		if len(snaps) >= 3 { // 2f+1 is the agreement threshold
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(snaps) < 3 {
		t.Fatal("fewer than 2f+1 replicas caught up")
	}
	for i := 1; i < len(snaps); i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			t.Fatal("caught-up replicas diverge after concurrent conflicting txs")
		}
	}
}

// TestServiceTxDeterminismAcrossConfigs feeds one interleaved sequence
// of single ops and transactions (committing and aborting) to
// services on both engines at shard counts {1,4,16}: every configuration
// must produce byte-identical result vectors and snapshots.
func TestServiceTxDeterminismAcrossConfigs(t *testing.T) {
	type cfg struct {
		e      space.Engine
		shards int
	}
	var cfgs []cfg
	for _, e := range space.Engines() {
		for _, sh := range []int{1, 4, 16} {
			cfgs = append(cfgs, cfg{e, sh})
		}
	}
	svcs := make([]*SpaceService, len(cfgs))
	for i, c := range cfgs {
		svc, err := NewSpaceServiceWithConfig(policy.AllowAll(), c.e, c.shards)
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
	}

	r := rand.New(rand.NewSource(11))
	randOp := func() wire.SpaceOp {
		tags := []string{"A", "B"}
		entry := tuple.T(tuple.Str(tags[r.Intn(2)]), tuple.Int(int64(r.Intn(3))))
		tmplChoice := []tuple.Tuple{
			entry,
			tuple.T(tuple.Str(tags[r.Intn(2)]), tuple.Any()),
			tuple.T(tuple.Any(), tuple.Int(int64(r.Intn(3)))),
		}
		tmpl := tmplChoice[r.Intn(len(tmplChoice))]
		switch r.Intn(5) {
		case 0:
			return wire.SpaceOp{Op: policy.OpOut, Entry: entry}
		case 1:
			return wire.SpaceOp{Op: policy.OpRdp, Template: tmpl}
		case 2:
			return wire.SpaceOp{Op: policy.OpInp, Template: tmpl}
		case 3:
			return wire.SpaceOp{Op: policy.OpCas, Template: tmpl, Entry: entry}
		default:
			return wire.SpaceOp{Op: policy.OpRdAll, Template: tmpl}
		}
	}

	for round := 0; round < 40; round++ {
		var payloads [][]byte
		var clients []string
		for j := 0; j < 1+r.Intn(4); j++ {
			clients = append(clients, fmt.Sprintf("c%d", r.Intn(3)))
			if r.Intn(2) == 0 {
				payloads = append(payloads, wire.EncodeSpaceOp(randOp()))
			} else {
				ops := make([]wire.SpaceOp, 1+r.Intn(4))
				for k := range ops {
					ops[k] = randOp()
				}
				payloads = append(payloads, wire.EncodeSpaceTx(wire.SpaceTx{Ops: ops}))
			}
		}
		var ref [][]byte
		for i, svc := range svcs {
			var out [][]byte
			for k := range payloads {
				out = append(out, svc.Execute(clients[k], payloads[k]))
			}
			if i == 0 {
				ref = out
				continue
			}
			for k := range out {
				if !bytes.Equal(ref[k], out[k]) {
					t.Fatalf("round %d req %d: %v/%d diverges from %v/%d",
						round, k, cfgs[i].e, cfgs[i].shards, cfgs[0].e, cfgs[0].shards)
				}
			}
		}
		base := svcs[0].Snapshot()
		for i := 1; i < len(svcs); i++ {
			if !bytes.Equal(base, svcs[i].Snapshot()) {
				t.Fatalf("round %d: snapshots diverge at %v/%d", round, cfgs[i].e, cfgs[i].shards)
			}
		}
	}
}

// TestServiceTxAbortSkipsTail pins the wire-level abort shape: the
// failing op keeps its own status and everything after it is
// StatusSkipped, with no staged effect committed.
func TestServiceTxAbortSkipsTail(t *testing.T) {
	svc := NewSpaceService(policy.AllowAll())
	raw := svc.Execute("c", wire.EncodeSpaceTx(wire.SpaceTx{Ops: []wire.SpaceOp{
		{Op: policy.OpOut, Entry: tuple.T(tuple.Str("A"))},
		{Op: policy.OpInp, Template: tuple.T(tuple.Str("MISSING"))},
		{Op: policy.OpOut, Entry: tuple.T(tuple.Str("B"))},
	}}))
	rs, err := wire.DecodeSpaceResults(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("%d results, want 3", len(rs))
	}
	if rs[0].Status != wire.StatusOK || rs[1].Status != wire.StatusOK || rs[1].Found {
		t.Fatalf("head results: %+v", rs[:2])
	}
	if rs[2].Status != wire.StatusSkipped {
		t.Fatalf("tail status = %v, want skipped", rs[2].Status)
	}
	if svc.Space().Len() != 0 {
		t.Error("aborted tx left effects behind")
	}

	// Denial aborts the same way, carrying the tx position in Detail.
	denySvc := NewSpaceService(policy.New(policy.Rule{Name: "Rout", Op: policy.OpOut}))
	raw = denySvc.Execute("c", wire.EncodeSpaceTx(wire.SpaceTx{Ops: []wire.SpaceOp{
		{Op: policy.OpOut, Entry: tuple.T(tuple.Str("A"))},
		{Op: policy.OpRdp, Template: tuple.T(tuple.Str("A"))},
		{Op: policy.OpOut, Entry: tuple.T(tuple.Str("B"))},
	}}))
	rs, err = wire.DecodeSpaceResults(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].Status != wire.StatusDenied || rs[2].Status != wire.StatusSkipped {
		t.Fatalf("denied tx vector: %+v", rs)
	}
	if want := "[tx 2/3]"; !bytes.Contains([]byte(rs[1].Detail), []byte(want)) {
		t.Errorf("denial detail %q lacks %q", rs[1].Detail, want)
	}
	if denySvc.Space().Len() != 0 {
		t.Error("denied tx left effects behind")
	}
}

// TestClusterSubmitReadOnlyFastPath asserts all-read-only submissions
// skip ordering: the replicas' executed-sequence counters (the ordered
// rounds) must not advance for them, and must advance once a mutating
// op joins the unit.
func TestClusterSubmitReadOnlyFastPath(t *testing.T) {
	cl := newPEATSCluster(t, 1, policy.AllowAll())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ts := NewRemoteSpace(cl.Client("c"))
	for i := int64(0); i < 3; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("RO"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Let every replica execute the writes so the read-only quorum forms.
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range cl.Replicas {
		for r.Executed() < 3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	before := make([]uint64, len(cl.Replicas))
	for i, r := range cl.Replicas {
		before[i] = r.Executed()
	}

	for i := 0; i < 5; i++ {
		res, err := ts.Submit(ctx,
			peats.RdpOp(tuple.T(tuple.Str("RO"), tuple.Int(0))),
			peats.RdAllOp(tuple.T(tuple.Str("RO"), tuple.Any())),
		)
		if err != nil {
			t.Fatal(err)
		}
		if !res[0].Found || len(res[1].Tuples) != 3 {
			t.Fatalf("read results = %+v", res)
		}
	}
	for i, r := range cl.Replicas {
		if got := r.Executed(); got != before[i] {
			t.Errorf("replica %d ordered %d rounds during all-read-only submissions", i, got-before[i])
		}
	}

	// A mixed submission must order.
	if _, err := ts.Submit(ctx,
		peats.RdpOp(tuple.T(tuple.Str("RO"), tuple.Int(0))),
		peats.OutOp(tuple.T(tuple.Str("RO"), tuple.Int(9))),
	); err != nil {
		t.Fatal(err)
	}
	advanced := 0
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && advanced < 3 {
		advanced = 0
		for i, r := range cl.Replicas {
			if r.Executed() > before[i] {
				advanced++
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if advanced < 3 {
		t.Error("mixed submission never went through ordering")
	}
}

// TestClusterSubmitReadOnlyTxOrderedFallback: an all-read-only tx on a
// cluster where too few replicas serve the fast path must fall back to
// ordering and still return correct vectors.
func TestClusterSubmitReadOnlyTxOrderedFallback(t *testing.T) {
	pol := policy.AllowAll()
	cl, err := NewCluster(1, []Service{
		NewSpaceService(pol),
		orderedOnlyService{NewSpaceService(pol)},
		NewSpaceService(pol),
		orderedOnlyService{NewSpaceService(pol)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	w := NewRemoteSpace(cl.Client("w"))
	if err := w.Out(ctx, tuple.T(tuple.Str("F"), tuple.Int(7))); err != nil {
		t.Fatal(err)
	}
	cli := cl.Client("r")
	cli.ReadOnlyFallback = 20 * time.Millisecond
	reader := NewRemoteSpace(cli)
	res, err := reader.Submit(ctx,
		peats.RdpOp(tuple.T(tuple.Str("F"), tuple.Any())),
		peats.RdAllOp(tuple.T(tuple.Str("F"), tuple.Any())),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Found || len(res[1].Tuples) != 1 {
		t.Fatalf("fallback results = %+v", res)
	}
}

// TestClusterDenialDetailAcrossWire: a StatusDenied reply surfaces as
// errors.Is(err, peats.ErrDenied) with the monitor's Detail attached,
// on the single-op and the tx path alike.
func TestClusterDenialDetailAcrossWire(t *testing.T) {
	pol := policy.New(policy.Rule{Name: "Rout", Op: policy.OpOut,
		When: policy.EntryFieldIsInvoker(0)})
	cl := newPEATSCluster(t, 1, pol)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ts := NewRemoteSpace(cl.Client("mallory"))
	// Single-op path.
	err := ts.Out(ctx, tuple.T(tuple.Str("victim"), tuple.Int(1)))
	if !errors.Is(err, peats.ErrDenied) {
		t.Fatalf("single-op err = %v, want ErrDenied", err)
	}
	var denied *peats.DeniedError
	if !errors.As(err, &denied) || denied.Detail == "" {
		t.Fatalf("single-op denial lost its detail: %v", err)
	}
	if !bytes.Contains([]byte(denied.Detail), []byte("mallory")) {
		t.Errorf("detail %q does not name the invoker", denied.Detail)
	}

	// Tx path: allowed op first, denial mid-unit.
	res, err := ts.Submit(ctx,
		peats.OutOp(tuple.T(tuple.Str("mallory"), tuple.Int(1))),
		peats.OutOp(tuple.T(tuple.Str("victim"), tuple.Int(2))),
	)
	if !errors.Is(err, peats.ErrDenied) {
		t.Fatalf("tx err = %v, want ErrDenied", err)
	}
	denied = nil
	if !errors.As(err, &denied) || !bytes.Contains([]byte(denied.Detail), []byte("[tx 2/2]")) {
		t.Fatalf("tx denial detail = %v", err)
	}
	if len(res) != 1 {
		t.Errorf("tx denial prefix = %+v", res)
	}
	// The allowed first op must not have executed (abort).
	if _, ok, _ := ts.Rdp(ctx, tuple.T(tuple.Str("mallory"), tuple.Any())); ok {
		t.Error("denied tx committed its allowed prefix")
	}
}

// TestClusterSubmitSingleOpParity runs the same randomized op sequence
// through the legacy methods and through one-op Submit against two
// equally-configured clusters, for both engines at shard counts
// {1, 4, 16}: results must match pairwise — over the wire exactly as
// locally, the legacy methods are wrappers over Submit.
func TestClusterSubmitSingleOpParity(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, e := range space.Engines() {
		for _, shards := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/%d", e, shards), func(t *testing.T) {
				mk := func() *Cluster {
					services := make([]Service, 4)
					for i := range services {
						svc, err := NewSpaceServiceWithConfig(policy.AllowAll(), e, shards)
						if err != nil {
							t.Fatal(err)
						}
						services[i] = svc
					}
					// Instrument the cluster and scrape the shared registry
					// while the randomized workload runs: snapshots must
					// never perturb replica state (the parity assertions
					// below are the oracle), and the race detector covers
					// every update/scrape interleaving.
					reg := metrics.New()
					var events atomic.Uint64
					cl, err := NewCluster(1, services,
						WithMetrics(reg),
						WithEventSink(func(Event) { events.Add(1) }))
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(cl.Stop)
					stop := make(chan struct{})
					go func() {
						for {
							select {
							case <-stop:
								return
							case <-time.After(200 * time.Microsecond):
								reg.Snapshot()
							}
						}
					}()
					t.Cleanup(func() {
						close(stop)
						if events.Load() == 0 {
							t.Error("event sink saw no protocol events")
						}
						executed := false
						for _, f := range reg.Snapshot().Families {
							if f.Name != "peats_bft_batches_executed_total" {
								continue
							}
							for _, s := range f.Series {
								executed = executed || s.Value > 0
							}
						}
						if !executed {
							t.Error("no replica recorded executed batches")
						}
					})
					return cl
				}
				legacy := NewRemoteSpace(mk().Client("p"))
				viaSubmit := NewRemoteSpace(mk().Client("p"))
				r := rand.New(rand.NewSource(int64(13 + shards)))
				for i := 0; i < 25; i++ {
					kind := r.Intn(5)
					entry := tuple.T(tuple.Str("K"), tuple.Int(int64(r.Intn(3))))
					tmpl := entry
					if r.Intn(2) == 0 {
						tmpl = tuple.T(tuple.Str("K"), tuple.Any())
					}
					var a, b string
					switch kind {
					case 0:
						a = fmt.Sprint(legacy.Out(ctx, entry))
						res, err := viaSubmit.Submit(ctx, peats.OutOp(entry))
						b = fmt.Sprint(err)
						_ = res
					case 1:
						u, ok, err := legacy.Rdp(ctx, tmpl)
						a = fmt.Sprint(u, ok, err)
						res, err := viaSubmit.Submit(ctx, peats.RdpOp(tmpl))
						b = fmt.Sprint(res[0].Tuple, res[0].Found, err)
					case 2:
						u, ok, err := legacy.Inp(ctx, tmpl)
						a = fmt.Sprint(u, ok, err)
						res, err := viaSubmit.Submit(ctx, peats.InpOp(tmpl))
						b = fmt.Sprint(res[0].Tuple, res[0].Found, err)
					case 3:
						ins, m, err := legacy.Cas(ctx, tmpl, entry)
						a = fmt.Sprint(ins, m, err)
						res, err := viaSubmit.Submit(ctx, peats.CasOp(tmpl, entry))
						b = fmt.Sprint(res[0].Inserted, res[0].Tuple, err)
					default:
						all, err := legacy.RdAll(ctx, tmpl)
						a = fmt.Sprint(all, err)
						res, err := viaSubmit.Submit(ctx, peats.RdAllOp(tmpl))
						b = fmt.Sprint(res[0].Tuples, err)
					}
					if a != b {
						t.Fatalf("step %d kind %d: legacy %q vs submit %q", i, kind, a, b)
					}
				}
			})
		}
	}
}

// TestPollDelayBackoff pins the backoff schedule: delays start at the
// floor, grow exponentially, jitter within [base, 1.5·base], and never
// exceed the cap.
func TestPollDelayBackoff(t *testing.T) {
	floor, max := 4*time.Millisecond, 50*time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		base := floor
		for i := 0; i < attempt && base < max; i++ {
			base *= 2
		}
		if base > max {
			base = max
		}
		hi := base + base/2
		if hi > max {
			hi = max
		}
		for trial := 0; trial < 20; trial++ {
			d := pollDelay(floor, max, attempt)
			if d < base || d > hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, base, hi)
			}
		}
	}
	// A floor at (or above) the cap degenerates to constant-interval
	// polling at the floor.
	if d := pollDelay(max, max, 5); d != max {
		t.Errorf("saturated delay = %v, want exactly %v", d, max)
	}
}

// TestPollFloorAtOrAboveCapDegenerates drives the poll loop itself
// (no cluster) with a floor above the cap: the effective schedule is
// constant at the floor with zero jitter headroom, so two misses cost
// exactly two floor-length sleeps before the hit returns.
func TestPollFloorAtOrAboveCapDegenerates(t *testing.T) {
	s := &RemoteSpace{PollInterval: 30 * time.Millisecond, PollMaxInterval: 10 * time.Millisecond}
	calls := 0
	start := time.Now()
	got, err := s.poll(context.Background(), tuple.T(tuple.Str("X")),
		func(context.Context, tuple.Tuple) (tuple.Tuple, bool, error) {
			calls++
			return tuple.T(tuple.Int(int64(calls))), calls >= 3, nil
		})
	if err != nil || calls != 3 {
		t.Fatalf("poll: calls=%d err=%v", calls, err)
	}
	if v, _ := got.Field(0).IntValue(); v != 3 {
		t.Fatalf("poll returned %v, want the third attempt's tuple", got)
	}
	if elapsed := time.Since(start); elapsed < 2*s.PollInterval {
		t.Errorf("two misses slept %v, want ≥ %v (floor must win over a lower cap)",
			elapsed, 2*s.PollInterval)
	}
}

// TestPollCancellationAndErrorPropagation: cancelling the context while
// the poll loop is parked in backoff unblocks it promptly, and an
// operation error aborts the loop immediately without a retry.
func TestPollCancellationAndErrorPropagation(t *testing.T) {
	s := &RemoteSpace{PollInterval: 20 * time.Millisecond, PollMaxInterval: time.Second}
	miss := func(context.Context, tuple.Tuple) (tuple.Tuple, bool, error) {
		return tuple.Tuple{}, false, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond) // poll is parked in its second backoff
		cancel()
	}()
	start := time.Now()
	if _, err := s.poll(ctx, tuple.T(tuple.Str("X")), miss); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled poll err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("cancellation took %v to unblock a parked poller", elapsed)
	}

	// A context cancelled before the first attempt still runs the
	// operation once (matching Rdp/Inp, which surface their own ctx
	// error) and then stops in the select.
	calls := 0
	if _, err := s.poll(ctx, tuple.T(tuple.Str("X")),
		func(context.Context, tuple.Tuple) (tuple.Tuple, bool, error) {
			calls++
			return tuple.Tuple{}, false, nil
		}); !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("pre-cancelled poll: calls=%d err=%v", calls, err)
	}

	boom := errors.New("replica unreachable")
	calls = 0
	if _, err := s.poll(context.Background(), tuple.T(tuple.Str("X")),
		func(context.Context, tuple.Tuple) (tuple.Tuple, bool, error) {
			calls++
			return tuple.Tuple{}, false, boom
		}); !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("error propagation: calls=%d err=%v", calls, err)
	}
}

// TestRemoteSpacePollBackoffStillDelivers: a blocking Rd with an
// aggressive floor finds a late tuple and respects cancellation.
func TestRemoteSpacePollBackoffStillDelivers(t *testing.T) {
	cl := newPEATSCluster(t, 1, policy.AllowAll())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	reader := NewRemoteSpace(cl.Client("reader"))
	reader.PollInterval = time.Millisecond
	reader.PollMaxInterval = 10 * time.Millisecond
	writer := NewRemoteSpace(cl.Client("writer"))

	done := make(chan error, 1)
	go func() {
		_, err := reader.Rd(ctx, tuple.T(tuple.Str("LATE"), tuple.Any()))
		done <- err
	}()
	time.Sleep(60 * time.Millisecond) // several backoff doublings pass
	if err := writer.Out(ctx, tuple.T(tuple.Str("LATE"), tuple.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocking rd under backoff: %v", err)
	}

	// Cancellation interrupts a parked poller.
	cctx, ccancel := context.WithCancel(ctx)
	go func() {
		time.Sleep(20 * time.Millisecond)
		ccancel()
	}()
	if _, err := reader.Rd(cctx, tuple.T(tuple.Str("NEVER"))); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rd err = %v", err)
	}
}
