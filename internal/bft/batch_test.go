package bft

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"peats/internal/policy"
	"peats/internal/tuple"
)

// TestClusterBatchedDuplicateRequestsExecuteOnce generalizes
// TestClusterDuplicateRequestsExecuteOnce to batches: concurrent
// clients with aggressive retransmission on a batching cluster must
// still execute every request exactly once — the at-most-once client
// table applies inside batches exactly as it does per request.
func TestClusterBatchedDuplicateRequestsExecuteOnce(t *testing.T) {
	pol := policy.AllowAll()
	cl, err := NewCluster(1, []Service{
		NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol),
	}, WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const clients, ops = 4, 10
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli := cl.Client(fmt.Sprintf("dup%d", c))
			cli.RetransmitInterval = 5 * time.Millisecond // aggressive resends
			ts := NewRemoteSpace(cli)
			for i := 0; i < ops; i++ {
				if err := ts.Out(ctx, tuple.T(tuple.Str("DUP"), tuple.Int(int64(c)))); err != nil {
					t.Errorf("client %d out %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	reader := NewRemoteSpace(cl.Client("reader"))
	for c := 0; c < clients; c++ {
		count := 0
		for {
			_, ok, err := reader.Inp(ctx, tuple.T(tuple.Str("DUP"), tuple.Int(int64(c))))
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			count++
		}
		if count != ops {
			t.Errorf("client %d: %d DUP tuples, want %d (lost or duplicated execution)", c, count, ops)
		}
	}
}

// TestBatchingCoalescesConcurrentRequests asserts batching actually
// engages: under concurrent load the primary must issue strictly fewer
// proposals than requests.
func TestBatchingCoalescesConcurrentRequests(t *testing.T) {
	pol := policy.AllowAll()
	cl, err := NewCluster(1, []Service{
		NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol),
	}, WithBatchSize(16))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const writers, ops = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ts := NewRemoteSpace(cl.Client(fmt.Sprintf("w%d", w)))
			for i := 0; i < ops; i++ {
				if err := ts.Out(ctx, tuple.T(tuple.Str("B"), tuple.Int(int64(w)), tuple.Int(int64(i)))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	total := uint64(writers * ops)
	proposals := cl.Replicas[0].BatchesProposed()
	if proposals == 0 || proposals >= total {
		t.Errorf("primary proposed %d batches for %d requests — batching never engaged", proposals, total)
	}
	t.Logf("%d requests in %d proposals (avg batch %.1f)", total, proposals, float64(total)/float64(proposals))
}

// TestLogBoundedUnderSustainedLoad asserts the checkpoint garbage
// collection: protocol-log records (entries, pending, assigned, queue,
// unverified) must stay bounded under sustained load instead of
// growing with the request count.
func TestLogBoundedUnderSustainedLoad(t *testing.T) {
	pol := policy.AllowAll()
	cl, err := NewCluster(1, []Service{
		NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol),
	}, WithBatchSize(4), WithCheckpointInterval(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const clients, ops = 4, 60 // 240 requests, far above any allowed log bound
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ts := NewRemoteSpace(cl.Client(fmt.Sprintf("s%d", c)))
			entry := tuple.T(tuple.Str("S"), tuple.Int(int64(c)))
			for i := 0; i < ops; i++ {
				if i%2 == 0 {
					if err := ts.Out(ctx, entry); err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
				} else if _, _, err := ts.Inp(ctx, entry); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// Give trailing commits and checkpoints a moment to settle.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		worst := int64(0)
		for _, r := range cl.Replicas {
			if lr := r.LogRecords(); lr > worst {
				worst = lr
			}
		}
		if worst <= 64 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i, r := range cl.Replicas {
		t.Logf("r%d: %d log records, executed %d", i, r.LogRecords(), r.Executed())
	}
	t.Errorf("log records not garbage-collected at stable checkpoints")
}

// orderedOnlyService hides every optional extension of a SpaceService
// (read-only, tentative, delta checkpoints, durability), modelling a
// service that can only execute ordered, one request at a time, at
// commit — the sequential reference the staged path is held to.
type orderedOnlyService struct {
	inner *SpaceService
}

func (s orderedOnlyService) Execute(client string, op []byte) []byte {
	return s.inner.Execute(client, op)
}
func (s orderedOnlyService) Snapshot() []byte       { return s.inner.Snapshot() }
func (s orderedOnlyService) Restore(b []byte) error { return s.inner.Restore(b) }

// TestReadOnlyFallsBackToOrdered: when too few replicas can serve the
// read-only fast path (here two replicas whose service cannot execute
// read-only), the 2f+1 vote cannot form and the client must fall back
// to ordered execution — and still return the correct result.
func TestReadOnlyFallsBackToOrdered(t *testing.T) {
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
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	ts := NewRemoteSpace(cl.Client("w"))
	if err := ts.Out(ctx, tuple.T(tuple.Str("RO"), tuple.Int(7))); err != nil {
		t.Fatal(err)
	}
	cli := cl.Client("r")
	cli.ReadOnlyFallback = 20 * time.Millisecond
	reader := NewRemoteSpace(cli)
	got, ok, err := reader.Rdp(ctx, tuple.T(tuple.Str("RO"), tuple.Any()))
	if err != nil || !ok {
		t.Fatalf("rdp via fallback: %v %v", ok, err)
	}
	if v, _ := got.Field(1).IntValue(); v != 7 {
		t.Errorf("rdp = %v", got)
	}
}

// TestReadOnlyMatchesOrdered: the fast path and the ordered path must
// agree on results over a settled cluster, found and not-found alike.
func TestReadOnlyMatchesOrdered(t *testing.T) {
	cl := newPEATSCluster(t, 1, policy.AllowAll())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	w := NewRemoteSpace(cl.Client("w"))
	for i := int64(0); i < 5; i++ {
		if err := w.Out(ctx, tuple.T(tuple.Str("M"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	ro := NewRemoteSpace(cl.Client("ro"))
	ordered := NewRemoteSpace(cl.Client("ord"))
	ordered.OrderedReads = true
	for _, tmpl := range []tuple.Tuple{
		tuple.T(tuple.Str("M"), tuple.Int(3)),
		tuple.T(tuple.Str("M"), tuple.Any()),
		tuple.T(tuple.Str("ABSENT"), tuple.Any()),
	} {
		gotRO, okRO, err := ro.Rdp(ctx, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		gotOrd, okOrd, err := ordered.Rdp(ctx, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		if okRO != okOrd || gotRO.String() != gotOrd.String() {
			t.Errorf("rdp(%v): read-only %v/%v vs ordered %v/%v", tmpl, gotRO, okRO, gotOrd, okOrd)
		}
		allRO, err := ro.RdAll(ctx, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		allOrd, err := ordered.RdAll(ctx, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		if len(allRO) != len(allOrd) {
			t.Errorf("rdAll(%v): read-only %d vs ordered %d", tmpl, len(allRO), len(allOrd))
		}
	}
}
