package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"peats/internal/auth"
	"peats/internal/bft"
	"peats/internal/durable"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/space"
	"peats/internal/transport"
	"peats/internal/wire"
)

// The micro-probes call one layer's exported functions on one
// goroutine, a fixed number of times, with inputs shaped like the
// workload's. They run after the traced window, when the process is
// otherwise idle.
const probeOps = 20000

// perOp times n calls of fn and returns the mean in nanoseconds.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// probes fills in the micro-probe metrics; scratch is a directory for
// the probe database and recoverDir the stopped primary's data
// directory. A probe that cannot run is an error of the run.
func probes(m map[string]value, s spec, seed int64, scratch, recoverDir string) error {
	put := func(name string, v float64, n int) { putPerLayer(m, name, v, n) }
	rng := rand.New(rand.NewSource(seed))

	// space: the indexed engine, one shard, holding the resident keys;
	// and the same holding the pinned locks, all in one index bucket.
	keys := space.New()
	for key := 0; key < universe; key++ {
		if initiallyPresent(key) {
			if err := keys.Out(keyEntry(key, 1)); err != nil {
				return err
			}
		}
	}
	absent := func() int { // a key not resident at the start
		for {
			if key := rng.Intn(universe); !initiallyPresent(key) {
				return key
			}
		}
	}
	put("space.out_inp_ns", perOp(probeOps, func(int) {
		key := absent()
		_ = keys.Out(keyEntry(key, 1))
		keys.Inp(keyTemplate(key))
	})/2, 2*probeOps)
	put("space.rdp_ns", perOp(probeOps, func(int) {
		keys.Rdp(keyTemplate(rng.Intn(universe)))
	}), probeOps)

	locks := space.New()
	for c := 0; c < nConns; c++ {
		for i := 0; i < pinnedLocks; i++ {
			if err := locks.Out(lockEntry(lockName(c, true, i), fmt.Sprintf("c%d", c))); err != nil {
				return err
			}
		}
	}
	// A template with a formal field scans the bucket, at tens of µs a
	// call, so this probe makes a tenth of the calls.
	put("space.lock_bucket_cas_ns", perOp(probeOps/10, func(int) {
		name := lockName(0, false, rng.Intn(cycledLocks))
		op := lockAcquire(name, "c0")
		_, _, _ = locks.Cas(op.Template, op.Entry)
		locks.Inp(op.Entry)
	})/2, probeOps/5)

	// peats: the workload's own schedule against a local, unreplicated
	// PEATS under the workload's policy — the single-node baseline.
	local, err := localBaseline(s, seed, probeOps)
	if err != nil {
		return err
	}
	put("peats.submit_local_ns", local, probeOps)

	// wire and auth: the request a connection sends most.
	g := newGenerator(s, 0, seed)
	var ops []peats.Op
	switch {
	case s.locks:
		ops = g.acquirePair(lockName(0, false, 0), lockName(0, false, 1)).ops
	case s.reads > 0.5:
		ops = g.read(0).ops
	default:
		ops = g.toggle(0).ops // the model starts empty, so this is an out
	}
	raw := requestBytes(ops)
	put("wire.req_bytes", float64(len(raw)), 1)
	put("wire.encode_op_ns", perOp(probeOps, func(int) { requestBytes(ops) }), probeOps)
	put("wire.decode_op_ns", perOp(probeOps, func(int) {
		if wire.IsSpaceTx(raw) {
			_, _ = wire.DecodeSpaceTx(raw)
		} else {
			_, _ = wire.DecodeSpaceOp(raw)
		}
	}), probeOps)

	replicas := replicaIDs()
	kr := auth.NewKeyringFromMaster([]byte(master), "c0", replicas)
	req := bft.Request{Client: "c0", ReqID: 1, Op: raw}
	digest := req.Digest()
	put("auth.mac_ns", perOp(probeOps, func(int) { _, _ = kr.MAC("r0", digest[:]) }), probeOps)
	// The authenticator vector a client attaches: the request digest
	// and one MAC per replica.
	put("auth.authvec_ns", perOp(probeOps, func(i int) {
		req.ReqID = uint64(i)
		d := req.Digest()
		for _, r := range replicas {
			_, _ = kr.MAC(r, d[:])
		}
	}), probeOps)

	if err := durableProbes(put, scratch, recoverDir); err != nil {
		return err
	}
	rtt, n, err := pingPong()
	if err != nil {
		return err
	}
	put("transport.rtt_us_p50", rtt, n)
	return nil
}

// newLocal preloads a local, unreplicated PEATS under the workload's
// policy with both connections' resident state and returns connection
// c0's generator and handle.
func newLocal(s spec, seed int64) (*generator, *peats.Handle, error) {
	sp := peats.New(s.policy())
	var (
		g *generator
		h *peats.Handle
	)
	for c := nConns - 1; c >= 0; c-- {
		g = newGenerator(s, c, seed)
		h = sp.Handle(policy.ProcessID(g.self))
		for _, it := range g.preload() {
			if err := it.check(h.Submit(context.Background(), it.ops...)); err != nil {
				return nil, nil, fmt.Errorf("local preload: %w", err)
			}
		}
	}
	return g, h, nil
}

// localBaseline runs the first n operations of connection c0's
// schedule against a local PEATS and returns nanoseconds per checked
// Submit.
func localBaseline(s spec, seed int64, n int) (float64, error) {
	g, h, err := newLocal(s, seed)
	if err != nil {
		return 0, err
	}
	var failed error
	ns := perOp(n, func(int) {
		it := g.plan(g.draw())
		if err := it.check(h.Submit(context.Background(), it.ops...)); err != nil && failed == nil {
			failed = err
		}
	})
	if failed != nil {
		return 0, fmt.Errorf("local baseline: %w", failed)
	}
	return ns, nil
}

// durableProbes measures the log on a scratch database: sealing one
// agreement unit of flushDepth keyed writes, DB.Flush (write and fsync)
// after each, and durable.Open on what the traced primary left behind.
func durableProbes(put func(name string, v float64, n int), scratch, recoverDir string) error {
	const units = 200
	dir := filepath.Join(scratch, "probe-db")
	defer os.RemoveAll(dir)
	db, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncInterval, AutoCompactBytes: -1})
	if err != nil {
		return err
	}
	defer db.Close()
	svc, err := bft.NewDurableSpaceService(policy.AllowAll(), db, 1)
	if err != nil {
		return err
	}
	var commit time.Duration
	flushes := make([]float64, 0, units)
	for u := 1; u <= units; u++ {
		svc.BeginUnit(uint64(u))
		for i := 0; i < flushDepth; i++ {
			svc.Execute("c0", requestBytes([]peats.Op{peats.OutOp(keyEntry((u*flushDepth+i)%universe, int64(u)))}))
		}
		start := time.Now()
		svc.CommitUnit(nil)
		sealed := time.Now()
		if err := db.Flush(); err != nil {
			return err
		}
		commit += sealed.Sub(start)
		flushes = append(flushes, millis(time.Since(sealed)))
	}
	sort.Float64s(flushes)
	put("durable.unit_commit_us", micros(commit)/units, units)
	put("durable.flush_ms_p50", percentile(flushes, 50), units)

	start := time.Now()
	rec, err := durable.Open(durable.Options{Dir: recoverDir, Sync: durable.SyncInterval, AutoCompactBytes: -1})
	if err != nil {
		return fmt.Errorf("recover %s: %w", recoverDir, err)
	}
	put("durable.recover_ms", millis(time.Since(start)), len(rec.Recovered().Tuples))
	return rec.Close()
}

// pingPong bounces a 128-byte protocol frame between two TCP
// transports on loopback and returns the median round trip in µs.
func pingPong() (float64, int, error) {
	const trips = 2000
	ids := []string{"a", "b"}
	a, err := transport.NewTCP("a", "127.0.0.1:0", nil, auth.NewKeyringFromMaster([]byte(master), "a", ids))
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := transport.NewTCP("b", "127.0.0.1:0", map[string]string{"a": a.Addr()}, auth.NewKeyringFromMaster([]byte(master), "b", ids))
	if err != nil {
		return 0, 0, err
	}
	a.SetPeerAddr("b", b.Addr())
	stop, echoed := make(chan struct{}), make(chan struct{})
	go func() { // echoes until told to stop; a closed transport's inbox stays open
		defer close(echoed)
		for {
			select {
			case m := <-b.Inbox():
				_ = b.Send("a", m.Payload)
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-echoed
		_ = b.Close()
	}()
	payload := make([]byte, 128)
	rtts := make([]float64, 0, trips)
	for i := 0; i < trips; i++ {
		start := time.Now()
		if err := a.Send("b", payload); err != nil {
			return 0, 0, err
		}
		select {
		case <-a.Inbox():
		case <-time.After(opTimeout):
			return 0, 0, fmt.Errorf("ping-pong: no echo for frame %d", i)
		}
		rtts = append(rtts, micros(time.Since(start)))
	}
	sort.Float64s(rtts)
	return percentile(rtts, 50), trips, nil
}
