package sim

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"peats/internal/auth"
	"peats/internal/bft"
	"peats/internal/durable"
	"peats/internal/policy"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// Result is one simulated run's outcome. Trace and StateDigest are the
// determinism witnesses: a (schedule, seed) pair must reproduce both
// byte for byte.
type Result struct {
	Schedule    Schedule
	Trace       [32]byte // digest of every observable network/fault event
	StateDigest [32]byte // converged replica state digest
	Executed    uint64   // committed batches at convergence
	Events      uint64   // loop events fired
	Err         error    // nil = all standing invariants held
}

// Failed reports whether the run violated an invariant (or never
// converged).
func (r Result) Failed() bool { return r.Err != nil }

// Run executes one schedule to completion and checks the standing
// invariants. The "twopc" schedule runs the two-group 2PC scenario;
// everything else runs a single 4-replica group.
func Run(sched Schedule) Result {
	if sched.Name == "twopc" {
		return runTwoPC(sched)
	}
	return runSingle(sched)
}

// grace is how long past the horizon a run may take to converge before
// it is declared a liveness failure (virtual time, costs nothing).
const grace = 60 * time.Second

// node is one replica slot of the simulated group, tracking the
// current incarnation (nil while crashed).
type node struct {
	id   string
	rep  *bft.Replica
	svc  *bft.SpaceService
	dir  string // durable data dir; "" = in-memory service
	down bool
}

// harness runs a single 4-replica group under one schedule.
type harness struct {
	sched Schedule
	loop  *Loop
	net   *Net
	nodes []*node

	// krs holds each replica's keyring; clients install their pairwise
	// keys here, and restarted incarnations keep theirs (the keys
	// re-derive from the deployment master, as in a real restart).
	krs map[string]*auth.Keyring

	// ckpts merges every incarnation's checkpoint digests; a seq with
	// two digests is an agreement-safety violation.
	ckpts map[uint64][32]byte
	err   error
}

func (h *harness) fail(format string, args ...any) {
	if h.err == nil {
		h.err = fmt.Errorf(format, args...)
	}
}

// buildService creates a node's service: in-memory, or durable over
// the node's data dir (reopened across crash-restarts).
func (h *harness) buildService(nd *node) (*bft.SpaceService, error) {
	if nd.dir == "" {
		return bft.NewSpaceService(policy.AllowAll()), nil
	}
	// SyncNever: fsync scheduling belongs to real time, and the graceful
	// crash model closes the WAL cleanly anyway (torn-tail recovery is
	// covered by the durable package's own tests).
	db, err := durable.Open(durable.Options{Dir: nd.dir, Sync: durable.SyncNever})
	if err != nil {
		return nil, err
	}
	return bft.NewDurableSpaceService(policy.AllowAll(), db, 1)
}

// compactEvery draws the replicas' checkpoint grid from the run's seed:
// 1 makes every checkpoint a full-state digest, 3 puts delta
// checkpoints, chain packs and a recovered replica's re-join onto the
// chain under the same schedules.
func compactEvery(seed int64) int {
	return 1 + 2*rand.New(rand.NewSource(seed^0xc9a1d)).Intn(2)
}

func (h *harness) replicaIDs() []string {
	ids := make([]string, len(h.nodes))
	for i, nd := range h.nodes {
		ids[i] = nd.id
	}
	return ids
}

// startReplica builds and starts nd's replica incarnation in driven
// mode, wiring its inbound handler into the network.
func (h *harness) startReplica(nd *node) error {
	svc, err := h.buildService(nd)
	if err != nil {
		return err
	}
	var lg *log.Logger
	if simDebug {
		lg = log.New(os.Stderr, nd.id+" ", 0)
	}
	rep, err := bft.NewReplica(bft.ReplicaConfig{
		ID:        nd.id,
		Replicas:  h.replicaIDs(),
		F:         1,
		Transport: h.net.Endpoint(nd.id),
		Service:   svc,
		Logger:    lg,
		// Small checkpoint interval so state transfer and checkpoint
		// agreement are exercised within a short horizon. Whatever the
		// mode, a digest an honest replica publishes is the group's: the
		// cross-replica agreement invariant compares them directly.
		CheckpointInterval:    4,
		CompactEvery:          compactEvery(h.sched.Seed),
		KeepCheckpointHistory: true,
		ViewChangeTimeout:     150 * time.Millisecond,
		BatchSize:             4,
		Keyring:               h.krs[nd.id],
		Clock:                 h.loop.Clock(),
	})
	if err != nil {
		svc.Close()
		return err
	}
	nd.svc, nd.rep = svc, rep
	rep.StartDriven()
	h.net.Register(nd.id, rep.Deliver)
	h.net.SetDown(nd.id, false)
	nd.down = false
	return nil
}

// harvest folds one incarnation's checkpoint digests into the run-wide
// agreement table.
func (h *harness) harvest(nd *node) {
	for seq, d := range nd.rep.CheckpointDigests() {
		if prev, ok := h.ckpts[seq]; ok && prev != d {
			h.fail("checkpoint disagreement at seq %d: %x vs %x (replica %s)", seq, prev, d, nd.id)
		}
		h.ckpts[seq] = d
	}
}

// crash stops a node: timers disarmed, durable engine closed cleanly,
// network slot marked down. In-flight messages toward it are dropped.
func (h *harness) crash(nd *node) {
	if nd.down {
		return
	}
	h.harvest(nd)
	nd.rep.Stop()
	nd.svc.Close()
	h.net.Register(nd.id, nil)
	h.net.SetDown(nd.id, true)
	nd.rep, nd.svc = nil, nil
	nd.down = true
}

func (h *harness) restart(nd *node) {
	if !nd.down {
		return
	}
	if err := h.startReplica(nd); err != nil {
		h.fail("restart %s: %v", nd.id, err)
	}
}

func (h *harness) upNodes() []*node {
	up := make([]*node, 0, len(h.nodes))
	for _, nd := range h.nodes {
		if !nd.down {
			up = append(up, nd)
		}
	}
	return up
}

// converged reports whether every live replica has reached the same
// committed execution point with byte-identical state and no tentative
// overlay in flight.
func (h *harness) converged() bool {
	up := h.upNodes()
	if len(up) == 0 {
		return false
	}
	ref := up[0]
	refDigest := ref.rep.StateDigest()
	for _, nd := range up {
		if nd.svc.TentativeDepth() != 0 {
			return false
		}
		if nd.rep.Executed() != ref.rep.Executed() || nd.rep.StateDigest() != refDigest {
			return false
		}
	}
	return true
}

// workload is one client's scripted op sequence: unique out-tuples
// keyed (client, reqID), so the at-most-once invariant is a tuple
// count per request ID. The ops go out as requests of 1–8 operations
// (seeded), so windows both fit the replicas' batch size of 4 and
// exceed it.
type workload struct {
	c    *client
	rng  *rand.Rand
	ops  int
	next int
}

func clientTuple(id string, reqID int) tuple.Tuple {
	return tuple.T(tuple.Str(id), tuple.Int(int64(reqID)))
}

func outOp(id string, reqID int) []byte {
	return wire.EncodeSpaceOp(wire.SpaceOp{Op: policy.OpOut, Entry: clientTuple(id, reqID)})
}

func (w *workload) pump() {
	if w.next > w.ops || !w.c.idle() {
		return
	}
	window := make([][]byte, min(1+w.rng.Intn(8), w.ops-w.next+1))
	for i := range window {
		window[i] = outOp(w.c.id, w.next+i)
	}
	w.next += len(window)
	w.c.submit(window...)
}

func (w *workload) done() bool { return w.next > w.ops && w.c.idle() }

func runSingle(sched Schedule) Result {
	res := Result{Schedule: sched}
	loop := NewLoop()
	rng := rand.New(rand.NewSource(sched.Seed))
	h := &harness{
		sched: sched,
		loop:  loop,
		net:   NewNet(loop, rng, &sched),
		ckpts: make(map[uint64][32]byte),
	}
	const n = 4
	var tmp string
	if len(sched.Crashes) > 0 {
		// Crash-restarts reopen real durable data dirs; everything else
		// stays in memory.
		var err error
		tmp, err = os.MkdirTemp("", "peats-sim-")
		if err != nil {
			res.Err = err
			return res
		}
		defer os.RemoveAll(tmp)
	}
	for i := 0; i < n; i++ {
		nd := &node{id: fmt.Sprintf("r%d", i)}
		if tmp != "" {
			nd.dir = filepath.Join(tmp, nd.id)
		}
		h.nodes = append(h.nodes, nd)
	}
	h.krs = makeKeyrings(h.replicaIDs())
	for _, nd := range h.nodes {
		if err := h.startReplica(nd); err != nil {
			res.Err = err
			return res
		}
	}
	// Byzantine replicas are taken from the end of the group so the
	// initial primary stays honest (the fault model bounds them by f).
	// A crash-restarted replica forgets its protocol log (only executed
	// state is in the WAL), which makes it faulty until it catches up —
	// so when the schedule also crashes someone, the Byzantine replica
	// must BE a crash victim, or the run would exceed f total faults
	// and no protocol could keep its guarantees.
	for k := 0; k < sched.NumByzantine && k < 1; k++ {
		byz := h.nodes[n-1-k]
		if len(sched.Crashes) > 0 {
			byz = h.nodes[sched.Crashes[0].Replica%n]
		}
		h.net.SetByzantine(byz.id, true)
	}

	// Workload: two clients racing short op chains through the faults.
	var loads []*workload
	for i := 0; i < 2; i++ {
		c := newClient(fmt.Sprintf("c%d", i), h.net, loop, h.replicaIDs(), 1, h.krs)
		w := &workload{c: c, rng: rand.New(rand.NewSource(sched.Seed<<8 + int64(i))), ops: 24, next: 1}
		c.onResult = func(uint64, []byte) { w.pump() }
		loads = append(loads, w)
		start := time.Duration(10+5*i) * time.Millisecond
		loop.After(start, w.pump)
	}

	// Script the declared faults.
	for _, p := range sched.Partitions {
		minority := make([]string, 0, len(p.Minority))
		for _, idx := range p.Minority {
			minority = append(minority, h.nodes[idx%n].id)
		}
		loop.After(p.At, func() { h.net.Partition(minority) })
		loop.After(p.HealAt, h.net.Heal)
	}
	for _, c := range sched.Crashes {
		nd := h.nodes[c.Replica%n]
		loop.After(c.At, func() { h.crash(nd) })
		if c.RestartAt > 0 {
			loop.After(c.RestartAt, func() { h.restart(nd) })
		}
	}

	loop.RunUntil(epoch.Add(sched.Horizon))

	// Recovery phase: faults off, partitions healed, crashed-forever
	// nodes stay down (≤ f of them). The prober keeps committing fresh
	// operations so post-restart replicas see new checkpoints and can
	// state-transfer past anything the fault window destroyed.
	h.net.Quiesce()
	h.net.Heal()
	prober := newClient("prober", h.net, loop, h.replicaIDs(), 1, h.krs)
	probes := 0
	prober.onResult = func(uint64, []byte) {}
	deadline := epoch.Add(sched.Horizon + grace)
	for h.err == nil {
		allDone := true
		for _, w := range loads {
			w.pump() // restart a stalled chain (e.g. submitted into a dead moment)
			if !w.done() {
				allDone = false
			}
		}
		if allDone && prober.idle() && h.converged() {
			break
		}
		if loop.Now().After(deadline) {
			h.fail("no convergence within %v past the horizon (liveness)", grace)
			if simDebug {
				for _, nd := range h.nodes {
					if nd.down {
						println("DBG", nd.id, "down")
						continue
					}
					d := nd.rep.StateDigest()
					println("DBG", nd.id, "view", int(nd.rep.View()), "executed", int(nd.rep.Executed()),
						"tentative", nd.svc.TentativeDepth(), "digest", fmt.Sprintf("%x", d[:4]))
				}
				for _, w := range loads {
					println("DBG client", w.c.id, "next", w.next, "idle", w.c.idle(), "acked", len(w.c.Acked))
				}
				println("DBG prober idle", prober.idle(), "probes", probes)
			}
			break
		}
		if prober.idle() {
			probes++
			prober.submit(outOp("prober", probes))
		}
		loop.RunUntil(loop.Now().Add(50 * time.Millisecond))
	}

	// Invariants over the converged state.
	up := h.upNodes()
	if h.err == nil && len(up) > 0 {
		for _, nd := range up {
			h.harvest(nd)
		}
		sp := up[0].svc.Space()
		checkOnce := func(id string, acked map[uint64]bool, hi int) {
			for r := 1; r <= hi; r++ {
				cnt := sp.CountMatching(clientTuple(id, r))
				if acked[uint64(r)] && cnt != 1 {
					h.fail("at-most-once: client %s req %d stored %d times, want 1", id, r, cnt)
				} else if !acked[uint64(r)] && cnt > 1 {
					h.fail("at-most-once: client %s req %d stored %d times, want ≤1", id, r, cnt)
				}
			}
		}
		for _, w := range loads {
			checkOnce(w.c.id, w.c.Acked, w.ops)
		}
		checkOnce("prober", prober.Acked, probes)
		res.StateDigest = up[0].rep.StateDigest()
		res.Executed = up[0].rep.Executed()
	}
	for _, nd := range up {
		nd.rep.Stop()
		nd.svc.Close()
	}
	res.Trace = loop.TraceDigest()
	res.Events = loop.Events()
	res.Err = h.err
	return res
}
