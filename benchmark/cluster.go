package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"peats/internal/auth"
	"peats/internal/bft"
	"peats/internal/durable"
	"peats/internal/metrics"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/transport"
)

// The deployment under test is cmd/peats-server's default, four times
// in one process: n=4, f=1, TCP on loopback, durable store with group
// commit, one space shard, batch 64, batch delay 2ms, tentative
// execution on, checkpoint every 64 batches, full snapshot every 4th.
const (
	faults     = 1
	nReplicas  = 3*faults + 1
	nConns     = 2 // generator connections; the build box has 2 cores
	batchSize  = 64
	batchDelay = 2 * time.Millisecond
	master     = "peats-benchmark"
)

// node is one replica and everything it owns.
type node struct {
	id  string
	dir string
	tr  *transport.TCP
	db  *durable.DB
	svc *bft.SpaceService
	rep *bft.Replica
	reg *metrics.Registry // nil unless traced
	// halted and stopped make halt and stop idempotent: teardown after
	// a failover trial meets a primary that is already down.
	halted, stopped bool
}

// cluster is the replica group plus the generator connections.
type cluster struct {
	ids   []string
	nodes []*node
	conns []*conn
	dir   string
	tr    *tracer // nil unless traced
}

// conn is one generator connection: its own TCP transport, BFT client
// and RemoteSpace, driven by exactly one goroutine.
type conn struct {
	idx int
	id  string
	tr  *transport.TCP
	ts  *bft.RemoteSpace
}

func replicaIDs() []string {
	ids := make([]string, nReplicas)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d", i)
	}
	return ids
}

// newCluster builds and starts the deployment under dir. A non-nil
// tracer puts a metrics registry on every replica and the measuring
// wrappers around the primary's service and transport.
func newCluster(dir string, pol policy.Policy, tr *tracer) (_ *cluster, err error) {
	c := &cluster{dir: dir, tr: tr, ids: replicaIDs()}
	defer func() {
		if err != nil {
			_ = c.stop()
		}
	}()
	everyone := append([]string{}, c.ids...)
	for i := 0; i < nConns; i++ {
		everyone = append(everyone, fmt.Sprintf("c%d", i))
	}

	// Bind every listener before any replica starts, so each transport
	// can be told its peers' kernel-chosen ports.
	addrs := make(map[string]string)
	keyrings := make(map[string]*auth.Keyring)
	for _, id := range c.ids {
		kr := auth.NewKeyringFromMaster([]byte(master), id, everyone)
		t, err := transport.NewTCP(id, "127.0.0.1:0", nil, kr)
		if err != nil {
			return nil, err
		}
		keyrings[id] = kr
		addrs[id] = t.Addr()
		c.nodes = append(c.nodes, &node{id: id, dir: filepath.Join(dir, id), tr: t})
	}
	for i, n := range c.nodes {
		for id, addr := range addrs {
			n.tr.SetPeerAddr(id, addr)
		}
		n.db, err = durable.Open(durable.Options{
			Dir:              n.dir,
			Sync:             durable.SyncInterval,
			AutoCompactBytes: -1, // the replica compacts at full checkpoints
		})
		if err != nil {
			return nil, err
		}
		n.svc, err = bft.NewDurableSpaceService(pol, n.db, 1)
		if err != nil {
			return nil, err
		}
		cfg := bft.ReplicaConfig{
			ID: n.id, Replicas: c.ids, F: faults,
			Transport:  n.tr,
			Service:    n.svc,
			BatchSize:  batchSize,
			BatchDelay: batchDelay,
			Keyring:    keyrings[n.id],
		}
		if tr != nil {
			n.reg = metrics.New()
			cfg.Metrics = n.reg
			n.tr.EnableMetrics(n.reg, metrics.L("replica", n.id))
			if i == 0 { // the primary of view 0 carries the measuring wrappers
				cfg.Service = tr.wrapService(n.svc)
				cfg.Transport = tr.wrapTransport(n.tr)
			}
		}
		n.rep, err = bft.NewReplica(cfg)
		if err != nil {
			return nil, err
		}
		n.rep.Start()
	}

	for i := 0; i < nConns; i++ {
		id := fmt.Sprintf("c%d", i)
		kr := auth.NewKeyringFromMaster([]byte(master), id, c.ids)
		t, err := transport.NewTCP(id, "127.0.0.1:0", addrs, kr)
		if err != nil {
			return nil, err
		}
		cli := bft.NewClient(t, c.ids, faults)
		cli.Keyring = kr // authenticator vector + primary-first sends, as peats-client
		cn := &conn{idx: i, id: id, tr: t, ts: bft.NewRemoteSpace(cli)}
		c.conns = append(c.conns, cn)
		if err = cn.dial(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// dial makes the connection known to every replica before it
// pipelines. Ordered requests go to the primary alone, a replica can
// answer a client only over a connection the client opened, and a
// replica keeps only a client's latest reply for retransmission — so a
// fresh client whose first Flush carries several requests never
// collects 2f+1 replies for any but the last. A read-only request is
// broadcast, which opens all four connections; both policies allow
// this one.
func (cn *conn) dial() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	_, err := cn.ts.Submit(ctx, peats.RdpOp(lockEntry("dial", cn.id)))
	if err != nil {
		return fmt.Errorf("%s: dial: %w", cn.id, err)
	}
	return nil
}

// halt ends the replica's event loop: from its return on, the replica
// neither orders nor answers anything.
func (n *node) halt() {
	if !n.halted && n.rep != nil {
		n.rep.Stop()
	}
	n.halted = true
}

// stop shuts one replica down the way peats-server does: event loop,
// transport, then the WAL.
func (n *node) stop() error {
	if n.stopped {
		return nil
	}
	n.stopped = true
	n.halt()
	_ = n.tr.Close()
	if n.db != nil {
		if err := n.db.Close(); err != nil {
			return fmt.Errorf("%s: flush WAL: %w", n.id, err)
		}
	}
	return nil
}

// live returns the replicas not yet stopped.
func (c *cluster) live() []*node {
	var out []*node
	for _, n := range c.nodes {
		if !n.stopped {
			out = append(out, n)
		}
	}
	return out
}

// quiesce returns once nothing is in flight: every live replica has
// committed the same sequence number. Clients return on tentative
// replies, so when a loop ends the commit round of its last batches,
// and the slowest replica, can still be behind. Each connection
// therefore submits one more ordered operation and waits for 2f+1
// *committed* replies to it; nothing is ordered after that, and the
// replicas are level as soon as their executed sequence numbers agree.
func (c *cluster) quiesce(ctx context.Context) error {
	for _, cn := range c.conns {
		// A release of a lock never taken: both policies allow it, it
		// finds nothing and changes nothing.
		cn.ts.TentativeWrites = false
		res, err := cn.ts.Submit(ctx, peats.InpOp(lockEntry("quiesce", cn.id)))
		cn.ts.TentativeWrites = true
		if err != nil || res[0].Found {
			return fmt.Errorf("quiesce: barrier on %s: found=%v err=%v", cn.id, err == nil && res[0].Found, err)
		}
	}
	live := c.live()
	for {
		level := true
		for _, n := range live[1:] {
			level = level && n.rep.Executed() == live[0].rep.Executed()
		}
		if level {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("quiesce: replicas did not converge: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop tears the whole deployment down and reports the first WAL
// error. The data directory is left for the caller (the recovery probe
// reads it) and removed by remove.
func (c *cluster) stop() error {
	var first error
	for _, cn := range c.conns {
		_ = cn.tr.Close()
	}
	for _, n := range c.nodes {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *cluster) remove() { _ = os.RemoveAll(c.dir) }

// positions renders every replica's view and executed sequence number.
func (c *cluster) positions() string {
	var parts []string
	for _, n := range c.nodes {
		parts = append(parts, fmt.Sprintf("%s view %d executed %d", n.id, n.rep.View(), n.rep.Executed()))
	}
	return strings.Join(parts, ", ")
}

// verify is the end-of-life oracle for a cluster: with every replica
// stopped, the live ones must hold byte-identical state (space plus
// client table) and exactly the tuples the connection models say are
// resident. skip lists replicas stopped early (a killed primary).
func (c *cluster) verify(resident int, skip map[string]bool) error {
	var ref *node
	for _, n := range c.nodes {
		if skip[n.id] {
			continue
		}
		if got := n.svc.Space().Len(); got != resident {
			return fmt.Errorf("%s holds %d tuples, model says %d", n.id, got, resident)
		}
		if ref == nil {
			ref = n
			continue
		}
		if n.rep.StateDigest() != ref.rep.StateDigest() {
			return fmt.Errorf("state digest of %s differs from %s", n.id, ref.id)
		}
	}
	return nil
}
