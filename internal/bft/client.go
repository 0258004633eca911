package bft

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"time"

	"peats/internal/auth"
	"peats/internal/metrics"
	"peats/internal/transport"
	"peats/internal/vclock"
	"peats/internal/wire"
)

// Client invokes operations on the replicated service.
//
// Ordered operations are sent to the presumed primary first (when the
// client holds pairwise keys, so it can attach the authenticator vector
// backups need to vouch for primary-relayed requests) and broadcast to
// every replica only on retransmission — the happy path costs one
// message instead of n. Without keys the client broadcasts from the
// start, as the backups can then only vouch for first-hand copies.
// Retransmission is due every RetransmitInterval, and at once when the
// transport reports the presumed primary unreachable (Inbound.Down):
// the backups can only suspect a primary over a request they hold.
//
// An ordered result is accepted once 2f+1 distinct replicas report
// byte-identical results. f+1 would suffice for correctness of the
// result itself, but the stronger threshold is what makes the
// read-only optimization linearizable (Castro-Liskov §4.1): a write
// accepted at 2f+1 has executed at ≥ f+1 correct replicas, and any
// 2f+1 read-only quorum contains ≥ f+1 correct repliers, so the two
// sets intersect in a correct replica whose read reflects the write.
//
// Read-only operations take the unordered fast path: the client
// broadcasts a READ-ONLY message, replicas execute it against current
// committed state, and the client accepts once 2f+1 distinct replicas
// report byte-identical read-only replies. If the quorum cannot form
// (replies conflict or time out), the client falls back to the
// ordered path.
//
// A Client issues one operation at a time (the model's well-formedness
// assumption); Invoke is not safe for concurrent use.
type Client struct {
	id       string
	tr       transport.Transport
	replicas []string
	f        int
	reqID    uint64
	view     uint64 // highest view observed in replies: primary guess
	// RetransmitInterval is how often an unanswered request is resent
	// (asynchronous networks may drop it). Defaults to 100ms.
	RetransmitInterval time.Duration
	// ReadOnlyFallback is how long a read-only invocation waits for a
	// 2f+1 matching-reply quorum before falling back to the ordered
	// path. Defaults to 50ms.
	ReadOnlyFallback time.Duration
	// Keyring optionally holds the client's pairwise keys with every
	// replica; it enables the authenticator vector and the primary-first
	// send pattern.
	Keyring *auth.Keyring
	// AcceptTentative lets ordered invocations return on 2f+1 matching
	// TENTATIVE replies — one protocol round before the commit quorum.
	// Safe because 2f+1 tentative replies prove the batch prepared at
	// 2f+1 replicas, so every view-change quorum intersects that set in
	// a correct replica carrying the batch forward under the same
	// digest. When the tentative vote never forms (replicas whose
	// service cannot stage, or a view change in flight), the committed
	// replies decide as usual — no timeout needed.
	AcceptTentative bool
	// Group, in a partitioned deployment, is the identity of the replica
	// group this client handle talks to. It is stamped into every
	// ordered request (part of the MAC'd digest), so replicas of other
	// groups drop requests a faulty router misdelivers.
	Group string
	// AttestKeys holds the group replicas' attestation public keys,
	// enabling InvokeCert to assemble transferable vote certificates.
	AttestKeys map[string]ed25519.PublicKey
	// Clock supplies the retransmission ticker and read-only fallback
	// timer; nil means real time.
	Clock vclock.Clock

	retx    vclock.Ticker // reusable retransmission ticker
	roTimer vclock.Timer  // reusable read-only fallback timer

	indexes map[string]int // replica id → group index
	votes   []voteBox      // reusable per-invocation vote tallies, one per request (window) in flight
	tvotes  []voteBox      // tentative-reply camps, tallied separately
	views   []uint64       // per-invocation reported views, by replica index
	seen    uint64         // bitmask of replicas that reported a view
	// unreachable marks, by replica index, the replicas the transport
	// reported down and that have not been heard from since.
	unreachable uint64
}

// voteBox tallies byte-identical replies per distinct result, with
// voters as replica-index bitmasks. It is reused across invocations so
// the reply hot path allocates nothing per operation.
type voteBox struct {
	results []string
	voters  []uint64
}

func (v *voteBox) reset() {
	v.results = v.results[:0]
	v.voters = v.voters[:0]
}

// add records one replica's vote and returns the number of distinct
// replicas now backing that result.
func (v *voteBox) add(result []byte, replica int) int {
	bit := uint64(1) << uint(replica)
	for i, res := range v.results {
		if res == string(result) {
			v.voters[i] |= bit
			return bits.OnesCount64(v.voters[i])
		}
	}
	v.results = append(v.results, string(result))
	v.voters = append(v.voters, bit)
	return 1
}

// best returns the size of the largest camp.
func (v *voteBox) best() int {
	best := 0
	for _, m := range v.voters {
		if c := bits.OnesCount64(m); c > best {
			best = c
		}
	}
	return best
}

// resetBoxes returns n empty vote boxes, reusing the storage of boxes.
func resetBoxes(boxes []voteBox, n int) []voteBox {
	for len(boxes) < n {
		boxes = append(boxes, voteBox{})
	}
	boxes = boxes[:n]
	for i := range boxes {
		boxes[i].reset()
	}
	return boxes
}

// noteView records one replica's claimed view for this invocation.
func (c *Client) noteView(idx int, view uint64) {
	if c.views == nil {
		c.views = make([]uint64, len(c.replicas))
	}
	c.views[idx] = view
	c.seen |= 1 << uint(idx)
}

// adoptView advances the primary guess to the highest view at least
// f+1 distinct replicas reported this invocation — a single (possibly
// Byzantine) reply must not be able to wedge the guess at a bogus
// view, which would cost every future invocation the retransmission
// round before reaching the real primary.
func (c *Client) adoptView() {
	var reported []uint64
	for i := range c.replicas {
		if c.seen&(1<<uint(i)) != 0 {
			reported = append(reported, c.views[i])
		}
	}
	if len(reported) < c.f+1 {
		return
	}
	sort.Slice(reported, func(i, j int) bool { return reported[i] > reported[j] })
	// reported[f] is backed by f+1 replicas, at least one correct.
	if v := reported[c.f]; v > c.view {
		c.view = v
	}
}

// NewClient returns a client for the given replica group. The transport
// identity is the client's authenticated process identity.
func NewClient(tr transport.Transport, replicas []string, f int) *Client {
	cp := make([]string, len(replicas))
	copy(cp, replicas)
	indexes := make(map[string]int, len(cp))
	for i, id := range cp {
		indexes[id] = i
	}
	return &Client{
		id: tr.Self(), tr: tr, replicas: cp, f: f,
		indexes:            indexes,
		RetransmitInterval: 100 * time.Millisecond,
		ReadOnlyFallback:   50 * time.Millisecond,
	}
}

func (c *Client) clock() vclock.Clock {
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
	return c.Clock
}

// armRetx starts (or restarts) the reusable retransmission ticker.
func (c *Client) armRetx() {
	if c.retx == nil {
		c.retx = c.clock().NewTicker(c.RetransmitInterval, nil)
	} else {
		c.retx.Reset(c.RetransmitInterval)
	}
}

// lostPrimary folds one inbound into the client's reachability marks —
// a Down notice sets the replica's, any message from it clears it — and
// reports whether m is the notice that the presumed primary is
// unreachable: the caller's cue to broadcast what it has outstanding
// now rather than at the next retransmission tick.
func (c *Client) lostPrimary(m transport.Inbound) bool {
	if !m.Down && c.unreachable == 0 {
		return false
	}
	i, ok := c.indexes[m.From]
	if !ok {
		return false
	}
	if !m.Down {
		c.unreachable &^= 1 << uint(i)
		return false
	}
	c.unreachable |= 1 << uint(i)
	return m.From == c.primaryGuess()
}

// primaryUnreachable reports whether the presumed primary is marked
// unreachable, in which case a primary-first send would only wait for
// the retransmission tick.
func (c *Client) primaryUnreachable() bool {
	return c.unreachable&(1<<(c.view%uint64(len(c.replicas)))) != 0
}

// ID returns the client's authenticated identity.
func (c *Client) ID() string { return c.id }

// primaryGuess returns the presumed primary of the highest view the
// client has observed.
func (c *Client) primaryGuess() string {
	return c.replicas[c.view%uint64(len(c.replicas))]
}

// authVector computes the per-replica authenticator vector for req, or
// nil when the client lacks a key for any replica.
func (c *Client) authVector(req Request) [][]byte {
	if c.Keyring == nil {
		return nil
	}
	d := req.Digest()
	vec := make([][]byte, len(c.replicas))
	for i, id := range c.replicas {
		mac, err := c.Keyring.MAC(id, d[:])
		if err != nil {
			return nil
		}
		vec[i] = mac
	}
	return vec
}

// Invoke submits op for ordered execution and returns the voted result.
func (c *Client) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	c.reqID++
	return c.invokeOne(ctx, op)
}

// invokeOne runs op through the ordered loop under the current request
// ID: a fresh one for Invoke, and for a read-only invocation falling
// back the ID of its fast-path attempt (replicas never recorded that
// attempt, so at-most-once bookkeeping is untouched).
func (c *Client) invokeOne(ctx context.Context, op []byte) ([]byte, error) {
	results, err := c.ordered(ctx, c.reqID, [][]byte{op})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// InvokeCert submits op for ordered execution and returns, along with
// the voted result, a vote certificate: 2f+1 distinct replicas'
// attestation signatures over the result. The certificate is
// transferable evidence — any party holding the deployment directory
// can verify that this group's agreement produced exactly these bytes,
// which is how a cross-partition coordinator proves one group's
// prepare vote to another group. Acceptance is gated on valid
// signatures, not just matching results, so the returned certificate
// always verifies.
func (c *Client) InvokeCert(ctx context.Context, op []byte) ([]byte, wire.VoteCert, error) {
	c.reqID++
	req := Request{Client: c.id, ReqID: c.reqID, Op: op, Group: c.Group}
	req.Auth = c.authVector(req)
	payload, err := Marshal(req)
	if err != nil {
		return nil, wire.VoteCert{}, fmt.Errorf("bft client: %w", err)
	}
	broadcast := func() {
		for _, id := range c.replicas {
			_ = c.tr.SendClass(id, payload, transport.ClassRequest)
		}
	}
	if req.Auth != nil && !c.primaryUnreachable() {
		_ = c.tr.SendClass(c.primaryGuess(), payload, transport.ClassRequest)
	} else {
		broadcast()
	}

	// result bytes → replica id → verified attestation signature.
	atts := make(map[string]map[string][]byte)
	c.seen = 0
	c.armRetx()
	defer c.retx.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, wire.VoteCert{}, fmt.Errorf("bft client: %w", ctx.Err())
		case <-c.retx.C():
			broadcast()
		case m, ok := <-c.tr.Inbox():
			if !ok {
				return nil, wire.VoteCert{}, fmt.Errorf("bft client: transport closed")
			}
			if c.lostPrimary(m) {
				broadcast()
			}
			rep, _, ok := c.replyFor(m, req.ReqID, 1)
			if !ok || rep.ReadOnly || rep.Tentative {
				continue // only committed replies carry attestations
			}
			idx := c.indexes[rep.Replica]
			c.noteView(idx, rep.View)
			pub, ok := c.AttestKeys[rep.Replica]
			if !ok || len(rep.Attest) != ed25519.SignatureSize ||
				!ed25519.Verify(pub, wire.AttestPayload(c.Group, rep.Result), rep.Attest) {
				continue // no valid attestation: useless for a certificate
			}
			camp := atts[string(rep.Result)]
			if camp == nil {
				camp = make(map[string][]byte)
				atts[string(rep.Result)] = camp
			}
			camp[rep.Replica] = rep.Attest
			if len(camp) >= 2*c.f+1 {
				c.adoptView()
				cert := wire.VoteCert{Group: c.Group, Outcome: rep.Result}
				ids := make([]string, 0, len(camp))
				for id := range camp {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				for _, id := range ids {
					cert.Atts = append(cert.Atts, wire.Attestation{Replica: id, Sig: camp[id]})
				}
				return rep.Result, cert, nil
			}
		}
	}
}

// InvokeBatch pipelines several ordered operations: they are submitted
// at once under consecutive request IDs, as one Request per maxWindow
// operations, so a window costs one frame, one authenticator vector, one
// protocol round and one reply per replica and phase instead of one per
// operation. Results are returned in op order. It fails or succeeds as
// a whole — on context cancellation no per-op results are reported,
// mirroring Invoke.
//
// Replicas execute a window's operations contiguously and in submission
// order inside one agreement batch, each succeeding or aborting on its
// own. A call of more than maxWindow operations pipelines several
// windows, which FIFO links keep in order but which may land in
// different batches. As with Invoke, the client issues one InvokeBatch
// at a time.
func (c *Client) InvokeBatch(ctx context.Context, ops [][]byte) ([][]byte, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	firstID := c.reqID + 1
	c.reqID += uint64(len(ops))
	return c.ordered(ctx, firstID, ops)
}

// ordered is the one ordered invocation loop: it submits ops under the
// consecutive request IDs starting at firstID, as windows of at most
// maxWindow operations, and returns once every window holds 2f+1
// matching replies. A reply answers a whole window, so there is one
// vote per reply frame.
func (c *Client) ordered(ctx context.Context, firstID uint64, ops [][]byte) ([][]byte, error) {
	windows := (len(ops) + maxWindow - 1) / maxWindow
	// span returns the bounds in ops of the k-th window.
	span := func(k int) (lo, hi int) { return k * maxWindow, min((k+1)*maxWindow, len(ops)) }
	payloads := make([][]byte, windows)
	authed := true
	for k := range payloads {
		lo, hi := span(k)
		req := Request{Client: c.id, ReqID: firstID + uint64(lo), Op: ops[lo], Tail: ops[lo+1 : hi], Group: c.Group}
		req.Auth = c.authVector(req)
		authed = authed && req.Auth != nil
		p, err := Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("bft client: %w", err)
		}
		payloads[k] = p
	}

	results := make([][]byte, len(ops))
	done := make([]bool, windows)
	remaining := windows
	// Per-window vote boxes: replies to different requests must never
	// pool votes.
	c.votes = resetBoxes(c.votes, windows)
	c.tvotes = resetBoxes(c.tvotes, windows)

	send := func(retransmit bool) {
		for k, p := range payloads {
			if done[k] {
				continue
			}
			if authed && !retransmit && !c.primaryUnreachable() {
				// Happy path: the primary relays the request inside its
				// batch, and the authenticator vector lets backups vouch
				// for it.
				_ = c.tr.SendClass(c.primaryGuess(), p, transport.ClassRequest)
				continue
			}
			for _, id := range c.replicas {
				// Best effort: the asynchronous model tolerates loss and
				// the retransmission loop recovers.
				_ = c.tr.SendClass(id, p, transport.ClassRequest)
			}
		}
	}
	send(false)

	c.seen = 0
	c.armRetx()
	defer c.retx.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("bft client: %w", ctx.Err())
		case <-c.retx.C():
			send(true)
		case m, ok := <-c.tr.Inbox():
			if !ok {
				return nil, fmt.Errorf("bft client: transport closed")
			}
			if c.lostPrimary(m) {
				send(true)
			}
			rep, k, ok := c.replyFor(m, firstID, windows)
			if !ok || rep.ReadOnly || done[k] {
				continue // read-only replies never count toward an ordered vote
			}
			idx := c.indexes[rep.Replica]
			c.noteView(idx, rep.View)
			// Tentative and committed replies vote in separate camps: a
			// replica may legitimately send both for one request.
			box := &c.votes[k]
			if rep.Tentative {
				if !c.AcceptTentative {
					continue
				}
				box = &c.tvotes[k]
			}
			if box.add(rep.Result, idx) < 2*c.f+1 {
				continue
			}
			// 2f+1 replicas, f+1 of them correct, sent these bytes, so
			// they decode; the check only keeps a bug from panicking.
			lo, hi := span(k)
			if err := decodeWindowResults(results[lo:hi], rep.Result); err != nil {
				return nil, fmt.Errorf("bft client: %w", err)
			}
			done[k] = true
			if remaining--; remaining == 0 {
				c.adoptView()
				return results, nil
			}
		}
	}
}

// InvokeReadOnly submits a non-mutating op on the read-only fast path,
// falling back to ordered execution if no quorum forms.
func (c *Client) InvokeReadOnly(ctx context.Context, op []byte) ([]byte, error) {
	c.reqID++
	ro := ReadOnly{Client: c.id, ReqID: c.reqID, Op: op}
	payload, err := Marshal(ro)
	if err != nil {
		return nil, fmt.Errorf("bft client: %w", err)
	}
	for _, id := range c.replicas {
		_ = c.tr.SendClass(id, payload, transport.ClassRequest)
	}

	fallback := c.ReadOnlyFallback
	if fallback <= 0 {
		fallback = 50 * time.Millisecond
	}
	if c.roTimer == nil {
		c.roTimer = c.clock().NewTimer(nil)
	} else if !c.roTimer.Stop() {
		select {
		case <-c.roTimer.C():
		default:
		}
	}
	c.roTimer.Reset(fallback)
	deadline := c.roTimer
	defer deadline.Stop()

	n := len(c.replicas)
	need := 2*c.f + 1
	c.votes = resetBoxes(c.votes, 1)
	c.seen = 0
	var replied uint64
	for {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("bft client: %w", ctx.Err())
		case <-deadline.C():
			return c.invokeOne(ctx, op)
		case m, ok := <-c.tr.Inbox():
			if !ok {
				return nil, fmt.Errorf("bft client: transport closed")
			}
			c.lostPrimary(m) // read-only requests are broadcast; only keep the marks current
			rep, _, ok := c.replyFor(m, ro.ReqID, 1)
			if !ok || !rep.ReadOnly {
				continue
			}
			idx := c.indexes[rep.Replica]
			replied |= 1 << uint(idx)
			c.noteView(idx, rep.View)
			if c.votes[0].add(rep.Result, idx) >= need {
				c.adoptView()
				return rep.Result, nil
			}
			// Fall back as soon as a quorum is impossible: even if every
			// silent replica joined the largest camp it would not reach
			// 2f+1 matching replies.
			if c.votes[0].best()+(n-bits.OnesCount64(replied)) < need {
				return c.invokeOne(ctx, op)
			}
		}
	}
}

// replyFor validates an inbound message as a reply from a genuine
// replica to one of the requests in flight — the windows-many requests
// whose IDs start at firstID and lie maxWindow apart — and returns the
// index of the request it answers.
func (c *Client) replyFor(m transport.Inbound, firstID uint64, windows int) (Reply, int, bool) {
	msg, err := Unmarshal(m.Payload)
	if err != nil {
		return Reply{}, 0, false
	}
	rep, ok := msg.(Reply)
	if !ok || rep.Replica != m.From || rep.Client != c.id {
		return Reply{}, 0, false // foreign message
	}
	off := rep.ReqID - firstID
	if rep.ReqID < firstID || off%maxWindow != 0 || off/maxWindow >= uint64(windows) {
		return Reply{}, 0, false // stale reply from an earlier invocation
	}
	if !c.isReplica(m.From) {
		return Reply{}, 0, false
	}
	return rep, int(off / maxWindow), true
}

func (c *Client) isReplica(id string) bool {
	for _, rid := range c.replicas {
		if rid == id {
			return true
		}
	}
	return false
}

// clusterMaster is the deterministic master secret in-process clusters
// derive pairwise client-replica keys from. The in-process network
// already enforces sender identity; the keys only feed the request
// authenticator vectors, mirroring a real deployment's trusted setup.
var clusterMaster = []byte("peats-inproc-cluster")

// Cluster is a convenience harness bundling n replicas over an
// in-process network, used by tests, benchmarks and examples.
type Cluster struct {
	Net      *transport.Network
	Replicas []*Replica
	IDs      []string
	F        int

	keyrings map[string]*auth.Keyring // replica id → its keyring
	services []Service                // closed (where closeable) on Stop

	group        string // partitioned deployments: this cluster's group identity
	attestMaster []byte

	mu      sync.Mutex
	nextCli int
}

// ClusterOption tweaks cluster construction.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	checkpointInterval uint64
	compactEvery       int
	keepCpHistory      bool
	vcTimeout          time.Duration
	seed               int64
	batchSize          int
	batchDelay         time.Duration
	group              string
	attestMaster       []byte
	metrics            *metrics.Registry
	eventSink          EventSink
}

// WithCheckpointInterval sets the replicas' checkpoint interval.
func WithCheckpointInterval(k uint64) ClusterOption {
	return func(c *clusterConfig) { c.checkpointInterval = k }
}

// WithCompactEvery sets how many checkpoints pass between full state
// snapshots (ReplicaConfig.CompactEvery): the checkpoints in between
// publish chained deltas.
func WithCompactEvery(k int) ClusterOption {
	return func(c *clusterConfig) { c.compactEvery = k }
}

// WithCheckpointHistory makes every replica retain its published
// checkpoint digests for inspection (tests).
func WithCheckpointHistory() ClusterOption {
	return func(c *clusterConfig) { c.keepCpHistory = true }
}

// WithViewChangeTimeout sets the replicas' view-change timeout.
func WithViewChangeTimeout(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.vcTimeout = d }
}

// WithSeed sets the network fault-injection seed.
func WithSeed(seed int64) ClusterOption {
	return func(c *clusterConfig) { c.seed = seed }
}

// WithBatchSize sets the replicas' maximum agreement batch size, in
// client operations.
func WithBatchSize(n int) ClusterOption {
	return func(c *clusterConfig) { c.batchSize = n }
}

// WithBatchDelay sets how long the primary holds a non-full batch open
// while earlier batches are in flight.
func WithBatchDelay(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.batchDelay = d }
}

// WithMetrics instruments every replica of the cluster into one
// shared registry; series are distinguished by the replica label. The
// replicated parity and race tests use it to scrape while the cluster
// runs.
func WithMetrics(reg *metrics.Registry) ClusterOption {
	return func(c *clusterConfig) { c.metrics = reg }
}

// WithEventSink subscribes one sink to every replica's protocol
// events. Events arrive on each replica's event loop concurrently, so
// the sink must synchronise internally.
func WithEventSink(sink EventSink) ClusterOption {
	return func(c *clusterConfig) { c.eventSink = sink }
}

// WithGroupIdentity marks the cluster as one group of a partitioned
// deployment: every replica is configured with the group identity
// (requests MAC-bind to it and misrouted ones are dropped) and an
// attestation signing key derived from the deployment's attestation
// master secret, and clients are provisioned to verify attestations
// and assemble vote certificates (InvokeCert).
func WithGroupIdentity(group string, attestMaster []byte) ClusterOption {
	return func(c *clusterConfig) { c.group, c.attestMaster = group, attestMaster }
}

// NewCluster starts n = 3f+1 replicas of the given services (one per
// replica, so Byzantine tests can hand a corrupt service to some of
// them) over a fresh in-process network. services[i] may be nil to skip
// starting replica i (a crashed replica).
func NewCluster(f int, services []Service, opts ...ClusterOption) (*Cluster, error) {
	cfg := clusterConfig{checkpointInterval: 64, vcTimeout: 500 * time.Millisecond, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	n := 3*f + 1
	if len(services) != n {
		return nil, fmt.Errorf("bft: need %d services for f=%d, got %d", n, f, len(services))
	}
	net := transport.NewNetwork(cfg.seed)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d", i)
	}
	cl := &Cluster{
		Net: net, IDs: ids, F: f,
		keyrings: make(map[string]*auth.Keyring), services: services,
		group: cfg.group, attestMaster: cfg.attestMaster,
	}
	for _, id := range ids {
		cl.keyrings[id] = auth.NewKeyringFromMaster(clusterMaster, id, ids)
	}
	for i, svc := range services {
		if svc == nil {
			continue
		}
		var attestKey ed25519.PrivateKey
		if cfg.group != "" {
			attestKey = AttestKeyFor(cfg.attestMaster, cfg.group, ids[i])
		}
		rep, err := NewReplica(ReplicaConfig{
			ID:                    ids[i],
			Replicas:              ids,
			F:                     f,
			Transport:             net.Endpoint(ids[i]),
			Service:               svc,
			Group:                 cfg.group,
			AttestKey:             attestKey,
			CheckpointInterval:    cfg.checkpointInterval,
			CompactEvery:          cfg.compactEvery,
			KeepCheckpointHistory: cfg.keepCpHistory,
			ViewChangeTimeout:     cfg.vcTimeout,
			BatchSize:             cfg.batchSize,
			BatchDelay:            cfg.batchDelay,
			Keyring:               cl.keyrings[ids[i]],
			Metrics:               cfg.metrics,
			EventSink:             cfg.eventSink,
		})
		if err != nil {
			net.Close()
			return nil, err
		}
		rep.Start()
		cl.Replicas = append(cl.Replicas, rep)
	}
	return cl, nil
}

// Client returns a new client with a unique identity on the cluster's
// network, provisioned with pairwise keys at every replica (the
// in-process stand-in for a real deployment's key setup).
func (c *Cluster) Client(id string) *Client {
	if id == "" {
		c.mu.Lock()
		c.nextCli++
		id = fmt.Sprintf("client%d", c.nextCli)
		c.mu.Unlock()
	}
	for _, rid := range c.IDs {
		if id == rid {
			// The in-proc network keys endpoints by identity: a client
			// reusing a replica id would share the replica's inbox and
			// silently steal its protocol messages.
			panic(fmt.Sprintf("bft: client id %q collides with a replica id", id))
		}
	}
	for rid, kr := range c.keyrings {
		kr.SetKey(id, auth.DeriveKey(clusterMaster, rid, id))
	}
	cli := NewClient(c.Net.Endpoint(id), c.IDs, c.F)
	cli.Keyring = auth.NewKeyringFromMaster(clusterMaster, id, c.IDs)
	if c.group != "" {
		cli.Group = c.group
		cli.AttestKeys = make(map[string]ed25519.PublicKey, len(c.IDs))
		for _, rid := range c.IDs {
			cli.AttestKeys[rid] = AttestKeyFor(c.attestMaster, c.group, rid).Public().(ed25519.PublicKey)
		}
	}
	return cli
}

// Stop shuts down all replicas and the network, then closes every
// closeable service (a durable service flushes and closes its
// write-ahead log here).
func (c *Cluster) Stop() {
	for _, r := range c.Replicas {
		r.Stop()
	}
	c.Net.Close()
	for _, svc := range c.services {
		if closer, ok := svc.(io.Closer); ok {
			closer.Close()
		}
	}
}
