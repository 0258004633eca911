package bft

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"peats/internal/auth"
	"peats/internal/metrics"
	"peats/internal/transport"
	"peats/internal/vclock"
	"peats/internal/wire"
)

// ReplicaConfig configures one replica of the replicated PEATS.
type ReplicaConfig struct {
	// ID is this replica's identity; it must appear in Replicas.
	ID string
	// Replicas is the ordered replica group; the primary of view v is
	// Replicas[v mod n].
	Replicas []string
	// F is the number of Byzantine replicas tolerated; len(Replicas)
	// must be at least 3F+1.
	F int
	// Transport carries protocol messages; its identity must equal ID.
	Transport transport.Transport
	// Service is the deterministic state machine to replicate.
	Service Service
	// CheckpointInterval is the number of executions between
	// checkpoints (default 64).
	CheckpointInterval uint64
	// CompactEvery spaces the grid of sequence numbers at which a full
	// state snapshot may be taken: every CompactEvery-th checkpoint
	// (default 4). When the service supports incremental checkpoints
	// (DeltaSnapshotter), a checkpoint publishes a delta digested over a
	// chain — O(changes) instead of O(space) — and a grid point
	// serializes the whole state, re-basing the chain, only once the
	// deltas chained since the last full snapshot weigh as much as that
	// snapshot. Every replica reads those weights off the same bytes, so
	// all pick the same mode. 1 makes every checkpoint a full snapshot
	// (the pre-delta behaviour). Compacting a durable service's log is a
	// separate, local decision (DurableService.CompactTo).
	CompactEvery int
	// KeepCheckpointHistory retains every checkpoint digest this
	// replica publishes, for tests and diagnostics (CheckpointDigests).
	// Off by default so long-running replicas stay bounded.
	KeepCheckpointHistory bool
	// ViewChangeTimeout is how long a backup waits for a pending request
	// to commit before suspecting the primary (default 500ms). Each
	// unsuccessful view change doubles it.
	ViewChangeTimeout time.Duration
	// BatchSize is the maximum number of client operations the primary
	// proposes under one sequence number. At 1 (the default) every
	// request is proposed the moment it arrives, as a batch of one.
	// Above 1 the primary accumulates requests that arrive while earlier
	// batches are in flight and proposes them together, amortizing the
	// three-phase round. A request's window of operations never splits
	// across batches: one larger than BatchSize is proposed alone.
	BatchSize int
	// BatchDelay bounds how long the primary holds a non-full batch
	// open while earlier batches are in flight (default 2ms). It only
	// matters when BatchSize > 1: an idle pipeline always proposes
	// immediately, so the delay is never paid at low load.
	BatchDelay time.Duration
	// Group names the replica group in a partitioned deployment. A
	// replica with a group identity stamps it into every reply and
	// drops client requests addressed to another group (requests with
	// an empty group are accepted for single-group compatibility).
	Group string
	// AttestKey, when set, lets the replica sign agreed results of
	// partition 2PC operations (wire.AttestPayload over Group and the
	// result bytes). Clients assemble 2f+1 such signatures into vote
	// certificates that other groups verify against the deployment
	// topology — the mechanism that makes cross-partition decisions
	// safe under an untrusted coordinator.
	AttestKey ed25519.PrivateKey
	// Keyring optionally holds the pairwise keys this replica shares
	// with clients. When set, the replica can vouch for a request it
	// only saw inside the primary's batch by verifying the client's
	// authenticator vector; without it, verification falls back to
	// first-hand copies broadcast by the client.
	Keyring *auth.Keyring
	// Logger receives protocol diagnostics; nil disables logging.
	Logger *log.Logger
	// Clock supplies the view-change and batch timers; nil means real
	// time. The simulator injects a virtual clock whose timers fire
	// synchronously on its event loop, so it owns all scheduling.
	Clock vclock.Clock
	// Metrics, when set, registers this replica's protocol metrics
	// (labelled replica=<ID>) and — when the service implements
	// MetricsEnabler — the service, store, durability and 2PC metrics
	// beneath it. Purely observational: metric state is never part of
	// checkpoint digests or any replicated state, and a nil registry
	// costs one predictable branch per instrumented site.
	Metrics *metrics.Registry
	// EventSink receives structured protocol events (see events.go).
	// Events fire on the event loop: the sink must be fast and must
	// never call back into the replica.
	EventSink EventSink
}

// logEntry tracks one sequence number through the three phases. Vote
// sets are bitmasks over replica group indexes (NewReplica bounds the
// group at 64), so recording a vote is a bit-or instead of a map
// insert — votes are the highest-volume messages in the protocol.
//
// prepares and commits only ever hold votes for the accepted batch's
// digest. Votes that arrive before the proposal (reordered networks,
// repair retransmissions) park in early, keyed by the digest they were
// cast for, and merge on accept — counting a digest-unchecked vote
// toward a quorum would let an equivocating primary get one fork
// executed with the other fork's votes.
type logEntry struct {
	batch      *Batch
	digests    [][32]byte // per-request digests, computed once on accept
	prepares   uint64     // replicas that vouched for batch.Digest (incl. primary via proposal)
	commits    uint64
	early      map[[32]byte]*earlyVotes // votes received before the proposal, by digest
	sentCommit bool
	executed   bool
}

// earlyVotes holds votes for one digest at a sequence number whose
// proposal has not arrived yet.
type earlyVotes struct {
	prepares uint64
	commits  uint64
}

// clientRecord implements at-most-once execution per client: the last
// request executed — the window of request IDs ending at lastReqID — and
// the Result it was answered with. It is replicated state (checkpoint
// digests cover it), so it must be a pure function of the committed
// history: the view a request happened to execute in is deliberately NOT
// recorded — replicas legitimately execute the same batch in different
// views after view changes, and a view stamp here would make their
// checkpoint digests dissent forever.
type clientRecord struct {
	lastReqID uint64
	ops       uint64 // request IDs the last request covered, ending at lastReqID
	lastReply []byte
}

// stale reports whether the record shows req must not execute (again):
// its window starts at or below the last ID executed.
func (rec *clientRecord) stale(req Request) bool {
	return rec != nil && req.ReqID <= rec.lastReqID
}

// holds reports whether a stale req is exactly the request the record
// holds the reply to — a retransmission, answered by replaying it. Any
// other stale request (older, or overlapping the window) gets silence.
func (rec *clientRecord) holds(req Request) bool {
	return req.lastID() == rec.lastReqID && uint64(req.ops()) == rec.ops
}

// tentSeg is the replica-layer residue of one executed unit: the client
// records it will install and the replies it produced. A unit executed
// at *prepared* waits in tentSegs until its commit quorum lands it in
// committed state — or a view change discards it. The committed client
// table and the service's real state stay untouched in the meantime, so
// rollback is simply dropping the segment.
type tentSeg struct {
	seq     uint64
	staged  bool // effects sit in the service's overlay until land promotes them
	clients map[string]*clientRecord
	results [][]byte // aligned with the batch's requests; nil = silent
}

// queuedReq is one request awaiting a sequence number at the primary.
type queuedReq struct {
	req    Request
	digest [32]byte
}

// unverifiedBatch buffers a batch awaiting request verification, with
// its per-request digests computed once — re-verification runs on
// every client-request arrival, so it must not re-hash the batch.
type unverifiedBatch struct {
	b  Batch
	ds [][32]byte
}

// Replica is one member of the replicated PEATS group. Start launches
// its event loop; Stop shuts it down.
type Replica struct {
	cfg     ReplicaConfig
	n       int
	index   int
	indexes map[string]int // replica id → group index
	logger  *log.Logger
	tr      transport.Transport
	service Service

	// Protocol state, owned by the event loop goroutine.
	view        uint64
	seq         uint64 // highest sequence assigned (primary)
	executed    uint64 // highest sequence executed
	lowWater    uint64 // last stable checkpoint
	entries     map[uint64]*logEntry
	clients     map[string]*clientRecord
	pending     map[[32]byte]Request       // awaiting commit (view-change timer)
	assigned    map[[32]byte]uint64        // request digest → seq of its batch (current view)
	queue       []queuedReq                // primary: requests awaiting a sequence number
	queued      map[[32]byte]struct{}      // primary: digests in queue
	unverified  map[uint64]unverifiedBatch // batches awaiting request verification
	checkpoints map[uint64]map[string]cpVote
	snapshots   map[uint64][]byte
	// prepCerts holds, per sequence, the batch this replica most
	// recently prepared there (the PBFT P-set). Kept outside entries so
	// view installs cannot destroy it; GC'd only by stabilize.
	prepCerts map[uint64]Batch

	// Incremental-checkpoint chain state. cpHead is the head of the
	// chain at cpSeq, the last checkpoint boundary executed (where the
	// service journal was last cut); cpHave is false while the replica
	// has none — after a disk recovery or a broken journal — and waits
	// to take one from the votes of others (adoptHead). cpBase holds the
	// last full stateSnapshot (the chain's base) and cpDeltas the delta
	// blob of every chained checkpoint since, so the replica can serve
	// verifiable base-plus-deltas state transfers; a replica that
	// adopted its head holds neither until the next re-base.
	// dirtyClients tracks the client records touched since the last
	// checkpoint — the client-table half of a delta. durable is non-nil
	// when the service persists state.
	cpHave       bool
	cpHead       cpHead
	cpSeq        uint64
	cpBase       []byte
	cpBaseSeq    uint64
	cpDeltas     map[uint64][]byte
	dirtyClients map[string]struct{}
	cpHistory    map[uint64][32]byte
	durable      DurableService
	// lastCP is our latest checkpoint announcement, re-sent to peers
	// that ask (SEQ-REQUEST) about sequences we have stabilized past —
	// checkpoint messages are otherwise broadcast exactly once, and a
	// laggard needs f+1 matching announcements to trust a state
	// transfer.
	lastCP Checkpoint
	// groupStable is the highest seq at which this replica observed a
	// full 2f+1 matching checkpoint quorum. It can lag lowWater: WAL
	// recovery and state transfer raise lowWater to the recovered seq
	// (this replica can no longer vote below it) without any proof the
	// GROUP stabilized that prefix. The NEW-VIEW merge must drop
	// prepared batches only below groupStable — dropping below a merely
	// personal lowWater discards batches other replicas still need,
	// possibly committed elsewhere and acked to clients.
	groupStable uint64

	// Tentative execution state. tentSvc is non-nil when the service
	// supports it. tentExecuted is the highest tentatively executed
	// sequence (always ≥ executed); tentSegs holds, oldest first, the
	// replica-layer residue of the unpromoted units
	// executed+1 .. tentExecuted.
	tentSvc      TentativeService
	tentFilter   TentativeFilter
	tentExecuted uint64
	tentSegs     []tentSeg

	inViewChange bool
	nextTimeout  time.Duration
	// unreachable marks, by group index, the replicas the local transport
	// reported down (transport.Inbound.Down) and that have not been heard
	// from since. See skipUnreachable.
	unreachable uint64
	viewChanges map[uint64]map[string]recordedVC
	// vcAcks collects VIEW-CHANGE-ACKs at the would-be primary:
	// view → origin replica → content digest → acknowledging replicas.
	vcAcks map[uint64]map[string]map[[32]byte]map[string]struct{}
	// installedView is the highest view this replica actually installed
	// (NEW-VIEW processed, or adopted from quorum evidence) — as opposed
	// to views merely entered by a failed view-change attempt. A replica
	// only casts votes in installed views, so syncViewWithQuorum may
	// safely fall back to any view ≥ installedView.
	installedView uint64

	timer           vclock.Timer
	batchTimer      vclock.Timer
	batchTimerArmed bool
	driven          bool // simulation mode: no goroutines, caller delivers events
	stop            chan struct{}
	done            chan struct{}

	// Read-only fast path: reads execute on a worker pool, off the
	// event loop, synchronised with ordered execution only by the
	// space's shard read locks — so they run concurrently with each
	// other and with batches writing other shards.
	roCh chan ReadOnly
	roWG sync.WaitGroup

	// Atomic mirrors of loop-owned state for external observation.
	viewMirror      atomic.Uint64
	executedMirror  atomic.Uint64
	recordsMirror   atomic.Int64
	batchesMirror   atomic.Uint64
	lowWaterMirror  atomic.Uint64
	tentDepthMirror atomic.Int64
	vcCauseMirror   atomic.Int32 // cause of the latest view change started

	// m holds the protocol metric handles — all nil without
	// cfg.Metrics, and every operation on a nil handle no-ops.
	m replicaMetrics
	// queuedAt stamps the queue's empty-to-nonempty transition for the
	// batch-delay histogram; only touched when that histogram is live.
	queuedAt time.Time
}

// window is the high-water offset: sequence numbers beyond
// lowWater+window are refused until a checkpoint advances.
const window = 1024

// pipelineDepth is how many non-full batches the primary keeps in
// flight before holding further proposals open to accumulate. Depth 1
// self-clocks proposals on the commit stream — requests arriving
// during a round coalesce into the next batch — which measures best on
// the in-proc transport; full batches always propose immediately, so
// the pipeline still deepens under saturation.
const pipelineDepth = 1

// NewReplica validates the configuration and returns a stopped replica.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if len(cfg.Replicas) < 3*cfg.F+1 {
		return nil, fmt.Errorf("bft: %d replicas cannot tolerate f=%d (need ≥ %d)",
			len(cfg.Replicas), cfg.F, 3*cfg.F+1)
	}
	if len(cfg.Replicas) > 64 {
		return nil, fmt.Errorf("bft: %d replicas exceed the group bound of 64", len(cfg.Replicas))
	}
	index := -1
	indexes := make(map[string]int, len(cfg.Replicas))
	for i, id := range cfg.Replicas {
		indexes[id] = i
		if id == cfg.ID {
			index = i
		}
	}
	if index < 0 {
		return nil, fmt.Errorf("bft: replica %q not in group", cfg.ID)
	}
	if cfg.Transport == nil || cfg.Service == nil {
		return nil, fmt.Errorf("bft: transport and service are required")
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 64
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 4
	}
	if cfg.ViewChangeTimeout <= 0 {
		cfg.ViewChangeTimeout = 500 * time.Millisecond
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	if cfg.BatchSize > maxBatch {
		cfg.BatchSize = maxBatch
	}
	if cfg.BatchDelay <= 0 {
		cfg.BatchDelay = 2 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	r := &Replica{
		cfg:         cfg,
		n:           len(cfg.Replicas),
		index:       index,
		indexes:     indexes,
		logger:      cfg.Logger,
		tr:          cfg.Transport,
		service:     cfg.Service,
		entries:     make(map[uint64]*logEntry),
		clients:     make(map[string]*clientRecord),
		pending:     make(map[[32]byte]Request),
		assigned:    make(map[[32]byte]uint64),
		queued:      make(map[[32]byte]struct{}),
		unverified:  make(map[uint64]unverifiedBatch),
		checkpoints: make(map[uint64]map[string]cpVote),
		snapshots:   make(map[uint64][]byte),
		prepCerts:   make(map[uint64]Batch),
		viewChanges: make(map[uint64]map[string]recordedVC),
		vcAcks:      make(map[uint64]map[string]map[[32]byte]map[string]struct{}),
		nextTimeout: cfg.ViewChangeTimeout,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),

		cpDeltas:     make(map[uint64][]byte),
		dirtyClients: make(map[string]struct{}),
		cpHistory:    make(map[uint64][32]byte),
	}
	if err := r.initDurable(); err != nil {
		return nil, err
	}
	if ts, ok := cfg.Service.(TentativeService); ok {
		r.tentSvc = ts
	}
	if tf, ok := cfg.Service.(TentativeFilter); ok {
		r.tentFilter = tf
	}
	if _, ok := cfg.Service.(DeltaSnapshotter); ok && r.executed == 0 && cfg.CompactEvery > 1 {
		// A replica that starts from nothing starts its chain there:
		// every such replica holds the same state, so all hold this head.
		snap := r.stateSnapshot()
		r.rebase(0, snap, fullHead(snap))
	}
	r.tentExecuted = r.executed
	r.lowWaterMirror.Store(r.lowWater)
	r.initMetrics()
	return r, nil
}

// misrouted reports whether a request is addressed to another group.
// Requests without a group identity are accepted everywhere, so
// single-group deployments are unaffected.
func (r *Replica) misrouted(req Request) bool {
	return req.Group != "" && req.Group != r.cfg.Group
}

// attest signs the agreed result of a partition 2PC operation with the
// replica's attestation key; it returns nil for every other request
// (vote certificates are collected one operation at a time, so a
// multi-operation window is never attested).
// Only committed results are ever attested — a tentative result is not
// yet this group's agreed word (and 2PC operations are excluded from
// tentative execution anyway).
func (r *Replica) attest(req Request, result []byte) []byte {
	if r.cfg.AttestKey == nil || len(req.Tail) > 0 || !wire.IsPartitionOp(req.Op) {
		return nil
	}
	return ed25519.Sign(r.cfg.AttestKey, wire.AttestPayload(r.cfg.Group, result))
}

// initDurable detects a persistent service and resumes from its data
// directory: the recovered agreement position becomes the replica's
// executed/assigned sequence and local stable checkpoint (everything
// at or below it is already applied), and the client table is the
// recovery snapshot's table with every recovered unit's updates folded
// forward — so at-most-once semantics survive the restart. The chain
// head is not on disk: the replica re-joins the cluster's digest chain
// by adopting the head the others announce at its first checkpoint
// boundary (adoptHead).
func (r *Replica) initDurable() error {
	d, ok := r.cfg.Service.(DurableService)
	if !ok || !d.Durable() {
		return nil
	}
	r.durable = d
	unitSeq, baseExtra, units := d.RecoveredState()
	if unitSeq == 0 {
		return nil
	}
	clients, err := decodeClientTable(baseExtra)
	if err != nil {
		return fmt.Errorf("bft: recover %s: %w", r.cfg.ID, err)
	}
	for _, u := range units {
		ups, err := decodeClientUpdates(u.Extra)
		if err != nil {
			return fmt.Errorf("bft: recover %s unit %d: %w", r.cfg.ID, u.Seq, err)
		}
		applyClientUpdates(clients, ups)
	}
	r.clients = clients
	r.executed = unitSeq
	r.seq = unitSeq
	r.lowWater = unitSeq
	r.executedMirror.Store(unitSeq)
	return nil
}

// roWorkers is the size of the read-only execution pool and roBacklog
// its queue depth. Reads beyond the backlog are dropped — the
// asynchronous model permits loss, and the client falls back to the
// ordered path.
var roWorkers = runtime.GOMAXPROCS(0)

const roBacklog = 256

// Start launches the replica's event loop and its read-only worker
// pool.
func (r *Replica) Start() {
	r.initTimers()
	r.roCh = make(chan ReadOnly, roBacklog)
	for i := 0; i < roWorkers; i++ {
		r.roWG.Add(1)
		go func() {
			defer r.roWG.Done()
			for {
				select {
				case ro := <-r.roCh:
					r.serveReadOnly(ro)
				case <-r.stop:
					return
				}
			}
		}()
	}
	go r.run()
}

// initTimers creates the view-change and batch timers on the config
// clock. A real clock's timers deliver on C() into run's select; a
// virtual clock invokes the fire callbacks synchronously from the
// simulation loop instead, so both modes share the same handling.
func (r *Replica) initTimers() {
	r.timer = r.cfg.Clock.NewTimer(func() {
		r.onTimeout()
		r.sync()
	})
	r.batchTimer = r.cfg.Clock.NewTimer(func() {
		r.batchTimerArmed = false
		r.flushQueue(true)
		r.sync()
	})
}

// StartDriven puts the replica in driven (simulation) mode: no
// goroutines are launched. The caller owns the single thread of
// control — it delivers inbound messages via Deliver, and timer fires
// arrive synchronously through the virtual clock's callbacks.
// Requires a virtual ReplicaConfig.Clock.
func (r *Replica) StartDriven() {
	r.driven = true
	r.initTimers()
}

// Deliver hands one inbound message to a driven replica and refreshes
// its mirrors. Only valid after StartDriven, on the driving thread.
func (r *Replica) Deliver(m transport.Inbound) {
	r.dispatch(m)
	r.sync()
}

// Stop terminates the event loop and the read-only pool, and waits for
// both to exit. A driven replica has neither: Stop just disarms its
// timers, after which the virtual clock will not call back into it.
func (r *Replica) Stop() {
	if r.driven {
		r.disarmTimer()
		r.disarmBatchTimer()
		return
	}
	close(r.stop)
	<-r.done
	r.roWG.Wait()
}

// View returns the replica's current view.
func (r *Replica) View() uint64 { return r.viewMirror.Load() }

// Executed returns the highest executed sequence number.
func (r *Replica) Executed() uint64 { return r.executedMirror.Load() }

// LogRecords returns the number of protocol-log records currently held
// (log entries, pending requests, sequence assignments, queued
// requests, and unverified batches). Checkpoint garbage collection must
// keep it bounded under sustained load.
func (r *Replica) LogRecords() int64 { return r.recordsMirror.Load() }

// BatchesProposed returns how many batch proposals this replica has
// issued as primary (for tests and diagnostics).
func (r *Replica) BatchesProposed() uint64 { return r.batchesMirror.Load() }

// LastViewChange returns why this replica last abandoned a view (zero,
// printing as "none", if it never did). Safe from any goroutine.
func (r *Replica) LastViewChange() ViewChangeCause {
	return ViewChangeCause(r.vcCauseMirror.Load())
}

// LowWater returns the last stable checkpoint sequence number. Safe
// from any goroutine.
func (r *Replica) LowWater() uint64 { return r.lowWaterMirror.Load() }

func (r *Replica) logf(format string, args ...any) {
	if r.logger != nil {
		r.logger.Printf("[%s v=%d] "+format, append([]any{r.cfg.ID, r.view}, args...)...)
	}
}

func (r *Replica) primary(view uint64) string {
	return r.cfg.Replicas[view%uint64(r.n)]
}

func (r *Replica) isPrimary() bool { return r.primary(r.view) == r.cfg.ID }

// quorum is the prepare/commit quorum: 2f+1 distinct replicas.
func (r *Replica) quorum() int { return 2*r.cfg.F + 1 }

func (r *Replica) run() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		case m, ok := <-r.tr.Inbox():
			if !ok {
				return
			}
			r.dispatch(m)
			r.sync()
		case <-r.timer.C():
			r.onTimeout()
			r.sync()
		case <-r.batchTimer.C():
			r.batchTimerArmed = false
			r.flushQueue(true)
			r.sync()
		}
	}
}

// sync refreshes the externally visible mirrors; the loop calls it
// after every event.
func (r *Replica) sync() {
	r.viewMirror.Store(r.view)
	r.executedMirror.Store(r.executed)
	r.recordsMirror.Store(int64(len(r.entries) + len(r.pending) +
		len(r.assigned) + len(r.queue) + len(r.unverified)))
	r.lowWaterMirror.Store(r.lowWater)
	r.tentDepthMirror.Store(int64(len(r.tentSegs)))
}

// dispatch handles one inbound: a message, or the transport's notice
// that a peer is unreachable. While any replica is marked unreachable,
// a message from it clears the mark and every event re-applies the
// connection-loss rule (skipUnreachable); a healthy group pays one
// branch per message.
func (r *Replica) dispatch(m transport.Inbound) {
	if !m.Down && r.unreachable == 0 {
		r.handle(m)
		return
	}
	if i, ok := r.indexes[m.From]; ok && m.From != r.cfg.ID {
		if m.Down {
			r.logf("transport reports %s unreachable", m.From)
			r.unreachable |= 1 << uint(i)
		} else {
			r.unreachable &^= 1 << uint(i)
		}
	}
	if !m.Down {
		r.handle(m)
	}
	r.skipUnreachable()
}

func (r *Replica) handle(m transport.Inbound) {
	msg, err := Unmarshal(m.Payload)
	if err != nil {
		r.logf("drop malformed message from %s: %v", m.From, err)
		return
	}
	switch msg := msg.(type) {
	case Request:
		// Requests come from clients; the transport authenticated the
		// sender, so a Byzantine client cannot submit ops under another
		// client's identity.
		if msg.Client != m.From {
			r.logf("drop request claiming %q from %q", msg.Client, m.From)
			return
		}
		r.onRequest(msg)
	case ReadOnly:
		if msg.Client != m.From {
			r.logf("drop read-only claiming %q from %q", msg.Client, m.From)
			return
		}
		r.onReadOnly(msg)
	case Batch:
		if m.From != r.primary(msg.View) {
			r.logf("drop batch from non-primary %s", m.From)
			return
		}
		r.onBatch(msg)
	case Prepare:
		if msg.Replica != m.From || !r.isReplica(m.From) {
			return
		}
		r.onPrepare(msg)
	case Commit:
		if msg.Replica != m.From || !r.isReplica(m.From) {
			return
		}
		r.onCommit(msg)
	case Checkpoint:
		if msg.Replica != m.From || !r.isReplica(m.From) {
			return
		}
		r.onCheckpoint(msg)
	case ViewChange:
		if msg.Replica != m.From || !r.isReplica(m.From) {
			return
		}
		r.onViewChange(msg)
	case ViewChangeAck:
		if msg.Replica != m.From || !r.isReplica(m.From) {
			return
		}
		r.onViewChangeAck(msg)
	case NewView:
		if msg.Replica != m.From || m.From != r.primary(msg.View) {
			return
		}
		r.onNewView(msg)
	case SeqRequest:
		if msg.Replica != m.From || !r.isReplica(m.From) {
			return
		}
		r.onSeqRequest(msg, m.From)
	case StateRequest:
		if !r.isReplica(m.From) {
			return
		}
		r.onStateRequest(msg, m.From)
	case StateResponse:
		if msg.Replica != m.From || !r.isReplica(m.From) {
			return
		}
		r.onStateResponse(msg)
	default:
		r.logf("drop unexpected %T from %s", msg, m.From)
	}
}

func (r *Replica) isReplica(id string) bool {
	_, ok := r.indexes[id]
	return ok
}

// voteBit returns the bitmask bit of a replica's group index.
func (r *Replica) voteBit(id string) uint64 {
	return 1 << uint(r.indexes[id])
}

// broadcast sends a protocol message to every other replica and
// reports how many peer links signalled backpressure — the batcher
// uses the count to pace proposals; everyone else ignores it (protocol
// traffic is admitted drop-oldest even under pressure, and the repair
// machinery retransmits).
func (r *Replica) broadcast(msg any) int {
	payload, err := Marshal(msg)
	if err != nil {
		r.logf("marshal %T: %v", msg, err)
		return 0
	}
	pressured := 0
	for _, id := range r.cfg.Replicas {
		if id == r.cfg.ID {
			continue
		}
		switch err := r.tr.Send(id, payload); {
		case err == nil:
		case errors.Is(err, transport.ErrBackpressure):
			pressured++
		default:
			r.logf("send to %s: %v", id, err)
		}
	}
	return pressured
}

func (r *Replica) sendTo(id string, msg any) {
	r.sendToClass(id, msg, transport.ClassProtocol)
}

// sendReply sends a client-facing reply on the request lane, so reply
// bursts queue behind protocol traffic rather than ahead of it. A
// backpressured reply is simply dropped — the client retransmits and
// its vote machinery tolerates missing replies.
func (r *Replica) sendReply(client string, msg any) {
	r.sendToClass(client, msg, transport.ClassRequest)
}

func (r *Replica) sendToClass(id string, msg any, class transport.Class) {
	payload, err := Marshal(msg)
	if err != nil {
		r.logf("marshal %T: %v", msg, err)
		return
	}
	switch err := r.tr.SendClass(id, payload, class); {
	case err == nil:
	case errors.Is(err, transport.ErrBackpressure):
		// Lossy-network semantics: the receiver retransmits its request.
	default:
		r.logf("send to %s: %v", id, err)
	}
}

// ---- Normal case ----

func (r *Replica) onRequest(req Request) {
	if r.misrouted(req) {
		return // addressed to another group of a partitioned deployment
	}
	// At-most-once: answer duplicates from the client table.
	if rec := r.clients[req.Client]; rec.stale(req) {
		if rec.holds(req) && rec.lastReply != nil {
			// Reply.View is only the client's primary-guess hint; the
			// current view is the freshest value we can offer.
			r.sendReply(req.Client, Reply{
				View: r.view, Client: req.Client, ReqID: req.ReqID,
				Replica: r.cfg.ID, Result: rec.lastReply,
				Group: r.cfg.Group, Attest: r.attest(req, rec.lastReply),
			})
		}
		return
	}
	if r.inViewChange {
		// No proposals mid-view-change, but still track the request: its
		// pending record keeps the view-change timer armed (a stabilize
		// may have disarmed it) and carries the request into the new
		// view's re-proposal, instead of waiting another client
		// retransmission interval after install.
		digest := req.Digest()
		if _, dup := r.pending[digest]; !dup {
			r.pending[digest] = req
			if len(r.pending) == 1 {
				r.armTimer()
			}
		}
		return
	}
	digest := req.Digest()
	if r.isPrimary() {
		if seq, dup := r.assigned[digest]; dup {
			// The client is retransmitting a request we already
			// proposed: protocol messages were probably lost.
			r.repairSeq(seq)
			return
		}
		if _, dup := r.queued[digest]; dup {
			return // already awaiting a sequence number
		}
		r.pending[digest] = req
		r.enqueue(req, digest)
		r.flushQueue(false)
		r.armTimer()
		return
	}
	// Backup: the client sends requests to the primary first (or
	// broadcasts, without a keyring) and broadcasts on retransmit, so
	// the primary has (or will get) its own copy. Track the request and
	// suspect the primary if nothing commits before the timer fires.
	// Requests are deliberately never forwarded replica-to-replica:
	// channel MACs authenticate only hop-by-hop, so a forwarded request
	// would let a Byzantine replica forge client operations.
	//
	// The timer is armed only when the request FIRST becomes pending:
	// client retransmissions must not keep pushing it back, or a faulty
	// primary would never be suspected.
	if _, dup := r.pending[digest]; dup {
		if seq, ok := r.assigned[digest]; ok {
			r.repairSeq(seq)
		}
		return
	}
	r.pending[digest] = req
	if len(r.pending) == 1 {
		r.armTimer()
	}
	r.retryUnverified()
}

// repairSeq recovers a sequence number the client is still waiting on:
// votes are not otherwise retransmitted (the network may drop them),
// so a replica stuck mid-protocol would hold the 2f+1 reply quorum
// below threshold forever. The primary re-sends the proposal (for
// peers that lost it), everyone re-sends its own highest vote, and a
// SEQ-REQUEST solicits the commit votes we may have lost ourselves.
// Client retransmissions pace the repair, so it is naturally
// rate-limited and touches only sequences someone still waits on.
func (r *Replica) repairSeq(seq uint64) {
	r.repairOne(seq)
	if next := r.executed + 1; next < seq {
		// A hole below blocks execution of seq no matter how seq's own
		// quorum completes. Holes with no client attached — a NEW-VIEW
		// no-op whose commit votes were lost — have no retransmission of
		// their own, so every client-paced repair above also repairs the
		// execution frontier.
		r.repairOne(next)
	}
}

// repairOne re-sends our protocol state for one sequence number and
// solicits the votes we may have lost.
func (r *Replica) repairOne(seq uint64) {
	e := r.entries[seq]
	if e == nil || e.batch == nil || e.executed {
		return
	}
	if r.isPrimary() {
		r.broadcast(*e.batch)
	}
	if e.sentCommit {
		r.broadcast(Commit{View: r.view, Seq: seq, Digest: e.batch.Digest, Replica: r.cfg.ID})
	} else if !r.isPrimary() {
		r.broadcast(Prepare{View: e.batch.View, Seq: seq, Digest: e.batch.Digest, Replica: r.cfg.ID})
	}
	r.broadcast(SeqRequest{Seq: seq, Replica: r.cfg.ID})
}

// onSeqRequest re-sends our commit vote for a sequence a peer is stuck
// on. The primary also re-sends the proposal itself (the asker may
// never have received the batch), and a request for a sequence we have
// stabilized past is answered with our latest checkpoint announcement —
// the asker is behind our stable state and needs checkpoint evidence to
// trigger a state transfer, not votes we no longer hold.
func (r *Replica) onSeqRequest(sr SeqRequest, from string) {
	e := r.entries[sr.Seq]
	if e == nil || e.batch == nil {
		if sr.Seq <= r.lowWater && r.lastCP.Seq > 0 {
			r.sendTo(from, r.lastCP)
		}
		return
	}
	if r.isPrimary() && e.batch.View == r.view {
		r.sendTo(from, *e.batch)
	}
	if e.sentCommit || e.executed {
		r.sendTo(from, Commit{View: r.view, Seq: sr.Seq, Digest: e.batch.Digest, Replica: r.cfg.ID})
	}
}

// enqueue appends a request to the primary's batch queue.
func (r *Replica) enqueue(req Request, digest [32]byte) {
	if r.m.batchDelay != nil && len(r.queue) == 0 {
		r.queuedAt = r.cfg.Clock.Now()
	}
	r.queue = append(r.queue, queuedReq{req: req, digest: digest})
	r.queued[digest] = struct{}{}
}

// flushQueue proposes queued requests as batches, filled by operations:
// a batch takes whole requests while their windows fit BatchSize, and
// always the first (one larger than BatchSize goes alone). The primary
// proposes immediately when a full batch is queued or when nothing it
// proposed is still uncommitted (an idle pipeline must never wait);
// otherwise it holds the partial batch open — accumulating requests
// that arrive while earlier batches run the three phases — until the
// batch fills, the pipeline drains, or the batch timer forces it out.
// Sequence numbers are assigned without waiting for earlier batches to
// commit, pipelined up to the water-mark window.
func (r *Replica) flushQueue(force bool) {
	if !r.isPrimary() || r.inViewChange {
		return
	}
	max := r.cfg.BatchSize
	for len(r.queue) > 0 {
		if r.seq+1 > r.lowWater+window {
			r.logf("window full, holding %d queued requests", len(r.queue))
			return // stabilize will flush once the window advances
		}
		n, ops := 0, 0
		for n < len(r.queue) && (n == 0 || ops+r.queue[n].req.ops() <= max) {
			ops += r.queue[n].req.ops()
			n++
		}
		full := ops >= max || n < len(r.queue)
		if !force && !full && r.seq >= r.executed+pipelineDepth {
			r.armBatchTimer()
			return
		}
		force = false
		reqs := make([]Request, n)
		ds := make([][32]byte, n)
		for i, q := range r.queue[:n] {
			reqs[i] = q.req
			ds[i] = q.digest
			delete(r.queued, q.digest)
		}
		if n == len(r.queue) {
			r.queue = r.queue[:0] // keep the backing array for the next wave
		} else {
			r.queue = append([]queuedReq(nil), r.queue[n:]...)
		}
		r.seq++
		b := Batch{View: r.view, Seq: r.seq, Digest: batchDigestFrom(ds), Reqs: reqs}
		r.acceptBatch(b, ds)
		// The primary's own vote (merged with any early votes) can
		// already be a prepare quorum — always in an f=0 group, whose
		// liveness depends on this check; with f>0 only when peers voted
		// before the proposal, which acceptBatch merged in.
		r.tryPrepared(b.Seq)
		r.tryExecute()
		pressured := r.broadcast(b)
		r.batchesMirror.Add(1)
		r.m.batchesProposed.Inc()
		if r.m.batchDelay != nil {
			now := r.cfg.Clock.Now()
			r.m.batchDelay.Observe(now.Sub(r.queuedAt).Seconds())
			r.queuedAt = now
		}
		r.emit(EventBatchProposed, b.Seq, ops)
		r.armTimer()
		if pressured > r.cfg.F && len(r.queue) > 0 {
			// More than f peer links are congested, so the proposal may
			// not reach a quorum promptly. Hold the rest of the queue
			// for one batch-delay instead of piling more proposals onto
			// full lanes; the batch timer's force-flush keeps liveness.
			r.armBatchTimer()
			return
		}
	}
	r.disarmBatchTimer()
}

func (r *Replica) armBatchTimer() {
	if r.batchTimerArmed {
		return
	}
	r.batchTimerArmed = true
	r.batchTimer.Reset(r.cfg.BatchDelay)
}

func (r *Replica) disarmBatchTimer() {
	if !r.batchTimerArmed {
		return
	}
	r.batchTimerArmed = false
	if !r.batchTimer.Stop() {
		select {
		case <-r.batchTimer.C():
		default:
		}
	}
}

// noop reports whether req is the view-change no-op filler.
func noop(req Request) bool { return req.Client == "" && len(req.Op) == 0 }

// verifiableReq reports whether the replica may vouch for a request
// proposed in a batch: the view-change no-op, a request it received
// first-hand from the authenticated client, one the client table
// proves it saw before, or one carrying a valid authenticator for this
// replica. Without this check a Byzantine primary could alter a
// client's operation in its proposal (requests are only
// channel-authenticated hop by hop) and the forgery could prepare and
// survive a view change.
func (r *Replica) verifiableReq(req Request, digest [32]byte) bool {
	if noop(req) {
		return true
	}
	if _, firsthand := r.pending[digest]; firsthand {
		return true
	}
	// Already-executed requests re-appear after view changes; the
	// client table proves we saw them first-hand before.
	if r.clients[req.Client].stale(req) {
		return true
	}
	return r.authValid(req, digest)
}

// authValid verifies the client's authenticator for this replica.
func (r *Replica) authValid(req Request, digest [32]byte) bool {
	kr := r.cfg.Keyring
	if kr == nil || len(req.Auth) != r.n {
		return false
	}
	return kr.Verify(req.Client, digest[:], req.Auth[r.index])
}

// batchVerifiable reports whether every request in the batch may be
// vouched for.
func (r *Replica) batchVerifiable(b Batch, ds [][32]byte) bool {
	for i, req := range b.Reqs {
		if !r.verifiableReq(req, ds[i]) {
			return false
		}
	}
	return true
}

// retryUnverified re-processes buffered batches once more first-hand
// requests arrive.
func (r *Replica) retryUnverified() {
	if len(r.unverified) == 0 {
		return
	}
	// Ascending sequence order: processing order affects which batches
	// prepare first, and map order would make replays diverge.
	seqs := make([]uint64, 0, len(r.unverified))
	for seq := range r.unverified {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		ub := r.unverified[seq]
		if r.batchVerifiable(ub.b, ub.ds) {
			delete(r.unverified, seq)
			if ub.b.View == r.view {
				r.processBatch(ub.b, ub.ds)
			}
		}
	}
}

func (r *Replica) entry(seq uint64) *logEntry {
	e, ok := r.entries[seq]
	if !ok {
		e = &logEntry{}
		r.entries[seq] = e
	}
	return e
}

func (r *Replica) onBatch(b Batch) {
	if r.inViewChange || b.View != r.view {
		return
	}
	if b.Seq <= r.lowWater || b.Seq > r.lowWater+window {
		return
	}
	ds, ok := b.digests()
	if !ok {
		r.logf("batch digest mismatch at seq %d", b.Seq)
		return
	}
	e := r.entry(b.Seq)
	if e.batch != nil {
		if e.batch.Digest != b.Digest {
			r.logf("conflicting proposal at seq %d — primary equivocates", b.Seq)
			r.startViewChange(r.view+1, CauseEquivocation)
		}
		return
	}
	if buffered, dup := r.unverified[b.Seq]; dup && buffered.b.Digest != b.Digest {
		r.logf("conflicting proposal at seq %d — primary equivocates", b.Seq)
		r.startViewChange(r.view+1, CauseEquivocation)
		return
	}
	if !r.batchVerifiable(b, ds) {
		// Wait for the client's own copy (it retransmits) before
		// vouching; see verifiableReq. The view-change timer is already
		// armed by the pending request — deliberately NOT re-armed here,
		// or a primary could stall us forever with unverifiable
		// proposals.
		r.unverified[b.Seq] = unverifiedBatch{b: b, ds: ds}
		return
	}
	r.processBatch(b, ds)
}

// processBatch accepts a verified batch and votes for it.
func (r *Replica) processBatch(b Batch, ds [][32]byte) {
	if r.isPrimary() {
		return
	}
	e := r.entry(b.Seq)
	if e.batch != nil {
		return
	}
	r.acceptBatch(b, ds)
	prep := Prepare{View: b.View, Seq: b.Seq, Digest: b.Digest, Replica: r.cfg.ID}
	r.broadcast(prep)
	r.tryPrepared(b.Seq)
	// Early commit votes merged by acceptBatch may already form a
	// quorum (committed does not require our own prepared state).
	r.tryExecute()
}

// acceptBatch records the batch and the issuing primary's implicit
// prepare vote, plus our own; votes that arrived before the proposal
// merge in if — and only if — they were cast for this digest. Every
// request in the batch becomes pending (so the view-change timer
// guards it) and assigned.
func (r *Replica) acceptBatch(b Batch, ds [][32]byte) {
	e := r.entry(b.Seq)
	bCopy := b
	e.batch = &bCopy
	e.digests = ds
	if ev, ok := e.early[b.Digest]; ok {
		e.prepares |= ev.prepares
		e.commits |= ev.commits
	}
	e.early = nil
	e.prepares |= r.voteBit(r.primary(b.View))
	e.prepares |= r.voteBit(r.cfg.ID)
	fill := b.ops()
	r.m.batchFill.Observe(float64(fill))
	r.emit(EventBatchAccepted, b.Seq, fill)
	if b.Seq > r.seq {
		r.seq = b.Seq
	}
	wasEmpty := len(r.pending) == 0
	for i, req := range b.Reqs {
		if noop(req) {
			continue
		}
		r.pending[ds[i]] = req
		r.assigned[ds[i]] = b.Seq
	}
	if wasEmpty && len(r.pending) > 0 {
		// The first pending request arrived inside the proposal itself
		// (the client sent it to the primary alone): arm the suspicion
		// timer exactly as if the client had broadcast it.
		r.armTimer()
	}
}

func (r *Replica) onPrepare(p Prepare) {
	if r.inViewChange || p.View != r.view {
		return
	}
	if p.Seq <= r.lowWater || p.Seq > r.lowWater+window {
		return
	}
	e := r.entry(p.Seq)
	if e.batch == nil {
		if ev := r.earlyVote(e, p.Digest); ev != nil {
			ev.prepares |= r.voteBit(p.Replica)
		}
		return
	}
	if e.batch.Digest != p.Digest {
		return // vote for a different proposal: ignore
	}
	e.prepares |= r.voteBit(p.Replica)
	r.tryPrepared(p.Seq)
}

// maxEarlyDigests bounds distinct digests buffered per sequence number
// before its proposal arrives: honest executions produce at most a
// couple (the proposal's digest, a re-proposal across views, a no-op
// filler), so the bound only discards garbage a Byzantine replica
// streams under fresh random digests — which would otherwise grow
// memory without limit on sequences that never get a proposal.
const maxEarlyDigests = 4

// earlyVote returns the pre-proposal vote bucket for a digest, or nil
// when the per-entry digest bound is exhausted.
func (r *Replica) earlyVote(e *logEntry, digest [32]byte) *earlyVotes {
	if e.early == nil {
		e.early = make(map[[32]byte]*earlyVotes, 1)
	}
	ev, ok := e.early[digest]
	if !ok {
		if len(e.early) >= maxEarlyDigests {
			return nil
		}
		ev = &earlyVotes{}
		e.early[digest] = ev
	}
	return ev
}

func (r *Replica) tryPrepared(seq uint64) {
	e := r.entries[seq]
	if e == nil || e.batch == nil || e.sentCommit {
		return
	}
	if bits.OnesCount64(e.prepares) < r.quorum() {
		return
	}
	e.sentCommit = true
	r.emit(EventPrepared, seq, 0)
	// Record the prepared certificate independently of the log entry:
	// view installs reseed entries (resetting their vote bitmasks), but
	// the certificate must survive until the sequence stabilizes — the
	// view-change safety argument needs every honest replica that
	// prepared a batch to keep carrying the proof, or a batch committed
	// elsewhere can be merged away into a no-op.
	r.prepCerts[seq] = *e.batch
	c := Commit{View: r.view, Seq: seq, Digest: e.batch.Digest, Replica: r.cfg.ID}
	e.commits |= r.voteBit(r.cfg.ID)
	r.broadcast(c)
	r.tryExecute()
}

func (r *Replica) onCommit(c Commit) {
	if c.Seq <= r.lowWater || c.Seq > r.lowWater+window {
		return
	}
	// Commits are accepted across views: a commit quorum is meaningful
	// as long as the digest matches the accepted proposal.
	e := r.entry(c.Seq)
	if e.batch == nil {
		if ev := r.earlyVote(e, c.Digest); ev != nil {
			ev.commits |= r.voteBit(c.Replica)
		}
		return
	}
	if e.batch.Digest != c.Digest {
		return
	}
	e.commits |= r.voteBit(c.Replica)
	r.tryExecute()
}

// committed reports whether entry e has a commit quorum and is safe to
// execute. Our own prepared state (sentCommit) is deliberately not
// required: 2f+1 commit votes for the accepted batch prove the batch
// prepared at f+1 correct replicas, which is exactly the property view
// changes preserve — so executing on the commit quorum alone is safe,
// and it lets a replica that lost prepare traffic catch up from
// repaired commits without re-running the prepare round.
func (r *Replica) committed(e *logEntry) bool {
	return e != nil && e.batch != nil && bits.OnesCount64(e.commits) >= r.quorum()
}

// tryExecute lands committed batches in sequence order, each batch
// atomically.
func (r *Replica) tryExecute() {
	for {
		next := r.executed + 1
		e := r.entries[next]
		if !r.committed(e) {
			break
		}
		r.land(next, e)
		r.m.batchesExecuted.Inc()
		ops := e.batch.ops()
		r.m.requestsExecuted.Add(uint64(ops))
		r.emit(EventExecuted, next, ops)
		e.executed = true
		r.executed = next
		if r.tentExecuted < r.executed {
			r.tentExecuted = r.executed
		}
		if len(r.pending) == 0 {
			r.disarmTimer()
		} else {
			r.armTimer()
		}
		if r.executed%r.cfg.CheckpointInterval == 0 {
			r.makeCheckpoint(r.executed)
		}
	}
	// The pipeline advanced (or stalled): give the primary a chance to
	// propose what queued up meanwhile.
	r.flushQueue(false)
	// Newly prepared batches (or batches re-accepted by a view change)
	// may be ready for tentative execution.
	r.tryTentative()
}

// ---- Execution ----
//
// Every sequence number executes through executeUnit and reaches
// committed state through land. A batch the replica has locally
// prepared (sentCommit) is proven to be prepared at this replica; once
// 2f+1 replicas reply tentatively, the client knows the batch prepared
// at 2f+1 replicas, so any view-change quorum intersects it in a
// correct replica that carries the batch forward under the same digest
// — the result can never be revoked (Castro–Liskov). The replica
// therefore executes at prepared into an overlay (TentativeService),
// replies with the Tentative flag one protocol round early, and lands
// the unit when the commit quorum arrives. Nothing tentative touches
// the committed client table, the stores or the WAL, so a view change
// that drops a prepared batch rolls back by discarding overlays. A
// batch that is not executed by the time it commits — it committed
// before it prepared here, or it may not stage — executes inside land.

// tryTentative executes prepared-but-uncommitted batches into the
// overlay stack, in sequence order directly above the committed prefix,
// and sends their tentative replies. Pending and assigned records
// survive untouched so client retransmissions keep driving repair until
// the batch actually commits.
func (r *Replica) tryTentative() {
	if r.inViewChange {
		return
	}
	if r.tentExecuted < r.executed {
		r.tentExecuted = r.executed
	}
	for {
		next := r.tentExecuted + 1
		e := r.entries[next]
		if e == nil || e.batch == nil || !e.sentCommit || e.executed {
			return
		}
		if !r.stageable(e.batch) {
			// The batch must execute on committed state. Stop here —
			// skipping past it would break the overlay chain's ordering
			// contract — and let the commit quorum drive this and all
			// later batches.
			return
		}
		seg := r.executeUnit(next, e, true)
		r.tentSegs = append(r.tentSegs, seg)
		r.tentExecuted = next
		r.m.tentativeExecuted.Inc()
		r.emit(EventTentativeExecuted, next, e.batch.ops())
		for i, req := range e.batch.Reqs {
			if seg.results[i] != nil {
				r.sendReply(req.Client, Reply{
					View: r.view, Client: req.Client, ReqID: req.ReqID,
					Replica: r.cfg.ID, Result: seg.results[i], Tentative: true,
					Group: r.cfg.Group,
				})
			}
		}
	}
}

// stageable reports whether the batch may execute into the overlay: the
// service must support it, and must exclude none of the batch's
// operations (partition 2PC mutates bookkeeping no overlay can roll
// back).
func (r *Replica) stageable(b *Batch) bool {
	if r.tentSvc == nil {
		return false
	}
	if r.tentFilter == nil {
		return true
	}
	for _, req := range b.Reqs {
		if noop(req) {
			continue
		}
		for i := range req.ops() {
			if r.tentFilter.SkipTentative(req.opAt(i)) {
				return false
			}
		}
	}
	return true
}

// tentLookup resolves a client's at-most-once record through the
// tentative overlays (newest first), falling back to the committed
// table — the record state the unit will see once every tentative unit
// below it commits.
func (r *Replica) tentLookup(client string) *clientRecord {
	for i := len(r.tentSegs) - 1; i >= 0; i-- {
		if rec, ok := r.tentSegs[i].clients[client]; ok {
			return rec
		}
	}
	return r.clients[client]
}

// executeUnit runs the batch at seq, in request order and each
// request's window in operation order, and returns its segment; this is
// the only place an operation executes. A staged unit (the caller
// checked stageable) runs into a fresh overlay unit; any other runs on
// the service directly, which is only sound at commit time (land).
// Either way the at-most-once bookkeeping lands in the segment, not the
// committed client table: a request executes, whole, unless the client's
// record shows its first ID (or a later one) already did — possible
// across view changes, and within one batch from a Byzantine primary —
// in which case the held reply is replayed to an exact retransmission,
// and nothing is said to an older or overlapping request.
func (r *Replica) executeUnit(seq uint64, e *logEntry, staged bool) tentSeg {
	b := e.batch
	seg := tentSeg{
		seq:     seq,
		staged:  staged,
		clients: make(map[string]*clientRecord),
		results: make([][]byte, len(b.Reqs)),
	}
	if seg.staged {
		r.tentSvc.BeginTentativeUnit(seq)
	}
	for i, req := range b.Reqs {
		if noop(req) {
			continue
		}
		// Within-batch duplicates consult this unit's own records first
		// — the order sequential execution observes.
		rec, ok := seg.clients[req.Client]
		if !ok {
			rec = r.tentLookup(req.Client)
		}
		if rec.stale(req) {
			if rec.holds(req) {
				seg.results[i] = rec.lastReply
			}
			continue
		}
		perOp := make([][]byte, req.ops())
		for j := range perOp {
			if seg.staged {
				perOp[j] = r.tentSvc.TentativeExecute(req.Client, req.opAt(j))
			} else {
				perOp[j] = r.service.Execute(req.Client, req.opAt(j))
			}
		}
		result := encodeWindowResults(perOp)
		seg.clients[req.Client] = &clientRecord{lastReqID: req.lastID(), ops: uint64(len(perOp)), lastReply: result}
		seg.results[i] = result
	}
	if seg.staged {
		r.tentSvc.EndTentativeUnit()
	}
	return seg
}

// land puts the committed batch at seq into committed state: it takes
// the unit's segment off the tentative stack — or executes the unit
// now — promotes its overlay, folds its client records into the
// committed table and confirms to the clients. On a durable service the
// whole step is one WAL unit: the store mutations frame together with
// the client-table updates the batch causes, so a crash recovers to a
// batch boundary or not at all.
//
// Every replica replies: the client waits for 2f+1 byte-identical
// replies (the threshold the read-only optimization needs), so all
// 3f+1 must send for the vote to survive f faulty or slow replicas
// without falling back to retransmission.
func (r *Replica) land(seq uint64, e *logEntry) {
	if len(r.tentSegs) > 0 && r.tentSegs[0].seq != seq {
		// The stack cannot start above executed+1: segments are created
		// consecutively from executed+1 and landed in order. Reaching
		// here means the invariant broke — discard the tentative state
		// and execute on committed state.
		r.logf("tentative stack out of sync at %d (head %d), rolling back", seq, r.tentSegs[0].seq)
		r.rollbackTentative()
	}
	if r.durable != nil {
		r.durable.BeginUnit(seq)
	}
	var seg tentSeg
	if len(r.tentSegs) > 0 {
		seg, r.tentSegs = r.tentSegs[0], r.tentSegs[1:]
	} else {
		seg = r.executeUnit(seq, e, r.stageable(e.batch))
	}
	b := e.batch
	if seg.staged {
		r.tentSvc.PromoteTentative()
		r.m.tentativePromoted.Inc()
		r.emit(EventTentativePromoted, seq, len(b.Reqs))
	}
	for id, rec := range seg.clients {
		r.clients[id] = rec
	}
	if r.durable != nil {
		r.durable.CommitUnit(r.unitExtra(e))
	}
	for i, req := range b.Reqs {
		if noop(req) {
			continue
		}
		// Every client the batch names is dirty for the next checkpoint
		// delta (re-encoding an unchanged duplicate record is harmless
		// and keeps the set identical on every replica).
		r.dirtyClients[req.Client] = struct{}{}
		d := e.digests[i]
		delete(r.pending, d)
		delete(r.assigned, d)
		delete(r.queued, d)
		if seg.results[i] != nil {
			r.sendReply(req.Client, Reply{
				View: r.view, Client: req.Client, ReqID: req.ReqID,
				Replica: r.cfg.ID, Result: seg.results[i],
				Group: r.cfg.Group, Attest: r.attest(req, seg.results[i]),
			})
		}
	}
}

// rollbackTentative discards every unpromoted tentative unit — called
// when a view change or state transfer may invalidate the prepared
// suffix. Re-proposed batches re-execute tentatively (byte-identically:
// committed state was never touched) after the new view installs.
func (r *Replica) rollbackTentative() {
	if len(r.tentSegs) == 0 && r.tentExecuted == r.executed {
		return
	}
	r.m.tentativeRollbacks.Inc()
	r.emit(EventTentativeRollback, r.executed, len(r.tentSegs))
	if r.tentSvc != nil {
		r.tentSvc.RollbackTentative()
	}
	r.tentSegs = nil
	r.tentExecuted = r.executed
}

// ---- Read-only fast path ----

// onReadOnly hands a read to the worker pool, keeping the event loop
// free to order writes. A full backlog drops the read (the client
// falls back to ordering), so the loop never blocks on readers.
func (r *Replica) onReadOnly(ro ReadOnly) {
	if r.driven {
		// Simulation mode has no worker pool; serve inline so the read
		// lands deterministically at its delivery point in virtual time.
		r.serveReadOnly(ro)
		return
	}
	select {
	case r.roCh <- ro:
	default:
		r.m.roDropped.Inc()
	}
}

// serveReadOnly executes a non-mutating operation against the current
// committed state, without ordering, on a pool worker. The space
// serialises it against ordered execution with shard read locks only,
// so reads proceed concurrently with each other and with batches
// writing other shards. The reply carries the read-only flag so the
// client votes it separately (2f+1 byte-identical); a replica whose
// service cannot serve the operation read-only stays silent and the
// client falls back to the ordered path.
//
// Runs outside the event loop: it must touch only immutable replica
// fields, atomics, and the (internally synchronised) service and
// transport.
func (r *Replica) serveReadOnly(ro ReadOnly) {
	roe, ok := r.service.(ReadOnlyExecutor)
	if !ok {
		return
	}
	result, ok := roe.ExecuteReadOnly(ro.Client, ro.Op)
	if !ok {
		return
	}
	payload, err := Marshal(Reply{
		View: r.viewMirror.Load(), Client: ro.Client, ReqID: ro.ReqID,
		Replica: r.cfg.ID, Result: result, ReadOnly: true,
		Group: r.cfg.Group,
	})
	if err != nil {
		return
	}
	// Best-effort on the request lane: a failed send is
	// indistinguishable from loss, and the client's vote machinery
	// already handles missing replies.
	_ = r.tr.SendClass(ro.Client, payload, transport.ClassRequest)
	r.m.roServed.Inc()
}

// ---- Checkpoints and state transfer ----

// stateSnapshot captures service state plus the client table (the
// client table is part of replicated state: without it a restored
// replica would re-execute old requests).
func (r *Replica) stateSnapshot() []byte {
	svc := r.service.Snapshot()
	size := len(svc) + 2*binary.MaxVarintLen64
	for id, rec := range r.clients {
		size += len(id) + len(rec.lastReply) + 4*binary.MaxVarintLen64
	}
	w := wire.NewWriterSize(size) // the one copy of the service's bytes
	w.Bytes(svc)
	appendClientRecords(w, r.clients, sortedClientIDs(r.clients))
	return w.Data()
}

func (r *Replica) restoreState(snapshot []byte) error {
	rd := wire.NewReader(snapshot)
	svc := rd.Bytes()
	ups, err := readClientRecords(rd)
	if err == nil {
		rd.ExpectEOF()
		err = rd.Err()
	}
	if err != nil {
		return fmt.Errorf("bft: decode snapshot: %w", err)
	}
	if err := r.service.Restore(svc); err != nil {
		return err
	}
	r.clients = make(map[string]*clientRecord, len(ups))
	applyClientUpdates(r.clients, ups)
	return nil
}

// cpMode is what a replica does at a checkpoint boundary.
type cpMode int

const (
	cpFull  cpMode = iota // snapshot the whole state and re-base the chain on it
	cpDelta               // chain the interval's delta blob onto the head
	cpAwait               // no head to chain on: publish nothing, adopt one
)

// makeCheckpoint handles the checkpoint boundary at seq: it publishes
// the head of the digest chain there — extended by the interval's delta
// blob, O(changes this interval) however large the resident space is,
// or re-based on a full stateSnapshot when tryDeltaCheckpoint says one
// is due — unless the replica has no head to extend, in which case it
// stays silent and adopts the head the others announce. On a durable
// service every boundary is also where the log may be compacted.
func (r *Replica) makeCheckpoint(seq uint64) {
	blob, mode := r.tryDeltaCheckpoint(seq)
	r.cpSeq = seq
	switch mode {
	case cpDelta:
		r.cpHead = r.cpHead.extend(blob)
		if r.cpBase != nil {
			r.cpDeltas[seq] = blob
		}
		r.m.checkpointsDelta.Inc()
	case cpFull:
		snap := r.stateSnapshot()
		r.snapshots[seq] = snap
		r.rebase(seq, snap, fullHead(snap))
		r.m.checkpointsFull.Inc()
	}
	if r.durable != nil {
		if err := r.durable.CompactTo(seq, encodeFullClientTable(r.clients)); err != nil {
			r.logf("compact at %d: %v", seq, err)
		}
	}
	if mode == cpAwait {
		r.adoptHead(seq) // the others' votes may be here already
		return
	}
	if r.cfg.KeepCheckpointHistory {
		r.cpHistory[seq] = r.cpHead.digest
	}
	full := 0
	if mode == cpFull {
		full = 1
	}
	r.emit(EventCheckpoint, seq, full)
	r.lastCP = r.checkpointAt(seq, r.cpHead)
	r.recordCheckpoint(r.lastCP)
	r.broadcast(r.lastCP)
}

// checkpointAt is this replica's announcement of head at seq.
func (r *Replica) checkpointAt(seq uint64, h cpHead) Checkpoint {
	return Checkpoint{Seq: seq, View: r.view, Digest: h.digest, BaseLen: h.baseLen, ChainLen: h.chainLen, Replica: r.cfg.ID}
}

// tryDeltaCheckpoint cuts the service journal at seq and decides the
// checkpoint's mode — the one place that does. A full checkpoint is due
// at a grid point (every CompactEvery-th interval by sequence number)
// once the chain has outgrown its base: both weights are functions of
// bytes every replica holding the head agrees on, so all of them pick
// the same mode with no coordination and the digests vote. A replica
// without a head — recovered from disk, or its journal broke — restarts
// its journal here and awaits adoption instead of snapshotting: a lone
// snapshot would start a chain nobody else is on, with re-bases of its
// own.
//
// The grid also keeps its old job as the backstop. When checkpoints
// have not stabilised for half the window — however the heads came to
// differ — every grid point is taken, by everyone, head or not, which
// is the schedule that used to apply always and needs nothing but
// sequence numbers to agree on.
func (r *Replica) tryDeltaCheckpoint(seq uint64) ([]byte, cpMode) {
	ds, ok := r.service.(DeltaSnapshotter)
	if !ok {
		return nil, cpFull
	}
	grid := seq%(r.cfg.CheckpointInterval*uint64(r.cfg.CompactEvery)) == 0
	stalled := seq-r.lowWater >= window/2
	if r.cfg.CompactEvery <= 1 || grid && (stalled || r.cpHave && r.cpHead.outgrown()) {
		// The journal restarts here, but its contents are not needed —
		// skip the encode.
		ds.ResetJournal()
		return nil, cpFull
	}
	if r.cpHave {
		if svcDelta, ok := ds.CheckpointDelta(); ok {
			return encodeCheckpointDelta(svcDelta, r.drainClientUpdates()), cpDelta
		}
		r.cpHave = false // the journal broke: the head cannot be extended
	}
	ds.ResetJournal()
	clear(r.dirtyClients)
	return nil, cpAwait
}

// drainClientUpdates encodes and clears the dirty client records.
func (r *Replica) drainClientUpdates() []byte {
	if len(r.dirtyClients) == 0 {
		return encodeClientRecords(r.clients, nil)
	}
	ids := make([]string, 0, len(r.dirtyClients))
	for id := range r.dirtyClients {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	clear(r.dirtyClients)
	return encodeClientRecords(r.clients, ids)
}

// rebase installs a full snapshot as the digest chain's new base.
func (r *Replica) rebase(seq uint64, snap []byte, head cpHead) {
	r.cpHave = true
	r.cpHead = head
	r.cpSeq = seq
	r.cpBase = snap
	r.cpBaseSeq = seq
	clear(r.cpDeltas)
	clear(r.dirtyClients) // the full snapshot carries the whole table
}

// adoptHead lets a replica take the chain head at its last checkpoint
// boundary from the votes of others. A replica without a head takes the
// one f+1 of them announce for that boundary — at least one is honest,
// and an honest head commits to the committed state at seq, which is
// the state this replica's journal restarted from (the weak certificate
// onStateResponse trusts for a whole state). A replica whose own head a
// full quorum of others contradicts is the odd one out, and takes
// theirs. Either way it holds no base to serve chain packs from until
// the next re-base, and from the next boundary it chains and votes like
// everyone else.
func (r *Replica) adoptHead(seq uint64) {
	if seq != r.cpSeq {
		return // the journal no longer starts there
	}
	need := r.cfg.F + 1
	if r.cpHave {
		need = r.quorum()
	}
	counts := make(map[cpHead]int)
	for id, v := range r.checkpoints[seq] {
		if id != r.cfg.ID && !(r.cpHave && v.head == r.cpHead) {
			counts[v.head]++
		}
	}
	// Two heads can both reach f+1 only when honest replicas are
	// themselves split; either is sound then (the quorum rule reunites
	// them), and the smaller digest keeps the choice replayable.
	var best *cpHead
	for h, c := range counts {
		if c >= need && (best == nil || bytes.Compare(h.digest[:], best.digest[:]) < 0) {
			best = &h
		}
	}
	if best == nil {
		return
	}
	r.logf("adopting chain head %x at %d", best.digest[:4], seq)
	r.cpHave, r.cpHead = true, *best
	r.cpBase = nil
	clear(r.cpDeltas)
	delete(r.snapshots, seq)
}

// unitExtra encodes the client records a just-executed batch touched —
// the replication half of the batch's WAL unit.
func (r *Replica) unitExtra(e *logEntry) []byte {
	var ids []string
	seen := make(map[string]struct{}, len(e.batch.Reqs))
	for _, req := range e.batch.Reqs {
		if noop(req) {
			continue
		}
		if _, dup := seen[req.Client]; dup {
			continue
		}
		seen[req.Client] = struct{}{}
		ids = append(ids, req.Client)
	}
	sort.Strings(ids)
	return encodeClientRecords(r.clients, ids)
}

// StateDigest returns the digest of the replica's current full state
// snapshot (service state plus client table) — the value a full
// checkpoint here would publish. It reads loop-owned state: call it
// only before Start or after Stop (crash-recovery tests compare it to
// the digests healthy replicas published).
func (r *Replica) StateDigest() [32]byte { return auth.Digest(r.stateSnapshot()) }

// CheckpointDigests returns the checkpoint digests this replica
// published, by sequence number (requires
// ReplicaConfig.KeepCheckpointHistory). Loop-owned: call after Stop.
func (r *Replica) CheckpointDigests() map[uint64][32]byte {
	out := make(map[uint64][32]byte, len(r.cpHistory))
	for s, d := range r.cpHistory {
		out[s] = d
	}
	return out
}

func (r *Replica) onCheckpoint(cp Checkpoint) {
	r.recordCheckpoint(cp)
}

func (r *Replica) recordCheckpoint(cp Checkpoint) {
	if cp.Seq <= r.lowWater {
		return
	}
	byReplica, ok := r.checkpoints[cp.Seq]
	if !ok {
		byReplica = make(map[string]cpVote)
		r.checkpoints[cp.Seq] = byReplica
	}
	byReplica[cp.Replica] = cpVote{
		head: cpHead{digest: cp.Digest, baseLen: cp.BaseLen, chainLen: cp.ChainLen},
		view: cp.View,
	}
	r.adoptHead(cp.Seq)
	// Count matching heads.
	counts := make(map[cpHead]int)
	for _, v := range byReplica {
		counts[v.head]++
	}
	for d, c := range counts {
		if c < r.quorum() {
			continue
		}
		if cp.Seq > r.groupStable {
			r.groupStable = cp.Seq
		}
		// A quorum of checkpoints is also live proof of the view the
		// group operates in — realign before acting on the checkpoint,
		// so a replica wedged in a view nobody joined can rejoin.
		r.syncViewWithQuorum(cp.Seq, d)
		if cp.Seq <= r.executed {
			r.stabilize(cp.Seq)
		} else {
			// We are behind a stable checkpoint: fetch state from a
			// replica that has it.
			r.requestState(cp.Seq, d)
		}
		return
	}
	// Weak certificate: f+1 matching heads above our execution point
	// include at least one honest replica, whose checkpoint digest is
	// committed state by construction — enough to trust a transfer.
	// (Only one head can ever reach f+1: honest replicas agree, so a
	// second camp holds at most the f faulty.) This matters when fewer
	// than 2f+1 replicas are still advancing: the full quorum above can
	// never assemble, and without this path two laggards each below the
	// survivors' low-water mark would deadlock the group forever.
	if cp.Seq > r.executed {
		for d, c := range counts {
			if c >= r.cfg.F+1 {
				r.requestState(cp.Seq, d)
				return
			}
		}
	}
}

// stabilize makes seq the low water mark and garbage-collects every
// protocol record the stable checkpoint subsumes: log entries,
// checkpoint votes, snapshots, sequence assignments, buffered batches,
// and pending requests the client table proves executed. This is what
// keeps the log bounded under sustained load.
func (r *Replica) stabilize(seq uint64) {
	if seq <= r.lowWater {
		return
	}
	r.lowWater = seq
	for s := range r.entries {
		if s <= seq {
			delete(r.entries, s)
		}
	}
	for s := range r.checkpoints {
		if s < seq {
			delete(r.checkpoints, s)
		}
	}
	for s := range r.prepCerts {
		if s <= seq {
			delete(r.prepCerts, s)
		}
	}
	for s := range r.snapshots {
		if s < seq {
			delete(r.snapshots, s)
		}
	}
	for d, s := range r.assigned {
		if s <= seq {
			delete(r.assigned, d)
		}
	}
	for s := range r.unverified {
		if s <= seq {
			delete(r.unverified, s)
		}
	}
	for d, req := range r.pending {
		if r.clients[req.Client].stale(req) {
			delete(r.pending, d)
		}
	}
	if len(r.pending) == 0 && !r.inViewChange {
		// Mid-view-change the timer is the only way forward (it escalates
		// to the next view if the NEW-VIEW never arrives); disarming it
		// here would deadlock a group whose pending queues drained.
		r.disarmTimer()
	}
	r.logf("checkpoint stable at %d", seq)
	// The window may have re-opened for held batches.
	r.flushQueue(false)
}

func (r *Replica) requestState(seq uint64, head cpHead) {
	// Deterministic peer choice (group order starting after ourselves):
	// map order would pick a different server on every replay, and the
	// offset spreads transfer load when several replicas lag at once.
	byReplica := r.checkpoints[seq]
	for i := 1; i < r.n; i++ {
		id := r.cfg.Replicas[(r.index+i)%r.n]
		if v, ok := byReplica[id]; ok && v.head == head {
			r.sendTo(id, StateRequest{Seq: seq, Replica: r.cfg.ID})
			return
		}
	}
}

// onStateRequest serves checkpointed state: the full stateSnapshot
// when the requested sequence is a full checkpoint still held, or a
// chain pack — the last full snapshot plus every checkpoint delta up
// to the requested sequence — whose folded digest the requester checks
// against the checkpoint quorum.
func (r *Replica) onStateRequest(req StateRequest, from string) {
	if snap, ok := r.snapshots[req.Seq]; ok {
		r.m.stateServed.Inc()
		r.sendBulk(from, StateResponse{Seq: req.Seq, View: r.view, Snapshot: encodeFullPack(snap), Replica: r.cfg.ID})
		return
	}
	pack, ok := r.chainPackFor(req.Seq)
	if !ok {
		return
	}
	r.m.stateServed.Inc()
	r.sendBulk(from, StateResponse{Seq: req.Seq, View: r.view, Snapshot: pack, Replica: r.cfg.ID})
}

// sendBulk ships a state pack on the bulk lane, where the transport
// chunks it so it cannot head-of-line-block votes. A pack rejected by
// backpressure is logged and dropped whole — the requester re-sends
// its STATE-REQUEST (to a rotating peer) until one lands.
func (r *Replica) sendBulk(id string, msg any) {
	payload, err := Marshal(msg)
	if err != nil {
		r.logf("marshal %T: %v", msg, err)
		return
	}
	switch err := r.tr.SendClass(id, payload, transport.ClassBulk); {
	case err == nil:
	case errors.Is(err, transport.ErrBackpressure):
		r.logf("bulk lane to %s full, dropping %d-byte state pack", id, len(payload))
	default:
		r.logf("send to %s: %v", id, err)
	}
}

// chainPackFor assembles base + deltas covering every checkpoint in
// (base, seq], if this replica still holds them all.
func (r *Replica) chainPackFor(seq uint64) ([]byte, bool) {
	if !r.cpHave || r.cpBase == nil || seq <= r.cpBaseSeq {
		return nil, false
	}
	interval := r.cfg.CheckpointInterval
	var cps []seqDelta
	for s := r.cpBaseSeq + interval; s <= seq; s += interval {
		d, ok := r.cpDeltas[s]
		if !ok {
			return nil, false
		}
		cps = append(cps, seqDelta{seq: s, delta: d})
	}
	if len(cps) == 0 || cps[len(cps)-1].seq != seq {
		return nil, false // seq is not checkpoint-aligned with our chain
	}
	return encodeChainPack(r.cpBaseSeq, r.cpBase, cps), true
}

func (r *Replica) onStateResponse(resp StateResponse) {
	if resp.Seq <= r.executed {
		return
	}
	full, chain, isChain, err := decodeStatePack(resp.Snapshot)
	if err != nil {
		r.logf("state response at %d: %v", resp.Seq, err)
		return
	}
	// Verify against a checkpoint quorum before installing. A chain
	// pack folds to the chain head the quorum voted, whose digest
	// commits to the base snapshot and every delta — so tampering with
	// any part of either pack breaks the match.
	head := fullHead(full)
	if isChain {
		head = chain.head()
	}
	matching := 0
	for _, v := range r.checkpoints[resp.Seq] {
		if v.head == head {
			matching++
		}
	}
	if matching < r.cfg.F+1 {
		// f+1 matching announcements form a weak certificate: at least
		// one is honest, and an honest replica only announces committed
		// state. A full 2f+1 quorum may never assemble when fewer than
		// 2f+1 replicas are still advancing, so demanding it here would
		// wedge laggards permanently.
		r.logf("state response at %d lacks a weak digest certificate", resp.Seq)
		return
	}
	// The incoming snapshot replaces local state wholesale; tentative
	// overlays stacked on the old state are meaningless on top of it.
	r.rollbackTentative()
	if r.durable != nil {
		// The install is covered by the snapshot EndStateLoad writes,
		// not by the WAL: load mode for the whole sequence.
		r.durable.BeginStateLoad()
	}
	if isChain {
		err = r.installChain(chain)
	} else {
		err = r.restoreState(full)
	}
	if err != nil {
		if r.durable != nil {
			// Never snapshot a partially-installed state: leave the disk
			// at the last good state and fail loudly here.
			r.durable.AbortStateLoad()
		}
		r.logf("restore at %d: %v", resp.Seq, err)
		return
	}
	if ds, ok := r.service.(DeltaSnapshotter); ok {
		// The installed state IS the checkpoint the chain describes:
		// the journal restarts here, so this replica's next delta
		// checkpoint chains consistently with everyone else's.
		ds.ResetJournal()
	}
	if r.durable != nil {
		if lerr := r.durable.EndStateLoad(resp.Seq, encodeFullClientTable(r.clients)); lerr != nil {
			r.logf("persist state transfer at %d: %v", resp.Seq, lerr)
		}
	}
	if isChain {
		r.rebase(chain.baseSeq, chain.base, head)
		r.cpSeq = resp.Seq
		for _, cd := range chain.cps {
			r.cpDeltas[cd.seq] = cd.delta
		}
	} else {
		r.snapshots[resp.Seq] = full
		r.rebase(resp.Seq, full, head)
	}
	r.executed = resp.Seq
	if resp.Seq > r.seq {
		r.seq = resp.Seq
	}
	r.stabilize(resp.Seq)
	if resp.Seq > r.lastCP.Seq {
		r.lastCP = r.checkpointAt(resp.Seq, head)
	}
	// Realign with the view the checkpoint quorum reported, rather than
	// trusting the single responder's View field (one Byzantine server
	// could otherwise strand us in a fictitious far-future view).
	r.syncViewWithQuorum(resp.Seq, head)
	r.m.stateInstalled.Inc()
	r.emit(EventStateTransferInstalled, resp.Seq, 0)
	r.logf("state transfer installed seq %d", resp.Seq)
	r.tryExecute()
}

// installChain restores the chain's base snapshot and replays its
// checkpoint deltas — service mutations through ApplyDelta, client
// records folded over the base's table.
func (r *Replica) installChain(chain chainPack) error {
	ds, ok := r.service.(DeltaSnapshotter)
	if !ok {
		return fmt.Errorf("bft: chain state response but service has no delta support")
	}
	if err := r.restoreState(chain.base); err != nil {
		return err
	}
	for _, cd := range chain.cps {
		svcDelta, ups, err := decodeCheckpointDelta(cd.delta)
		if err != nil {
			return fmt.Errorf("bft: checkpoint %d: %w", cd.seq, err)
		}
		if err := ds.ApplyDelta(svcDelta); err != nil {
			return fmt.Errorf("bft: checkpoint %d: %w", cd.seq, err)
		}
		applyClientUpdates(r.clients, ups)
	}
	return nil
}
