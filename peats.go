// Package peats is the public API of the PEATS library — a Go
// implementation of "Sharing Memory between Byzantine Processes Using
// Policy-Enforced Tuple Spaces" (Bessani, Correia, Fraga, Lung; ICDCS
// 2006 / IEEE TPDS 2009).
//
// A PEATS is an augmented tuple space — a LINDA tuple space with a
// conditional atomic swap (cas) — protected by a fine-grained access
// policy evaluated by a reference monitor on every invocation. On top
// of a single PEATS the library provides the paper's Byzantine
// fault-tolerant consensus objects (weak, strong, default multivalued)
// and its lock-free and wait-free universal constructions, plus the
// replicated realisation of the space over a PBFT-style state machine
// replication substrate.
//
// Quick start (local space, weak consensus):
//
//	s := peats.NewSpace(consensus.WeakPolicy())
//	c := consensus.NewWeak(s.Handle("p1"))
//	decision, err := c.Propose(ctx, peats.Int(42))
//
// The same algorithms run unchanged over a Byzantine fault-tolerant
// replicated space; see NewLocalCluster and the examples/ directory.
package peats

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"peats/internal/bft"
	"peats/internal/durable"
	"peats/internal/partition"
	ipeats "peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/space"
	"peats/internal/tuple"
)

// Tuple-model re-exports.
type (
	// Tuple is a sequence of typed fields: an entry when all fields are
	// defined, a template otherwise.
	Tuple = tuple.Tuple
	// Field is one tuple position: a value, the wildcard, or a formal
	// field.
	Field = tuple.Field
	// Bindings maps formal-field names to matched values.
	Bindings = tuple.Bindings
)

// Field and tuple constructors (see package tuple).
var (
	// T builds a tuple from fields.
	T = tuple.T
	// Int builds a defined integer field.
	Int = tuple.Int
	// Str builds a defined string field.
	Str = tuple.Str
	// Bool builds a defined boolean field.
	Bool = tuple.Bool
	// Bytes builds a defined byte-string field.
	Bytes = tuple.Bytes
	// Any is the wildcard field "*".
	Any = tuple.Any
	// Formal builds the formal field "?name", which binds on match.
	Formal = tuple.Formal
	// Match tests an entry against a template, returning bindings.
	Match = tuple.Match
)

// Policy-model re-exports.
type (
	// ProcessID is an authenticated process identity.
	ProcessID = policy.ProcessID
	// Policy is a set of access rules with deny-by-default semantics.
	Policy = policy.Policy
	// Rule pairs an operation with the predicate that must hold for an
	// invocation of it to execute.
	Rule = policy.Rule
	// Invocation is what the reference monitor inspects: invoker,
	// operation, arguments.
	Invocation = policy.Invocation
	// StateView is the read-only object state visible to predicates.
	StateView = policy.StateView
)

// NewPolicy builds a policy from rules; AllowAll permits everything.
var (
	NewPolicy = policy.New
	AllowAll  = policy.AllowAll
)

// Space re-exports.
type (
	// Space is a local linearizable PEATS.
	Space = ipeats.Space
	// Handle is a process-bound view of a Space.
	Handle = ipeats.Handle
	// TupleSpace is the interface implemented by local handles and by
	// the replicated client, over which all algorithms are written.
	TupleSpace = ipeats.TupleSpace
)

// Operations-as-values re-exports: Op values built with OutOp, RdpOp,
// InpOp, CasOp and RdAllOp execute — alone or as an atomic
// multi-operation unit — through TupleSpace.Submit, which returns one
// Result per op. A multi-op submission is all-or-nothing: it executes
// inside one critical section (locally) or one agreement round
// (replicated), each op vetted by the reference monitor against the
// state its predecessors produced, and aborts without effect when an op
// is denied, malformed, or an InpOp finds no match (ErrAborted).
type (
	// Op is one tuple-space operation as a first-class value.
	Op = ipeats.Op
	// Result is the outcome of one submitted operation: matched tuple,
	// found/inserted flags, and formal-field Bindings.
	Result = ipeats.Result
	// DeniedError carries the reference monitor's denial detail; it
	// satisfies errors.Is(err, ErrDenied) on both realisations.
	DeniedError = ipeats.DeniedError
)

// Op constructors (see package peats/internal/peats).
var (
	// OutOp stages the insertion of an entry.
	OutOp = ipeats.OutOp
	// RdpOp stages a non-destructive non-blocking read.
	RdpOp = ipeats.RdpOp
	// InpOp stages a destructive non-blocking read; inside a multi-op
	// submission a miss aborts the whole unit.
	InpOp = ipeats.InpOp
	// CasOp stages the conditional atomic swap.
	CasOp = ipeats.CasOp
	// RdAllOp stages the bulk non-destructive read.
	RdAllOp = ipeats.RdAllOp
)

// ErrDenied is returned when the reference monitor rejects an
// invocation.
var ErrDenied = ipeats.ErrDenied

// ErrAborted is returned (wrapped) when a multi-op submission aborts
// because a destructive read found no match; no operation of the unit
// takes effect.
var ErrAborted = ipeats.ErrAborted

// StoreEngine selects the tuple-storage engine backing a space. The
// zero value selects the default engine (IndexedStore).
type StoreEngine = space.Engine

// Available store engines.
const (
	// SliceStore is the linear-scan reference engine: simplest possible
	// semantics, O(n) matching. Useful as a baseline and for debugging.
	SliceStore StoreEngine = space.EngineSlice
	// IndexedStore is the production engine (the default): tuples are
	// bucketed by arity and hashed on their first field, with insertion
	// order — and therefore match determinism — preserved through
	// monotonic sequence numbers.
	IndexedStore StoreEngine = space.EngineIndexed
	// DurableStore is the persistent engine: the indexed engine wrapped
	// by a write-ahead log that survives crashes (package durable). It
	// needs a data directory — select it with WithDataDir (which
	// implies it), tune it with WithFsync, and Close the space (or Stop
	// the cluster) to flush the log.
	DurableStore StoreEngine = space.EngineDurable
)

// FsyncPolicy selects when the durable engine fsyncs its write-ahead
// log (WithFsync).
type FsyncPolicy = durable.SyncPolicy

// Available fsync policies.
const (
	// FsyncAlways makes every committed operation (or agreement batch)
	// durable before it is acknowledged: maximum safety, one fsync per
	// unit.
	FsyncAlways FsyncPolicy = durable.SyncAlways
	// FsyncInterval is group commit (the default): operations
	// accumulate and one fsync covers the whole window. A crash loses
	// at most the last window, never a torn unit — and a replicated
	// deployment re-fetches the lost tail from its peers.
	FsyncInterval FsyncPolicy = durable.SyncInterval
	// FsyncNever leaves flushing to the operating system.
	FsyncNever FsyncPolicy = durable.SyncNever
)

// Option configures space construction (NewSpace, NewLocalCluster).
type Option func(*options)

type options struct {
	engine          StoreEngine
	shards          int
	batchSize       int
	batchDelay      time.Duration
	pollInterval    time.Duration
	dataDir         string
	fsync           FsyncPolicy
	tentativeWrites *bool
	tentativeReads  *bool
}

// WithStore selects the tuple-storage engine. Both engines implement
// identical deterministic match semantics (enforced by property test),
// so the choice only affects performance; replicas of one cluster may
// even mix engines.
func WithStore(e StoreEngine) Option {
	return func(o *options) { o.engine = e }
}

// WithShards partitions the space into n shards (1 ≤ n ≤
// space.MaxShards), each with its own store instance and lock. Tuples
// route to shards by a hash of their arity and first field, reads and
// writes on different shards run concurrently, and a space-wide
// sequence number keeps match order — and therefore every observable
// result — identical to a single-shard space. The default is 1.
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// WithBatchSize sets the maximum number of client requests the
// replicated cluster's primary orders under one agreement round
// (NewLocalCluster only). At 1, the default, every request runs its
// own three-phase round; above 1, requests arriving while earlier
// batches are in flight are proposed together, multiplying write
// throughput under concurrent load.
func WithBatchSize(n int) Option {
	return func(o *options) { o.batchSize = n }
}

// WithBatchDelay bounds how long the primary holds a non-full batch
// open while earlier batches are in flight (NewLocalCluster only,
// default 2ms). An idle cluster always proposes immediately, so the
// delay never costs latency at low load.
func WithBatchDelay(d time.Duration) Option {
	return func(o *options) { o.batchDelay = d }
}

// WithDataDir selects the durable store engine rooted at dir: every
// mutation is write-ahead logged and the space recovers its contents
// (and, replicated, its execution position) from dir after a crash or
// restart. On NewLocalCluster each replica persists under its own
// subdirectory dir/r<i>. Implies WithStore(DurableStore); combine with
// WithFsync to pick the durability/throughput trade-off, and Close the
// space (Stop the cluster) to flush on the way out.
func WithDataDir(dir string) Option {
	return func(o *options) { o.dataDir = dir }
}

// WithFsync sets the durable engine's fsync policy (default
// FsyncInterval, i.e. group commit). Only meaningful with WithDataDir.
func WithFsync(p FsyncPolicy) Option {
	return func(o *options) { o.fsync = p }
}

// WithPollInterval sets the floor of the jittered exponential backoff
// replicated handles use to poll blocking Rd/In (ClusterSpace only,
// default 5ms; each miss doubles the delay up to the handle's
// PollMaxInterval cap, and a floor at or above the cap polls at the
// constant floor). Lower values trade replica load for wake-up latency.
func WithPollInterval(d time.Duration) Option {
	return func(o *options) { o.pollInterval = d }
}

// WithTentativeWrites toggles acceptance of tentative replies for
// mutating submissions (ClusterSpace only, default on). Replicas
// execute a write the moment its batch is prepared and reply
// tentatively; 2f+1 matching tentative replies prove the result can
// never be revoked, cutting one protocol round off write latency. Pass
// false to wait for the commit-quorum replies instead.
func WithTentativeWrites(on bool) Option {
	return func(o *options) { o.tentativeWrites = &on }
}

// WithTentativeReads is WithTentativeWrites for reads that go through
// total ordering (OrderedReads handles, or read-only fast-path vote
// failures). Default on.
func WithTentativeReads(on bool) Option {
	return func(o *options) { o.tentativeReads = &on }
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// NewSpace returns a local PEATS protected by the given policy. By
// default the space uses the indexed store engine with one shard; pass
// WithStore(SliceStore) for the reference engine, WithShards for a
// partitioned space, and WithDataDir for the durable engine. Unknown
// engines, out-of-range shard counts and durable open failures panic;
// use OpenSpace when the error should be handled (a data directory
// brings real I/O failure modes with it).
func NewSpace(pol Policy, opts ...Option) *Space {
	s, err := OpenSpace(pol, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// OpenSpace is NewSpace returning errors instead of panicking — the
// natural constructor for durable spaces, whose data directory may be
// unreadable, locked or damaged.
func OpenSpace(pol Policy, opts ...Option) (*Space, error) {
	o := buildOptions(opts)
	if !o.durable() {
		return ipeats.NewSharded(pol, o.engine, o.sharedShards())
	}
	if o.dataDir == "" {
		return nil, errors.New("peats: the durable store engine needs WithDataDir")
	}
	db, err := durable.Open(durable.Options{Dir: o.dataDir, Sync: o.fsync})
	if err != nil {
		return nil, err
	}
	raw, err := space.NewShardedFactory(o.sharedShards(), func(int) (space.Store, error) {
		return db.NewStore(), nil
	})
	if err == nil {
		db.StartLoad()
		err = raw.Install(db.Recovered().Tuples)
		db.EndLoad()
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	s := ipeats.Wrap(raw, pol)
	s.AttachCloser(db.Close)
	s.AttachFramer(db)
	return s, nil
}

// durable reports whether the options select the durable engine.
func (o options) durable() bool {
	return o.dataDir != "" || o.engine == DurableStore
}

// sharedShards resolves the shard option's default.
func (o options) sharedShards() int {
	if o.shards <= 0 {
		return 1
	}
	return o.shards
}

// WrapSpace protects an existing raw space with a policy.
func WrapSpace(inner *space.Space, pol Policy) *Space { return ipeats.Wrap(inner, pol) }

// Replication re-exports (Fig. 2 realisation).
type (
	// Cluster is an in-process replicated PEATS deployment.
	Cluster = bft.Cluster
	// RemoteSpace is the client view of a replicated PEATS; it
	// implements TupleSpace.
	RemoteSpace = bft.RemoteSpace
	// Replica is one member of a replicated PEATS group.
	Replica = bft.Replica
	// ReplicaConfig configures a replica (for TCP deployments via
	// cmd/peats-server).
	ReplicaConfig = bft.ReplicaConfig
)

// NewLocalCluster starts an in-process BFT-replicated PEATS with
// n = 3f+1 replicas, each running the reference monitor with the given
// policy. Callers obtain TupleSpace handles with ClusterSpace and must
// Stop the cluster when done. WithStore selects the storage engine and
// WithShards the shard count every replica's space uses; WithDataDir
// makes every replica durable under its own subdirectory (dir/r<i>),
// recovering state and execution position on the next construction.
func NewLocalCluster(f int, pol Policy, opts ...Option) (*Cluster, error) {
	o := buildOptions(opts)
	if o.durable() && o.dataDir == "" {
		return nil, errors.New("peats: the durable store engine needs WithDataDir")
	}
	n := 3*f + 1
	services := make([]bft.Service, n)
	for i := range services {
		var (
			svc *bft.SpaceService
			err error
		)
		if o.durable() {
			var db *durable.DB
			db, err = durable.Open(durable.Options{
				Dir:  filepath.Join(o.dataDir, fmt.Sprintf("r%d", i)),
				Sync: o.fsync,
				// The replicas offer their logs for compaction at checkpoints.
				AutoCompactBytes: -1,
			})
			if err == nil {
				if svc, err = bft.NewDurableSpaceService(pol, db, o.sharedShards()); err != nil {
					db.Close()
				}
			}
		} else {
			svc, err = bft.NewSpaceServiceWithConfig(pol, o.engine, o.sharedShards())
		}
		if err != nil {
			closeServices(services[:i])
			return nil, err
		}
		services[i] = svc
	}
	var copts []bft.ClusterOption
	if o.batchSize > 0 {
		copts = append(copts, bft.WithBatchSize(o.batchSize))
	}
	if o.batchDelay > 0 {
		copts = append(copts, bft.WithBatchDelay(o.batchDelay))
	}
	cl, err := bft.NewCluster(f, services, copts...)
	if err != nil {
		closeServices(services)
		return nil, err
	}
	return cl, nil
}

// closeServices releases the durable engines behind partially
// constructed clusters (failed NewLocalCluster paths).
func closeServices(services []bft.Service) {
	for _, s := range services {
		if c, ok := s.(*bft.SpaceService); ok {
			c.Close()
		}
	}
}

// ClusterSpace returns a TupleSpace handle on the replicated PEATS for
// the given authenticated process identity. WithPollInterval tunes the
// handle's blocking-read polling without reaching into bft.RemoteSpace.
func ClusterSpace(c *Cluster, id ProcessID, opts ...Option) *RemoteSpace {
	o := buildOptions(opts)
	rs := bft.NewRemoteSpace(c.Client(string(id)))
	if o.pollInterval > 0 {
		rs.PollInterval = o.pollInterval
	}
	if o.tentativeWrites != nil {
		rs.TentativeWrites = *o.tentativeWrites
	}
	if o.tentativeReads != nil {
		rs.TentativeReads = *o.tentativeReads
	}
	return rs
}

// Partitioning re-exports (multi-group deployments).
type (
	// ClusterTopology describes a partitioned deployment: the ordered
	// list of replica groups, each owning the slice of the tuple key
	// space the canonical FNV-1a(arity, first-field) rule routes to it.
	ClusterTopology = partition.Topology
	// TopologyGroup is one group of a ClusterTopology.
	TopologyGroup = partition.GroupSpec
	// TopologyReplica is one replica of a TopologyGroup.
	TopologyReplica = partition.ReplicaSpec
	// PartitionedSpace is the TupleSpace handle over a partitioned
	// deployment: single-partition submissions go straight to their
	// owning group, cross-partition submissions run a BFT-agreed
	// two-phase commit, wildcard-first reads fan out and merge.
	PartitionedSpace = partition.Space
)

// partitionMaster is the deterministic attestation master secret of
// in-process partitioned clusters, standing in for a real deployment's
// trusted key setup (see bft.AttestKeyFor).
var partitionMaster = []byte("peats-inproc-partitions")

// PartitionedCluster is an in-process partitioned deployment: one
// BFT-replicated group per entry of the topology, all sharing a
// reference monitor policy. Writes to different partitions are ordered
// by different groups, which is what scales aggregate throughput past
// the single-group agreement ceiling.
type PartitionedCluster struct {
	// Topology describes the deployment; group i of Groups realises
	// Topology.Groups[i].
	Topology *ClusterTopology
	// Groups are the running replica groups, in canonical order.
	Groups []*Cluster
}

// NewPartitionedCluster starts one in-process replica group per entry
// of fs (group i with fault bound fs[i], hence 3·fs[i]+1 replicas),
// every replica running the reference monitor with the given policy.
// The options mirror NewLocalCluster; WithDataDir roots each group
// under its own subdirectory (dir/g<i>/r<j>). Stop the cluster when
// done. Handles come from PartitionedCluster.Space.
func NewPartitionedCluster(fs []int, pol Policy, opts ...Option) (*PartitionedCluster, error) {
	if len(fs) == 0 {
		return nil, errors.New("peats: a partitioned cluster needs at least one group")
	}
	o := buildOptions(opts)
	if o.durable() && o.dataDir == "" {
		return nil, errors.New("peats: the durable store engine needs WithDataDir")
	}
	topo := &ClusterTopology{}
	for gi, f := range fs {
		if f < 0 {
			return nil, fmt.Errorf("peats: group %d with negative fault bound", gi)
		}
		g := TopologyGroup{ID: fmt.Sprintf("g%d", gi), F: f}
		for j := 0; j < 3*f+1; j++ {
			g.Replicas = append(g.Replicas, TopologyReplica{ID: fmt.Sprintf("r%d", j)})
		}
		topo.Groups = append(topo.Groups, g)
	}
	dir := topo.Directory(partitionMaster)

	pc := &PartitionedCluster{Topology: topo}
	for gi, f := range fs {
		gid := topo.Groups[gi].ID
		n := 3*f + 1
		services := make([]bft.Service, n)
		var err error
		for i := range services {
			var svc *bft.SpaceService
			if o.durable() {
				var db *durable.DB
				db, err = durable.Open(durable.Options{
					Dir:              filepath.Join(o.dataDir, gid, fmt.Sprintf("r%d", i)),
					Sync:             o.fsync,
					AutoCompactBytes: -1,
				})
				if err == nil {
					if svc, err = bft.NewDurableSpaceService(pol, db, o.sharedShards()); err != nil {
						db.Close()
					}
				}
			} else {
				svc, err = bft.NewSpaceServiceWithConfig(pol, o.engine, o.sharedShards())
			}
			if err != nil {
				closeServices(services[:i])
				pc.Stop()
				return nil, err
			}
			svc.EnablePartition(gid, dir)
			services[i] = svc
		}
		copts := []bft.ClusterOption{bft.WithGroupIdentity(gid, partitionMaster)}
		if o.batchSize > 0 {
			copts = append(copts, bft.WithBatchSize(o.batchSize))
		}
		if o.batchDelay > 0 {
			copts = append(copts, bft.WithBatchDelay(o.batchDelay))
		}
		cl, err := bft.NewCluster(f, services, copts...)
		if err != nil {
			closeServices(services)
			pc.Stop()
			return nil, err
		}
		pc.Groups = append(pc.Groups, cl)
	}
	return pc, nil
}

// Stop shuts down every group.
func (pc *PartitionedCluster) Stop() {
	for _, c := range pc.Groups {
		c.Stop()
	}
}

// Space returns a partition-routing TupleSpace handle for the given
// authenticated process identity: one BFT client per group, all bound
// to the same principal. WithPollInterval tunes blocking-read polling.
func (pc *PartitionedCluster) Space(id ProcessID, opts ...Option) (*PartitionedSpace, error) {
	o := buildOptions(opts)
	groups := make([]partition.Group, len(pc.Groups))
	for i, c := range pc.Groups {
		groups[i] = partition.Group{ID: pc.Topology.Groups[i].ID, Client: c.Client(string(id))}
	}
	sp, err := partition.NewSpace(groups)
	if err != nil {
		return nil, err
	}
	if o.pollInterval > 0 {
		sp.PollInterval = o.pollInterval
	}
	return sp, nil
}
