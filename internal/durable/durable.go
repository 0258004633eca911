// Package durable is the durability subsystem: a write-ahead-logged
// persistent tuple-store engine behind the space.Store interface, with
// crash recovery and incremental on-disk compaction.
//
// One DB owns a data directory holding a segmented write-ahead log
// (wal-<N>.log) and full-state snapshots (snap-<N>.snap). Every store
// the DB hands out (one per space shard) wraps the in-memory indexed
// engine and journals its mutations — seq-stamped inserts and removes —
// into the shared log, framed per atomic unit: on a replica the
// replication layer opens a frame per agreement batch (BeginUnit /
// CommitUnit), so a batch hits the disk all-or-nothing; on a local
// space each mutation frames itself.
//
// Durability is tunable (SyncPolicy): fsync per unit, group commit
// (units accumulate in memory and one fsync covers every unit in the
// window — the throughput mode), or no fsync at all. On startup Open
// recovers by loading the newest valid snapshot and replaying the log
// tail, truncating a torn final record; a checksum failure anywhere
// else in the log is corruption and fails loudly. Compaction writes a
// fresh snapshot and deletes the segments it subsumes; it happens when
// the log has outgrown the last snapshot, so its cost stays in
// proportion to what changed while disk and replay stay within twice
// the state.
package durable

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"peats/internal/metrics"
	"peats/internal/space"
	"peats/internal/tuple"
)

// SyncPolicy selects when the WAL is fsynced.
type SyncPolicy string

const (
	// SyncAlways fsyncs every sealed unit before the mutation returns:
	// an acknowledged write survives any crash, at one fsync per unit.
	SyncAlways SyncPolicy = "always"
	// SyncInterval is group commit (the default): sealed units
	// accumulate in memory and a background syncer writes and fsyncs
	// them every SyncEvery. A crash loses at most the last window, but
	// never tears a unit — recovery lands on a unit boundary.
	SyncInterval SyncPolicy = "interval"
	// SyncNever writes units to the OS immediately but never fsyncs;
	// durability is whatever the OS page cache delivers.
	SyncNever SyncPolicy = "never"
)

// SyncPolicies lists the selectable policies.
func SyncPolicies() []SyncPolicy {
	return []SyncPolicy{SyncAlways, SyncInterval, SyncNever}
}

// Options configures a DB. Zero values select the documented defaults.
type Options struct {
	// Dir is the data directory (required). It is created if absent.
	Dir string
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the group-commit window for SyncInterval (default
	// 2ms).
	SyncEvery time.Duration
	// SegmentBytes rotates the WAL to a new segment file once the
	// current one exceeds it (default 4 MiB).
	SegmentBytes int
	// AutoCompactBytes makes the DB compact itself, from a mirror of
	// the live state it then keeps: once the WAL written since the last
	// snapshot has outgrown both this many bytes (default 64 MiB) and
	// that snapshot. Set negative to disable — the replication layer
	// does, because it offers the space itself to Compact at checkpoint
	// boundaries, and the DB then keeps no mirror.
	AutoCompactBytes int
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, errors.New("durable: Options.Dir is required")
	}
	switch o.Sync {
	case "":
		o.Sync = SyncInterval
	case SyncAlways, SyncInterval, SyncNever:
	default:
		return o, fmt.Errorf("durable: unknown sync policy %q (want always|interval|never)", o.Sync)
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 2 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.AutoCompactBytes == 0 {
		o.AutoCompactBytes = 64 << 20
	}
	return o, nil
}

// UnitExtra is the opaque blob a sealed unit carried, keyed by its
// agreement sequence number — the replication layer's per-batch
// client-table update, folded forward at recovery.
type UnitExtra struct {
	Seq   uint64
	Extra []byte
}

// Recovered is what Open reconstructed from the data directory.
type Recovered struct {
	// Tuples is the recovered live state, seq-sorted, ready for
	// space.Install.
	Tuples []space.SeqTuple
	// MaxSeq is the highest space sequence number ever logged; the
	// space resumes counting above it.
	MaxSeq uint64
	// UnitSeq is the agreement sequence number of the last durable
	// unit (0 when none was recovered).
	UnitSeq uint64
	// BaseExtra is the extra blob of the snapshot recovery started
	// from.
	BaseExtra []byte
	// Units lists the sealed replication units recovered after the
	// snapshot, in order.
	Units []UnitExtra
}

// DB is one durable store engine instance: the shared write-ahead log
// and snapshot machinery behind every store of one space.
type DB struct {
	opts Options

	mu sync.Mutex
	// mem mirrors the live contents by space seq. Recovery builds it;
	// afterwards only a self-compacting DB (AutoCompactBytes > 0) keeps
	// it, because that one snapshots from inside a store mutation, where
	// the space cannot be read. It is nil otherwise.
	mem      map[uint64]tuple.Tuple
	maxSeq   uint64
	lastUnit uint64
	extra    []byte // latest full extra blob (snapshot base or Compact)

	seg      *os.File
	segIdx   uint64
	segSize  int
	walSince int // WAL bytes since the last snapshot
	snapLen  int // length of that snapshot's file; 0 when there is none

	buf     []byte // sealed frames not yet written to the file
	dirty   bool   // file bytes not yet fsynced
	frame   *frameBuf
	loading bool
	err     error // first I/O error; sticky

	// frameMu serializes framed local transactions (BeginLocalUnit /
	// CommitLocalUnit). It is held across the whole transaction — not
	// just the frame bookkeeping — because the DB has a single frame
	// slot; a second transaction must wait for the first to seal.
	frameMu sync.Mutex

	rec    Recovered
	closed bool

	stopSync chan struct{}
	syncDone chan struct{}

	// recoveryDur is how long Open's recovery pass took, for the
	// peats_durable_recovery_seconds gauge.
	recoveryDur time.Duration
	// unitsSinceSync counts sealed units since the last fsync — the
	// group-commit window observed by mCommitWindow. Guarded by mu.
	unitsSinceSync int

	// Metric handles, nil until EnableMetrics; nil handles no-op.
	mWALBytes     *metrics.Counter
	mUnits        *metrics.Counter
	mFsyncs       *metrics.Counter
	mCommitWindow *metrics.Histogram
	mRotations    *metrics.Counter
	mCompactions  *metrics.Counter
}

// Open opens (or creates) the data directory and recovers its state:
// the newest valid snapshot plus the WAL tail, with a torn final
// record truncated. The recovered state is available via Recovered;
// install it with space.Install under StartLoad/EndLoad.
func Open(opts Options) (*DB, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	db := &DB{
		opts:     opts,
		mem:      make(map[uint64]tuple.Tuple),
		stopSync: make(chan struct{}),
		syncDone: make(chan struct{}),
	}
	recStart := time.Now()
	if err := db.recover(); err != nil {
		return nil, err
	}
	db.recoveryDur = time.Since(recStart)
	if err := db.openSegment(db.segIdx + 1); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		go db.syncLoop()
	} else {
		close(db.syncDone)
	}
	return db, nil
}

// Recovered returns what Open reconstructed.
func (db *DB) Recovered() Recovered { return db.rec }

// Dir returns the data directory.
func (db *DB) Dir() string { return db.opts.Dir }

// Err returns the first I/O error the log hit, if any. Store mutations
// cannot return errors, so a failing disk surfaces here (and on
// Flush/Close); until then recovery simply lands on the last state
// that did reach the disk.
func (db *DB) Err() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.err
}

// NewStore returns a store bound to this DB, wrapping a fresh indexed
// engine. Build one per space shard (space.NewShardedFactory).
func (db *DB) NewStore() space.Store {
	return &Store{db: db, inner: space.NewIndexedStore()}
}

// ---- Recovery ----

// fileIdx parses the numeric index out of wal-/snap- file names.
func fileIdx(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func segName(idx uint64) string  { return fmt.Sprintf("wal-%016x.log", idx) }
func snapName(idx uint64) string { return fmt.Sprintf("snap-%016x.snap", idx) }

// recover loads the newest valid snapshot and replays the segments at
// or above its index, truncating a torn tail. It leaves db.segIdx at
// the highest segment index seen (0 when none).
func (db *DB) recover() error {
	entries, err := os.ReadDir(db.opts.Dir)
	if err != nil {
		return err
	}
	var segs, snaps []uint64
	for _, e := range entries {
		if idx, ok := fileIdx(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, idx)
		}
		if idx, ok := fileIdx(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	// Newest valid snapshot wins. An invalid newest snapshot (torn
	// compaction) falls back to the previous one, whose segments still
	// exist — compaction deletes files only after the new snapshot is
	// durable. If snapshots exist but none decodes, the state they
	// subsumed is gone: fail loudly rather than present partial state.
	var (
		base     snapshotData
		baseIdx  uint64
		haveSnap bool
	)
	for i := len(snaps) - 1; i >= 0; i-- {
		sd, n, err := readSnapshotFile(filepath.Join(db.opts.Dir, snapName(snaps[i])))
		if err == nil {
			base, baseIdx, haveSnap = sd, snaps[i], true
			db.snapLen = n
			break
		}
		if i == 0 {
			return fmt.Errorf("durable: no valid snapshot in %s: %w", db.opts.Dir, err)
		}
	}
	if haveSnap {
		for _, st := range base.tuples {
			db.mem[st.Seq] = st.T
		}
		db.maxSeq = base.maxSeq
		db.lastUnit = base.unitSeq
		db.extra = base.extra
		db.rec.BaseExtra = base.extra
	}

	// Coverage check: segment indexes are assigned consecutively, so
	// the live range [baseIdx, max] must have no holes — a hole means a
	// compaction deleted segments a (now unreadable) newer snapshot
	// subsumed, and replaying around it would silently present stale
	// state. Fail loudly instead.
	expect := baseIdx
	first := true
	for _, idx := range segs {
		if idx < baseIdx {
			continue
		}
		if first && !haveSnap {
			// No snapshot pins the start of the live range; the oldest
			// surviving segment does.
			expect = idx
		}
		first = false
		if idx != expect {
			return fmt.Errorf("durable: WAL segment %s missing (have %s): directory damaged",
				segName(expect), segName(idx))
		}
		expect++
	}
	if haveSnap && first {
		return fmt.Errorf("durable: WAL segment %s missing after snapshot: directory damaged", segName(baseIdx))
	}

	for i, idx := range segs {
		if idx > db.segIdx {
			db.segIdx = idx
		}
		if idx < baseIdx {
			continue // subsumed by the snapshot; deleted lazily below
		}
		if err := db.replaySegment(idx, i == len(segs)-1); err != nil {
			return err
		}
	}

	db.rec.Tuples = db.sortedStateLocked()
	db.rec.MaxSeq = db.maxSeq
	db.rec.UnitSeq = db.lastUnit
	if db.opts.AutoCompactBytes <= 0 {
		db.mem = nil // whoever compacts this DB brings the state along
	}

	// Lazy cleanup of files a finished compaction or recovery made
	// dead: segments and older snapshots below the chosen base.
	for _, idx := range segs {
		if idx < baseIdx {
			os.Remove(filepath.Join(db.opts.Dir, segName(idx)))
		}
	}
	for _, idx := range snaps {
		if idx < baseIdx {
			os.Remove(filepath.Join(db.opts.Dir, snapName(idx)))
		}
	}
	return nil
}

// replaySegment applies one segment's records. In the final segment a
// torn tail — a bad frame with nothing decodable after it, the residue
// of a crash mid-write — is truncated; a bad frame anywhere else, or
// one followed by intact records (writes are append-only, so a crash
// can only damage the final frame — anything after a damaged frame
// proves corruption of acknowledged data), fails loudly.
func (db *DB) replaySegment(idx uint64, last bool) error {
	path := filepath.Join(db.opts.Dir, segName(idx))
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	off := 0
	for off < len(data) {
		payload, n, ferr := readFrame(data[off:])
		var rec WALRecord
		if ferr == nil {
			rec, ferr = DecodeWALRecord(payload)
		}
		if ferr != nil {
			if !last || hasValidFrameAfter(data, off) {
				return fmt.Errorf("durable: segment %s offset %d: %w", segName(idx), off, ferr)
			}
			// Torn tail: drop it so the next segment appends after a
			// clean record boundary.
			return os.Truncate(path, int64(off))
		}
		db.applyRecord(rec)
		off += n
		db.walSince += n
	}
	return nil
}

// hasValidFrameAfter reports whether any complete, checksummed,
// decodable record starts anywhere after the bad frame at off — the
// evidence that separates mid-data corruption (fail loudly) from a
// torn tail (truncate). It byte-scans because the bad frame's length
// field cannot be trusted; the scan runs once, only on a damaged file.
func hasValidFrameAfter(data []byte, off int) bool {
	for start := off + 1; start+recHeaderLen <= len(data); start++ {
		payload, _, err := readFrame(data[start:])
		if err != nil {
			continue
		}
		if _, err := DecodeWALRecord(payload); err == nil {
			return true
		}
	}
	return false
}

func (db *DB) applyRecord(rec WALRecord) {
	for _, m := range rec.Muts {
		if m.Remove {
			delete(db.mem, m.Seq)
			continue
		}
		db.mem[m.Seq] = m.T
		if m.Seq > db.maxSeq {
			db.maxSeq = m.Seq
		}
	}
	if rec.Unit != 0 {
		db.lastUnit = rec.Unit
		db.rec.Units = append(db.rec.Units, UnitExtra{Seq: rec.Unit, Extra: rec.Extra})
	}
}

func (db *DB) sortedStateLocked() []space.SeqTuple {
	out := make([]space.SeqTuple, 0, len(db.mem))
	for seq, t := range db.mem {
		out = append(out, space.SeqTuple{Seq: seq, T: t})
	}
	slices.SortFunc(out, func(a, b space.SeqTuple) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// ---- Logging ----

// recordInsert journals one insert (store wrapper hook).
func (db *DB) recordInsert(t tuple.Tuple, seq uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.mem != nil {
		db.mem[seq] = t
	}
	if seq > db.maxSeq {
		db.maxSeq = seq
	}
	if db.loading || db.closed {
		return
	}
	if f := db.frame; f != nil {
		f.addInsert(seq, t)
		return
	}
	f := &frameBuf{}
	f.addInsert(seq, t)
	db.sealLocked(f, nil)
}

// recordInsertBatch journals a whole InsertBatch as one atomic unit.
func (db *DB) recordInsertBatch(ts []space.SeqTuple) {
	if len(ts) == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, st := range ts {
		if db.mem != nil {
			db.mem[st.Seq] = st.T
		}
		if st.Seq > db.maxSeq {
			db.maxSeq = st.Seq
		}
	}
	if db.loading || db.closed {
		return
	}
	if f := db.frame; f != nil {
		for _, st := range ts {
			f.addInsert(st.Seq, st.T)
		}
		return
	}
	f := &frameBuf{}
	for _, st := range ts {
		f.addInsert(st.Seq, st.T)
	}
	db.sealLocked(f, nil)
}

// recordRemove journals one removal.
func (db *DB) recordRemove(seq uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.mem, seq) // a no-op without the mirror
	if db.loading || db.closed {
		return
	}
	if f := db.frame; f != nil {
		f.addRemove(seq)
		return
	}
	f := &frameBuf{}
	f.addRemove(seq)
	db.sealLocked(f, nil)
}

// recordReset journals the removal of a whole store's contents (one
// shard of a space.Reset or Restore without the replication hooks), as
// one atomic unit.
func (db *DB) recordReset(seqs []uint64) {
	if len(seqs) == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, seq := range seqs {
		delete(db.mem, seq)
	}
	if db.loading || db.closed {
		return
	}
	if f := db.frame; f != nil {
		for _, seq := range seqs {
			f.addRemove(seq)
		}
		return
	}
	f := &frameBuf{}
	for _, seq := range seqs {
		f.addRemove(seq)
	}
	db.sealLocked(f, nil)
}

// BeginUnit opens the WAL frame for one replication unit (agreement
// batch): every store mutation until CommitUnit lands in this frame
// and reaches the disk atomically. seq is the batch's agreement
// sequence number and must be nonzero.
func (db *DB) BeginUnit(seq uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.frame != nil {
		panic("durable: BeginUnit with a unit already open")
	}
	if seq == 0 {
		panic("durable: BeginUnit with seq 0")
	}
	db.frame = &frameBuf{unit: seq}
}

// CommitUnit seals the open frame with the replication layer's extra
// blob and makes it durable per the sync policy.
func (db *DB) CommitUnit(extra []byte) {
	db.mu.Lock()
	defer db.mu.Unlock()
	f := db.frame
	if f == nil {
		panic("durable: CommitUnit without BeginUnit")
	}
	db.frame = nil
	if db.closed {
		return
	}
	db.sealLocked(f, extra)
}

// BeginLocalUnit opens a WAL frame for one local multi-op transaction:
// every store mutation until CommitLocalUnit lands in a single frame
// and reaches the disk atomically, costing one group-commit window
// instead of one journal record per op. Unlike replication units the
// frame carries no agreement sequence number (unit 0), so recovery
// treats it as a plain atomic mutation group.
//
// Concurrent local transactions serialize on the frame: the DB has one
// frame slot, so a second BeginLocalUnit blocks until the first
// transaction commits. Un-framed singleton mutations that race with an
// open frame ride along inside it — still atomic, merely batched a
// little coarser, which the group-commit window does anyway.
func (db *DB) BeginLocalUnit() {
	db.frameMu.Lock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.frame != nil {
		panic("durable: BeginLocalUnit with a unit already open")
	}
	db.frame = &frameBuf{}
}

// CommitLocalUnit seals the frame BeginLocalUnit opened and makes it
// durable per the sync policy. An empty frame (the transaction aborted
// or was read-only) writes nothing.
func (db *DB) CommitLocalUnit() {
	db.mu.Lock()
	f := db.frame
	if f == nil {
		if db.closed { // Crash() dropped the open frame
			db.mu.Unlock()
			db.frameMu.Unlock()
			return
		}
		db.mu.Unlock()
		panic("durable: CommitLocalUnit without BeginLocalUnit")
	}
	db.frame = nil
	if f.n > 0 && !db.closed {
		db.sealLocked(f, nil)
	}
	db.mu.Unlock()
	db.frameMu.Unlock()
}

// StartLoad enters load mode: store mutations keep the in-memory
// mirror current but are not journaled. Recovery installs and state
// transfers use it — their contents are (or are about to be) covered
// by a snapshot, not the log.
func (db *DB) StartLoad() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.loading = true
}

// EndLoad leaves load mode.
func (db *DB) EndLoad() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.loading = false
}

// sealLocked frames a completed unit into the log buffer and applies
// the sync policy, segment rotation and auto-compaction.
func (db *DB) sealLocked(f *frameBuf, extra []byte) {
	if f.unit != 0 {
		db.lastUnit = f.unit
	}
	pre := len(db.buf)
	db.buf = appendFrame(db.buf, f.payload(extra))
	db.walSince += len(db.buf) - pre
	db.mUnits.Inc()
	db.mWALBytes.Add(uint64(len(db.buf) - pre))
	db.unitsSinceSync++
	switch db.opts.Sync {
	case SyncAlways:
		db.writeLocked()
		db.fsyncLocked()
	case SyncNever:
		db.writeLocked()
	}
	if db.segSize+len(db.buf) > db.opts.SegmentBytes {
		db.rotateLocked()
	}
	if db.opts.AutoCompactBytes > 0 && db.compactDueLocked() {
		db.compactLocked(db.lastUnit, db.extra, db.mirrorLocked)
	}
}

func (db *DB) fail(err error) {
	if db.err == nil && err != nil {
		db.err = err
	}
}

// writeLocked pushes the buffered frames into the segment file.
func (db *DB) writeLocked() {
	if len(db.buf) == 0 || db.seg == nil {
		return
	}
	n, err := db.seg.Write(db.buf)
	db.segSize += n
	db.fail(err)
	db.buf = db.buf[:0]
	db.dirty = true
}

func (db *DB) fsyncLocked() {
	if !db.dirty || db.seg == nil {
		return
	}
	db.fail(db.seg.Sync())
	db.dirty = false
	db.mFsyncs.Inc()
	db.mCommitWindow.Observe(float64(db.unitsSinceSync))
	db.unitsSinceSync = 0
}

// openSegment flushes and closes the current segment (if any) and
// starts segment idx.
func (db *DB) openSegment(idx uint64) error {
	f, err := os.OpenFile(filepath.Join(db.opts.Dir, segName(idx)), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	db.seg = f
	db.segIdx = idx
	db.segSize = 0
	db.dirty = false
	return syncDir(db.opts.Dir)
}

func (db *DB) rotateLocked() {
	db.mRotations.Inc()
	db.writeLocked()
	db.fsyncLocked()
	if db.seg != nil {
		db.fail(db.seg.Close())
	}
	if err := db.openSegment(db.segIdx + 1); err != nil {
		db.fail(err)
		db.seg = nil
	}
}

// ---- Compaction ----

// Compact is where the log may be folded into a fresh snapshot: the
// replication layer calls it at every checkpoint boundary, and with
// force after a state-transfer install (which is how "Restore resets
// the WAL"). It does nothing unless forced or due (compactDueLocked).
// When it runs, the snapshot — declared to cover unit seq, with the
// replication layer's extra blob — is written from state, which must
// yield the space's live tuples in sequence order (Space.ForEachSeq),
// and the WAL segments and snapshots it subsumes are deleted. A skipped
// call leaves extra unrecorded: recovery folds the units still in the
// log over the older snapshot's blob instead.
//
// state reads the space while the DB is locked, so Compact belongs to
// the goroutine that serialises the space's mutations — the replica's
// event loop; a concurrent mutator would deadlock against it. Local
// spaces never call it: they self-compact by AutoCompactBytes.
func (db *DB) Compact(unitSeq uint64, extra []byte, state func(func(space.SeqTuple) bool), force bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("durable: compact on closed DB")
	}
	if db.frame != nil {
		return errors.New("durable: compact with a unit open")
	}
	if force || db.compactDueLocked() {
		db.compactLocked(unitSeq, extra, state)
	}
	return db.err
}

// compactDueLocked is the engine's one compaction rule: the log since
// the last snapshot has reached that snapshot's size (and, on a
// self-compacting DB, its AutoCompactBytes floor). Rewriting the state
// then costs no more than logging the changes did, and the disk and the
// replay stay within twice the state plus what one interval logs.
func (db *DB) compactDueLocked() bool {
	return db.walSince >= max(db.snapLen, db.opts.AutoCompactBytes)
}

// mirrorLocked yields the mirror's contents in sequence order — the
// state a self-compacting DB snapshots from.
func (db *DB) mirrorLocked(yield func(space.SeqTuple) bool) {
	for _, st := range db.sortedStateLocked() {
		if !yield(st) {
			return
		}
	}
}

func (db *DB) compactLocked(unitSeq uint64, extra []byte, state func(func(space.SeqTuple) bool)) {
	db.mCompactions.Inc()
	if unitSeq > db.lastUnit {
		db.lastUnit = unitSeq
	}
	db.extra = extra
	// Seal what we have, move to a fresh segment, and snapshot
	// everything before it.
	db.rotateLocked()
	sizeHint := db.snapLen
	if sizeHint == 0 {
		sizeHint = db.walSince // a first snapshot holds about what was logged
	}
	snap := encodeSnapshot(db.lastUnit, db.maxSeq, extra, state, sizeHint)
	if err := writeSnapshotFile(db.opts.Dir, snapName(db.segIdx), snap); err != nil {
		db.fail(err)
		return
	}
	// The snapshot is durable: everything below the current segment is
	// dead.
	entries, err := os.ReadDir(db.opts.Dir)
	if err != nil {
		db.fail(err)
		return
	}
	for _, e := range entries {
		if idx, ok := fileIdx(e.Name(), "wal-", ".log"); ok && idx < db.segIdx {
			os.Remove(filepath.Join(db.opts.Dir, e.Name()))
		}
		if idx, ok := fileIdx(e.Name(), "snap-", ".snap"); ok && idx < db.segIdx {
			os.Remove(filepath.Join(db.opts.Dir, e.Name()))
		}
	}
	db.fail(syncDir(db.opts.Dir))
	db.walSince = 0
	db.snapLen = len(snap)
}

// ---- Lifecycle ----

func (db *DB) syncLoop() {
	defer close(db.syncDone)
	t := time.NewTicker(db.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			db.mu.Lock()
			if !db.closed {
				db.writeLocked()
				db.fsyncLocked()
			}
			db.mu.Unlock()
		case <-db.stopSync:
			return
		}
	}
}

// Flush forces every sealed unit to durable storage and reports the
// first I/O error the log has hit.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.closed {
		db.writeLocked()
		db.fsyncLocked()
	}
	return db.err
}

// Close flushes and closes the log. The DB is unusable afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return db.err
	}
	db.closed = true
	db.writeLocked()
	db.fsyncLocked()
	if db.seg != nil {
		db.fail(db.seg.Close())
		db.seg = nil
	}
	db.mu.Unlock()
	close(db.stopSync)
	<-db.syncDone
	return db.Err()
}

// Crash abandons every unit not yet written and closes the log without
// flushing — the in-process stand-in for SIGKILL, used by crash tests:
// whatever group commit had not synced is lost, exactly as a real
// crash would lose it.
func (db *DB) Crash() {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return
	}
	db.closed = true
	db.buf = nil
	db.frame = nil
	if db.seg != nil {
		db.seg.Close()
		db.seg = nil
	}
	db.mu.Unlock()
	close(db.stopSync)
	<-db.syncDone
}

// DiskUsage reports the data directory's current WAL segment count and
// total on-disk bytes (segments plus snapshots) — what the bounded-disk
// tests and the bench harness assert on.
func (db *DB) DiskUsage() (segments int, bytes int64, err error) {
	entries, err := os.ReadDir(db.opts.Dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, ierr := e.Info()
		if ierr != nil {
			continue
		}
		if _, ok := fileIdx(e.Name(), "wal-", ".log"); ok {
			segments++
			bytes += info.Size()
		}
		if _, ok := fileIdx(e.Name(), "snap-", ".snap"); ok {
			bytes += info.Size()
		}
	}
	return segments, bytes, nil
}
