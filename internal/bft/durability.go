package bft

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"peats/internal/auth"
	"peats/internal/durable"
	"peats/internal/wire"
)

// This file holds the durability and incremental-checkpoint plumbing:
// the optional service interfaces the replica drives, the chained
// checkpoint digest, the checkpoint-delta blob (service delta plus
// client-table updates), and the state-transfer pack that carries
// either a full snapshot or a base-plus-deltas chain.

// DeltaSnapshotter is an optional Service extension backing incremental
// checkpoints: the service journals the mutations each executed
// request commits and surrenders them at checkpoint time. Deltas are
// deterministic across replicas (they journal the same executed
// sequence), so a checkpoint digest can be chained over them instead of
// re-serializing the whole state every interval.
type DeltaSnapshotter interface {
	// CheckpointDelta drains the mutation journal accumulated since the
	// previous call, encoded as a wire.Delta. ok=false means the
	// journal cannot stand in for the state (a Restore interrupted it,
	// or it overflowed); the caller must fall back to a full snapshot.
	// The journal restarts at this point either way.
	CheckpointDelta() (delta []byte, ok bool)
	// ApplyDelta applies a checkpoint delta produced by a peer's
	// CheckpointDelta to the current state (state-transfer install).
	ApplyDelta(delta []byte) error
	// ResetJournal marks the current state as a valid journal base —
	// called after a completed state-transfer install, whose end state
	// is exactly the checkpoint the chain digests describe.
	ResetJournal()
}

// DurableService is an optional Service extension for engines that
// persist state locally (package durable): the replica frames each
// agreement batch as one atomic unit in the write-ahead log, offers the
// log for compaction at every checkpoint boundary, and recovers
// executed position and client table from the data directory at
// construction.
type DurableService interface {
	// Durable reports whether persistence is actually wired (the
	// methods below are no-ops otherwise).
	Durable() bool
	// BeginUnit opens the WAL frame for the batch at agreement seq.
	BeginUnit(seq uint64)
	// CommitUnit seals the frame, attaching the replica's per-batch
	// extra blob (its client-table updates), making the batch durable
	// per the engine's fsync policy.
	CommitUnit(extra []byte)
	// CompactTo marks a checkpoint boundary at agreement seq: the engine
	// may fold its log into a snapshot of the full state as of seq (with
	// the full client table as extra) and prune the log behind it. It
	// does so only when the log has outgrown the previous snapshot — a
	// local decision, unrelated to the checkpoint's mode, that no other
	// replica needs to share.
	CompactTo(seq uint64, extra []byte) error
	// BeginStateLoad enters load mode for a state-transfer install:
	// mutations keep the engine current but are not logged.
	BeginStateLoad()
	// EndStateLoad leaves load mode and persists the installed state as
	// a fresh snapshot at agreement seq, resetting the WAL.
	EndStateLoad(seq uint64, extra []byte) error
	// AbortStateLoad leaves load mode without persisting anything — the
	// install failed, and the disk must keep the last good state rather
	// than snapshot a partially-installed one.
	AbortStateLoad()
	// RecoveredState reports what the engine recovered at startup: the
	// last durable agreement seq, the client table at the recovery
	// snapshot, and the per-unit updates to fold forward.
	RecoveredState() (unitSeq uint64, baseExtra []byte, units []durable.UnitExtra)
}

// cpChainDomain separates chained checkpoint digests from every other
// digest preimage in the protocol.
var cpChainDomain = []byte{0xff, 0x01, 'p', 'e', 'a', 't', 's', '-', 'c', 'p', '-', 'c', 'h', 'a', 'i', 'n'}

// chainCheckpointDigest extends a checkpoint digest chain by one delta
// blob: digest_k = H(domain || digest_{k-1} || blob_k). A full
// checkpoint re-bases the chain at H(stateSnapshot), so a chain digest
// commits to the base snapshot and every delta since — which is what
// lets a state-transfer receiver verify a base-plus-deltas response
// against the checkpoint quorum digest alone.
//
// The blob streams into the hash; nothing is copied.
func chainCheckpointDigest(prev [32]byte, blob []byte) (d [32]byte) {
	h := sha256.New()
	h.Write(cpChainDomain)
	h.Write(prev[:])
	h.Write(blob)
	h.Sum(d[:0])
	return d
}

// cpHead is the head of a checkpoint chain, as a CHECKPOINT announces
// it: the chained digest, the byte length of the full snapshot the
// chain is based on, and the weight of the delta blobs chained since.
// The two lengths are what the re-base rule reads, so replicas that
// hold the same head take the same decision at every grid point — and
// a replica that lost its chain can take the whole head, rule inputs
// included, from the votes of others. Votes match on all three.
type cpHead struct {
	digest   [32]byte
	baseLen  uint64
	chainLen uint64
}

// minDeltaShare is the least a chained delta weighs, as a share of its
// base: 1/1024, so a chain of tiny deltas is still re-based by its
// 1024th (an honest chain pack stays well under maxChainDeltas).
const minDeltaShare = 1024

// fullHead is the head a full checkpoint publishes: a chain of nothing
// based on snap.
func fullHead(snap []byte) cpHead {
	return cpHead{digest: auth.Digest(snap), baseLen: uint64(len(snap))}
}

// extend chains one delta blob onto the head.
func (h cpHead) extend(blob []byte) cpHead {
	return cpHead{
		digest:   chainCheckpointDigest(h.digest, blob),
		baseLen:  h.baseLen,
		chainLen: h.chainLen + max(uint64(len(blob)), h.baseLen/minDeltaShare),
	}
}

// outgrown reports whether the chain weighs as much as its base: from
// here on, shipping or replaying base plus chain costs more than twice
// a fresh snapshot would, and taking that snapshot has been paid for by
// as many bytes of change.
func (h cpHead) outgrown() bool { return h.chainLen >= h.baseLen }

// ---- Client-table encoding ----

// clientUpdate is one decoded client record.
type clientUpdate struct {
	id  string
	rec clientRecord
}

// appendClientRecords encodes the records of ids (which must be
// sorted) from the table — the shared shape of per-batch updates,
// checkpoint-delta updates, and the full table.
func appendClientRecords(w *wire.Writer, clients map[string]*clientRecord, ids []string) {
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		rec := clients[id]
		if rec == nil {
			rec = &clientRecord{}
		}
		w.String(id)
		w.Uvarint(rec.lastReqID)
		w.Uvarint(rec.ops)
		w.Bytes(rec.lastReply)
	}
}

// encodeClientRecords is appendClientRecords as a fresh blob.
func encodeClientRecords(clients map[string]*clientRecord, ids []string) []byte {
	w := wire.NewWriter()
	appendClientRecords(w, clients, ids)
	return w.Data()
}

// sortedClientIDs returns the table's client ids in encoding order.
func sortedClientIDs(clients map[string]*clientRecord) []string {
	ids := make([]string, 0, len(clients))
	for id := range clients {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// encodeFullClientTable encodes every record, sorted by id.
func encodeFullClientTable(clients map[string]*clientRecord) []byte {
	return encodeClientRecords(clients, sortedClientIDs(clients))
}

// readClientRecords decodes a client-record list from r.
func readClientRecords(r *wire.Reader) ([]clientUpdate, error) {
	count := r.Uvarint()
	if count > maxBatch {
		return nil, fmt.Errorf("client table with %d records", count)
	}
	ups := make([]clientUpdate, 0, min(count, 1024))
	for i := uint64(0); i < count; i++ {
		u := clientUpdate{id: r.String()}
		u.rec = clientRecord{lastReqID: r.Uvarint(), ops: r.Uvarint(), lastReply: r.Bytes()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		ups = append(ups, u)
	}
	return ups, nil
}

// decodeClientTable decodes a full-table blob (empty blob = empty
// table) into a fresh map.
func decodeClientTable(blob []byte) (map[string]*clientRecord, error) {
	clients := make(map[string]*clientRecord)
	if len(blob) == 0 {
		return clients, nil
	}
	r := wire.NewReader(blob)
	ups, err := readClientRecords(r)
	if err == nil {
		r.ExpectEOF()
		err = r.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("bft: decode client table: %w", err)
	}
	applyClientUpdates(clients, ups)
	return clients, nil
}

// decodeClientUpdates decodes an update blob (empty = no updates).
func decodeClientUpdates(blob []byte) ([]clientUpdate, error) {
	if len(blob) == 0 {
		return nil, nil
	}
	r := wire.NewReader(blob)
	ups, err := readClientRecords(r)
	if err == nil {
		r.ExpectEOF()
		err = r.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("bft: decode client updates: %w", err)
	}
	return ups, nil
}

// applyClientUpdates folds updates over a table.
func applyClientUpdates(clients map[string]*clientRecord, ups []clientUpdate) {
	for _, u := range ups {
		rec := u.rec
		clients[u.id] = &rec
	}
}

// ---- Checkpoint-delta blob ----

// encodeCheckpointDelta composes the blob a delta checkpoint digests
// and ships: the service's mutation delta plus the client-table
// updates of the interval.
func encodeCheckpointDelta(svcDelta, clientUpdates []byte) []byte {
	w := wire.NewWriter()
	w.Bytes(svcDelta)
	w.Bytes(clientUpdates)
	return w.Data()
}

// decodeCheckpointDelta splits a checkpoint-delta blob.
func decodeCheckpointDelta(blob []byte) (svcDelta []byte, ups []clientUpdate, err error) {
	r := wire.NewReader(blob)
	svcDelta = r.Bytes()
	upBlob := r.Bytes()
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("bft: decode checkpoint delta: %w", err)
	}
	ups, err = decodeClientUpdates(upBlob)
	if err != nil {
		return nil, nil, err
	}
	return svcDelta, ups, nil
}

// ---- State-transfer packs ----

// A StateResponse carries a state pack: either the full stateSnapshot
// bytes of the checkpoint (available at full checkpoints), or a chain —
// the last full snapshot plus every checkpoint delta up to the
// requested sequence number. The receiver folds the chain digest and
// verifies it against the checkpoint quorum, so a chain is exactly as
// trustworthy as a full snapshot.
const (
	statePackFull  = 1
	statePackChain = 2
)

// maxChainDeltas bounds decoded chains (an honest one is re-based by
// the first grid point after its minDeltaShare-th delta).
const maxChainDeltas = 1 << 12

// seqDelta is one chained checkpoint delta.
type seqDelta struct {
	seq   uint64
	delta []byte
}

// chainPack is a decoded chain response.
type chainPack struct {
	baseSeq uint64
	base    []byte
	cps     []seqDelta
}

// head folds the chain into the head the quorum must have voted.
func (c chainPack) head() cpHead {
	h := fullHead(c.base)
	for _, cd := range c.cps {
		h = h.extend(cd.delta)
	}
	return h
}

func encodeFullPack(snap []byte) []byte {
	w := wire.NewWriter()
	w.Byte(statePackFull)
	w.Bytes(snap)
	return w.Data()
}

func encodeChainPack(baseSeq uint64, base []byte, cps []seqDelta) []byte {
	w := wire.NewWriter()
	w.Byte(statePackChain)
	w.Uvarint(baseSeq)
	w.Bytes(base)
	w.Uvarint(uint64(len(cps)))
	for _, cd := range cps {
		w.Uvarint(cd.seq)
		w.Bytes(cd.delta)
	}
	return w.Data()
}

// decodeStatePack parses a state pack; exactly one of full/chain is
// meaningful, discriminated by isChain.
func decodeStatePack(b []byte) (full []byte, chain chainPack, isChain bool, err error) {
	r := wire.NewReader(b)
	switch tag := r.Byte(); tag {
	case statePackFull:
		full = r.Bytes()
	case statePackChain:
		isChain = true
		chain.baseSeq = r.Uvarint()
		chain.base = r.Bytes()
		count := r.Uvarint()
		if count > maxChainDeltas {
			return nil, chainPack{}, false, fmt.Errorf("bft: state pack with %d deltas", count)
		}
		for i := uint64(0); i < count; i++ {
			cd := seqDelta{seq: r.Uvarint()}
			cd.delta = r.Bytes()
			chain.cps = append(chain.cps, cd)
		}
	default:
		return nil, chainPack{}, false, fmt.Errorf("bft: unknown state pack tag %d", tag)
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return nil, chainPack{}, false, fmt.Errorf("bft: decode state pack: %w", err)
	}
	return full, chain, isChain, nil
}
