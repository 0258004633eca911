package bft

import (
	"bytes"
	"sort"

	"peats/internal/auth"
)

// View changes: a backup that suspects the primary (a pending request
// did not commit before its timer fired, the transport reports the
// primary unreachable, or the primary equivocated) broadcasts
// VIEW-CHANGE for the next view with the batches it prepared. The
// primary of the new view installs it with NEW-VIEW once it holds 2f+1
// view-change messages, re-issuing — under their original digests — the
// batches prepared by any quorum member; holes in the sequence space
// are filled with no-op batches so execution never stalls. A replica
// that sees f+1 view-changes for a higher view joins the change even if
// its own timer has not fired (the PBFT liveness rule).

// armTimer starts (or restarts) the view-change timer.
func (r *Replica) armTimer() {
	if !r.timer.Stop() {
		select {
		case <-r.timer.C():
		default:
		}
	}
	r.timer.Reset(r.nextTimeout)
}

func (r *Replica) disarmTimer() {
	if !r.timer.Stop() {
		select {
		case <-r.timer.C():
		default:
		}
	}
}

func (r *Replica) onTimeout() {
	if !r.inViewChange && len(r.pending) == 0 {
		return
	}
	// A pending request did not commit in time, or the view change itself
	// stalled: either way the view's primary is the suspect.
	r.startViewChange(r.view+1, CauseTimer)
	r.skipUnreachable()
}

// skipUnreachable is the fast half of failure detection. The timer
// above suspects a primary that is silent; this suspects one the local
// transport reported unreachable (its connection ended and a redial
// failed) and that has sent nothing since — in exactly the situations
// the timer is armed for: a request is pending, or a view change waits
// for its NEW-VIEW. It moves on at once instead of waiting the timeout
// out, and past every following primary that is unreachable too. The
// timer stays armed throughout, so a wrong or missing notice costs at
// most what it cost before.
//
// Safety does not depend on any of this: a view change is safe whenever
// it starts. A notice is local knowledge no message can forge; f
// replicas suspecting falsely cannot move the view (2f+1 VIEW-CHANGEs
// install one, f+1 make others join), and a primary that cuts its own
// connections only deposes itself.
func (r *Replica) skipUnreachable() {
	// The primary of view v sits at group index v mod n.
	for r.unreachable&(1<<(r.view%uint64(r.n))) != 0 && (r.inViewChange || len(r.pending) > 0) {
		r.startViewChange(r.view+1, CauseUnreachable)
	}
}

// preparedProofs collects the batches this replica prepared above the
// stable checkpoint (the P set of PBFT, with channel MACs standing in
// for per-message proofs). It reads the persistent certificate map,
// not the live entries: entries are reseeded on every view install,
// and a proof lost that way could let a later merge replace a batch —
// committed on another replica, acked to its client — with a no-op.
func (r *Replica) preparedProofs() []Batch {
	out := make([]Batch, 0, len(r.prepCerts))
	for seq, b := range r.prepCerts {
		if seq <= r.lowWater {
			continue
		}
		out = append(out, b)
	}
	// Map order would vary the VIEW-CHANGE message bytes run to run.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

func (r *Replica) startViewChange(newView uint64, cause ViewChangeCause) {
	if newView <= r.view {
		return
	}
	suspect := r.primary(r.view)
	r.inViewChange = true
	r.view = newView
	r.disarmBatchTimer()
	r.m.viewChanges.Inc()
	r.vcCauseMirror.Store(int32(cause))
	r.emit(EventViewChangeStart, 0, int(cause))
	vc := ViewChange{
		NewView:    newView,
		LastStable: r.lowWater,
		Prepared:   r.preparedProofs(),
		Replica:    r.cfg.ID,
	}
	r.logf("starting view change to %d, leaving %s: %s (%d prepared)", newView, suspect, cause, len(vc.Prepared))
	r.recordViewChange(vc)
	r.broadcast(vc)
	// Exponential backoff prevents view-change livelock under asynchrony.
	r.nextTimeout *= 2
	r.armTimer()
}

// recordedVC is a received VIEW-CHANGE plus the digest of its canonical
// encoding — the value VIEW-CHANGE-ACKs attest to.
type recordedVC struct {
	vc     ViewChange
	digest [32]byte
}

func (r *Replica) onViewChange(vc ViewChange) {
	if vc.NewView <= r.view && !(vc.NewView == r.view && r.inViewChange) {
		return
	}
	r.recordViewChange(vc)

	// Liveness rule: join a view change supported by f+1 replicas even
	// if our own timer has not fired.
	if vc.NewView > r.view && len(r.viewChanges[vc.NewView]) >= r.cfg.F+1 {
		r.startViewChange(vc.NewView, CauseJoined)
	}
	r.maybeInstallView(vc.NewView)
}

func (r *Replica) recordViewChange(vc ViewChange) {
	byReplica, ok := r.viewChanges[vc.NewView]
	if !ok {
		byReplica = make(map[string]recordedVC)
		r.viewChanges[vc.NewView] = byReplica
	}
	rec := recordedVC{vc: vc, digest: viewChangeDigest(vc)}
	byReplica[vc.Replica] = rec
	// Confirm the contents to the view's primary: channel MACs protect
	// hops, not the claims inside, so the primary only merges a
	// VIEW-CHANGE whose bytes 2f-1 other replicas also saw (otherwise a
	// faulty sender could feed the primary a fabricated prepared batch
	// that overrides — or conflicts with — a legitimately prepared one).
	if p := r.primary(vc.NewView); p != r.cfg.ID && vc.Replica != r.cfg.ID {
		r.sendTo(p, ViewChangeAck{
			View: vc.NewView, Origin: vc.Replica, Digest: rec.digest, Replica: r.cfg.ID,
		})
	}
}

// viewChangeDigest digests a VIEW-CHANGE's canonical encoding.
func viewChangeDigest(vc ViewChange) [32]byte {
	payload, err := Marshal(vc)
	if err != nil {
		return [32]byte{}
	}
	return auth.Digest(payload)
}

func (r *Replica) onViewChangeAck(a ViewChangeAck) {
	if r.primary(a.View) != r.cfg.ID || a.View < r.view || a.Replica == a.Origin {
		return
	}
	byOrigin, ok := r.vcAcks[a.View]
	if !ok {
		byOrigin = make(map[string]map[[32]byte]map[string]struct{})
		r.vcAcks[a.View] = byOrigin
	}
	byDigest, ok := byOrigin[a.Origin]
	if !ok {
		byDigest = make(map[[32]byte]map[string]struct{})
		byOrigin[a.Origin] = byDigest
	}
	ackers, ok := byDigest[a.Digest]
	if !ok {
		ackers = make(map[string]struct{})
		byDigest[a.Digest] = ackers
	}
	ackers[a.Replica] = struct{}{}
	r.maybeInstallView(a.View)
}

// validatedViewChanges returns the VIEW-CHANGEs of the view whose
// contents are confirmed: the primary's own, and those of any origin
// where 2f-1 other replicas acked the same digest the primary received
// (together with the origin and the primary that is 2f+1 parties, so at
// least one correct replica vouches for the bytes end-to-end).
func (r *Replica) validatedViewChanges(view uint64) map[string]ViewChange {
	out := make(map[string]ViewChange)
	acks := r.vcAcks[view]
	for origin, rec := range r.viewChanges[view] {
		if origin == r.cfg.ID {
			out[origin] = rec.vc
			continue
		}
		need := 2*r.cfg.F - 1
		if len(acks[origin][rec.digest]) >= need {
			out[origin] = rec.vc
		}
	}
	return out
}

// maybeInstallView runs at the would-be primary: with 2f+1 view-change
// messages for the target view it composes and broadcasts NEW-VIEW.
func (r *Replica) maybeInstallView(view uint64) {
	if r.primary(view) != r.cfg.ID || view != r.view || !r.inViewChange {
		return
	}
	vcs := r.validatedViewChanges(view)
	if len(vcs) < r.quorum() {
		return
	}

	// Merge the prepared sets: highest-view batch wins per seq. The
	// drop-floor is groupStable — the highest seq this replica SAW a
	// 2f+1 checkpoint quorum for — never the personal lowWater: after a
	// crash-recovery or state transfer, lowWater covers sequences the
	// group may still need re-issued (a batch committed on one replica
	// and acked to a client can live there), and dropping them here
	// replaces them with no-ops, permanently losing the requests to
	// client-table duplicate suppression once later requests execute.
	floor := r.groupStable
	merged := make(map[uint64]Batch)
	maxSeq := floor
	for _, vc := range vcs {
		for _, b := range vc.Prepared {
			if b.Seq <= floor {
				continue
			}
			// Tie-break equal views on the digest so the merge result
			// does not depend on the view-change map's iteration order
			// (a Byzantine participant can claim a conflicting batch at
			// the same seq and view).
			if cur, ok := merged[b.Seq]; !ok || b.View > cur.View ||
				(b.View == cur.View && bytes.Compare(b.Digest[:], cur.Digest[:]) < 0) {
				merged[b.Seq] = b
			}
			if b.Seq > maxSeq {
				maxSeq = b.Seq
			}
		}
	}
	// Re-stamp into the new view — keeping each prepared batch's
	// original digest and request list, so a batch prepared in view v
	// re-proposes under the same digest in view v+1 — and fill holes
	// with no-ops so the execution pipeline cannot stall on a gap.
	batches := make([]Batch, 0, maxSeq-floor)
	for seq := floor + 1; seq <= maxSeq; seq++ {
		b, ok := merged[seq]
		if !ok {
			noopReq := Request{Client: "", ReqID: 0, Op: nil}
			b = Batch{View: view, Seq: seq, Digest: noopReq.Digest(), Reqs: []Request{noopReq}}
		} else {
			b = Batch{View: view, Seq: seq, Digest: b.Digest, Reqs: b.Reqs}
		}
		batches = append(batches, b)
	}

	nv := NewView{View: view, Batches: batches, Replica: r.cfg.ID}
	r.logf("installing view %d with %d batches", view, len(batches))
	r.broadcast(nv)
	r.installView(view, batches)
}

func (r *Replica) onNewView(nv NewView) {
	if nv.View < r.view || (nv.View == r.view && !r.inViewChange) {
		return
	}
	// Validate the re-issued batches minimally: correct view and
	// digests matching their request lists.
	for _, b := range nv.Batches {
		if b.View != nv.View || !b.wellFormed() {
			r.logf("invalid NEW-VIEW from %s", nv.Replica)
			return
		}
	}
	r.installView(nv.View, nv.Batches)
	// Backups vote for the re-issued batches.
	for _, b := range nv.Batches {
		if b.Seq <= r.lowWater {
			continue
		}
		prep := Prepare{View: b.View, Seq: b.Seq, Digest: b.Digest, Replica: r.cfg.ID}
		r.broadcast(prep)
	}
}

// cpVote is one replica's checkpoint announcement: the chain head it
// published and the view it was operating in when it published it.
type cpVote struct {
	head cpHead
	view uint64
}

// syncViewWithQuorum realigns this replica's view with the view the
// group demonstrably operates in, using a just-assembled checkpoint
// quorum as evidence. Each CHECKPOINT carries its sender's view; among
// the 2f+1 matching voters at most f are Byzantine, so the (f+1)-th
// smallest reported view is bracketed by honest views — it cannot be
// forged past the group in either direction.
//
// Jumping FORWARD covers a replica that missed a NEW-VIEW entirely
// (state transfer only fixes that when the replica is also behind on
// state). Falling BACK covers the runaway straggler: a replica whose
// timer fired alone keeps view-changing into ever-higher views that no
// one joins (the f+1 join rule protects the group from exactly that),
// while the healthy quorum — pending queues empty — never times out.
// Stuck in a view it never installed, the straggler rejects all
// current-view traffic and would stay wedged forever. Rejoining is safe
// precisely because nothing was installed above the target: a replica
// casts votes only in installed views, so it abandons views it never
// spoke in and resumes as if the timeouts had not happened.
// installedView guards the induction — a replica never falls back below
// a view it installed, so a view that committed anything is only ever
// left forward.
func (r *Replica) syncViewWithQuorum(seq uint64, head cpHead) {
	views := make([]uint64, 0, r.n)
	for _, v := range r.checkpoints[seq] {
		if v.head == head {
			views = append(views, v.view)
		}
	}
	if len(views) < r.quorum() {
		return
	}
	sort.Slice(views, func(i, j int) bool { return views[i] < views[j] })
	w := views[r.cfg.F]
	switch {
	case w > r.view:
		// The group moved past us.
	case w == r.view && r.inViewChange:
		// Our own NEW-VIEW was lost; the group installed the view.
	case w < r.view && r.inViewChange && w >= r.installedView:
		// Runaway straggler: rejoin the view the group still works in.
	default:
		return
	}
	r.adoptView(w)
}

// adoptView switches to a view the group is known to operate in,
// without a NEW-VIEW: protocol records of the abandoned views are
// discarded (checkpoints and state transfer re-cover anything that
// committed meanwhile) and the replica resumes as an ordinary backup.
func (r *Replica) adoptView(view uint64) {
	r.logf("adopting group view %d (was %d)", view, r.view)
	r.view = view
	r.installedView = view
	r.inViewChange = false
	r.nextTimeout = r.cfg.ViewChangeTimeout
	r.m.viewsInstalled.Inc()
	r.emit(EventViewInstalled, 0, 0)
	r.rollbackTentative()
	for seq, e := range r.entries {
		if seq > r.lowWater && !e.executed {
			delete(r.entries, seq)
		}
	}
	r.assigned = make(map[[32]byte]uint64)
	r.unverified = make(map[uint64]unverifiedBatch)
	r.queue = nil
	r.queued = make(map[[32]byte]struct{})
	r.disarmBatchTimer()
	if r.executed > r.seq {
		r.seq = r.executed
	}
	for v := range r.viewChanges {
		if v <= view {
			delete(r.viewChanges, v)
		}
	}
	for v := range r.vcAcks {
		if v <= view {
			delete(r.vcAcks, v)
		}
	}
	if len(r.pending) > 0 {
		r.armTimer()
	} else {
		r.disarmTimer()
	}
}

// installView switches to the view and reseeds the log with the
// re-issued batches.
func (r *Replica) installView(view uint64, batches []Batch) {
	r.view = view
	r.installedView = view
	r.inViewChange = false
	r.nextTimeout = r.cfg.ViewChangeTimeout

	// A prepared batch the new view does not re-issue must not leave
	// effects behind: discard every tentative overlay before reseeding.
	// Batches that survived re-execute tentatively below, on identical
	// committed state, so surviving results are byte-identical.
	r.rollbackTentative()

	// Reset per-view voting state above the stable checkpoint, keeping
	// executed entries.
	for seq, e := range r.entries {
		if seq > r.lowWater && !e.executed {
			delete(r.entries, seq)
		}
	}
	r.assigned = make(map[[32]byte]uint64)
	r.unverified = make(map[uint64]unverifiedBatch)
	r.queue = nil
	r.queued = make(map[[32]byte]struct{})
	r.disarmBatchTimer()
	// Continue assigning after the view's re-issued batches, not after
	// the stale counter of the previous view — otherwise a hole at an
	// abandoned sequence number would stall execution forever.
	r.seq = r.lowWater
	if r.executed > r.seq {
		r.seq = r.executed
	}
	for _, b := range batches {
		if b.Seq > r.seq {
			r.seq = b.Seq
		}
	}
	for seq := range r.viewChanges {
		if seq <= view {
			delete(r.viewChanges, seq)
		}
	}
	for v := range r.vcAcks {
		if v <= view {
			delete(r.vcAcks, v)
		}
	}
	for _, b := range batches {
		if b.Seq <= r.lowWater {
			continue
		}
		if e, ok := r.entries[b.Seq]; ok && e.executed {
			// Already executed here, but a peer that has not may need a
			// fresh commit quorum: its vote records died with the old
			// view, and an executed replica never re-enters the prepare
			// phase (tryPrepared short-circuits on sentCommit). Re-issue
			// our commit vote — onCommit accepts commits across views —
			// so stragglers can finish batches the group already settled.
			// Only for the same digest we executed: a NEW-VIEW no-op
			// filler at an executed sequence must not collect our vote
			// for conflicting contents.
			if e.batch != nil && e.batch.Digest == b.Digest {
				r.broadcast(Commit{View: view, Seq: b.Seq, Digest: b.Digest, Replica: r.cfg.ID})
			}
			continue
		}
		ds, ok := b.digests()
		if !ok {
			continue // malformed batch cannot be accepted
		}
		if !r.batchVerifiable(b, ds) {
			// A Byzantine view-change participant may have smuggled a
			// forged "prepared" request into the NEW-VIEW; only vouch
			// for requests we saw first-hand (the client retransmits)
			// or that carry a valid authenticator.
			r.unverified[b.Seq] = unverifiedBatch{b: b, ds: ds}
			continue
		}
		r.acceptBatch(b, ds)
		r.tryPrepared(b.Seq)
	}
	r.tryExecute()
	if len(r.pending) > 0 {
		r.armTimer()
		// The new primary re-proposes pending requests that did not make
		// it into the view's batches; backups wait for the client's
		// retransmission (see onRequest for why replicas never forward).
		if r.isPrimary() {
			// Re-propose each client's carried-over requests in request-ID
			// order: executing the later of two pipelined requests first
			// would drop the earlier for good (at-most-once keeps only the
			// latest window) and its client would wait forever. The digest
			// only breaks ties
			// between conflicting requests a Byzantine client sent under
			// one ID, so the order is the same on every run.
			carried := make([]queuedReq, 0, len(r.pending))
			for digest, req := range r.pending {
				if _, ok := r.assigned[digest]; ok {
					continue
				}
				if r.clients[req.Client].stale(req) {
					continue // already executed in an earlier view
				}
				carried = append(carried, queuedReq{req: req, digest: digest})
			}
			sort.Slice(carried, func(i, j int) bool {
				a, b := carried[i], carried[j]
				if a.req.Client != b.req.Client {
					return a.req.Client < b.req.Client
				}
				if a.req.ReqID != b.req.ReqID {
					return a.req.ReqID < b.req.ReqID
				}
				return bytes.Compare(a.digest[:], b.digest[:]) < 0
			})
			for _, q := range carried {
				r.enqueue(q.req, q.digest)
			}
			r.flushQueue(true)
		}
	} else {
		r.disarmTimer()
	}
	r.logf("entered view %d", view)
}
