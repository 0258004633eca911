package bft

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/tuple"
	"peats/internal/vclock"
	"peats/internal/wire"
)

// RemoteSpace is the client-side view of the replicated PEATS: it
// implements peats.TupleSpace by shipping operations through the BFT
// client, so the consensus algorithms and universal constructions run
// unchanged over the replicated realisation (Fig. 2).
//
// Submit ships a multi-operation unit as one wire.SpaceTx under a
// single request (one digest, one agreement round): every replica
// executes the whole list in one space critical section and replies
// with a per-op result vector, so a k-op transaction costs one round
// trip instead of k. A single-op submission travels in the legacy
// single-operation wire form — the two are executed by the same staged
// path at the replicas.
//
// Blocking rd/in are realised by polling their non-blocking variants,
// as in DEPSPACE, with jittered exponential backoff between misses
// (floor PollInterval, cap PollMaxInterval).
//
// Non-mutating requests (rd, rdp, rdAll, and submissions composed
// entirely of read-only ops) take the read-only fast path by default:
// replicas answer from current committed state without ordering and the
// client accepts a 2f+1 byte-identical vote, falling back to ordered
// execution when the vote cannot form. Set OrderedReads to force every
// read through total ordering.
type RemoteSpace struct {
	c *Client
	// PollInterval is the initial (floor) delay of the rd/in polling
	// loops (default 5ms). Each consecutive miss doubles the delay, with
	// jitter, up to PollMaxInterval.
	PollInterval time.Duration
	// PollMaxInterval caps the rd/in polling backoff (default 100ms, and
	// never below PollInterval).
	PollMaxInterval time.Duration
	// OrderedReads disables the read-only fast path.
	OrderedReads bool
	// TentativeWrites accepts 2f+1 matching tentative replies for
	// mutating submissions, cutting the commit round off the latency
	// path (default on; see Client.AcceptTentative for why this is
	// safe). TentativeReads does the same for ordered reads — reads
	// forced through ordering by OrderedReads or by read-only vote
	// failure; the read-only fast path itself never replies
	// tentatively.
	TentativeWrites bool
	TentativeReads  bool

	pending []*PendingSubmit // submissions buffered by SubmitAsync
}

var _ peats.TupleSpace = (*RemoteSpace)(nil)

// NewRemoteSpace wraps a BFT client as a tuple space handle. The
// process identity seen by the reference monitor is the client's
// transport identity.
func NewRemoteSpace(c *Client) *RemoteSpace {
	return &RemoteSpace{
		c:               c,
		PollInterval:    5 * time.Millisecond,
		TentativeWrites: true,
		TentativeReads:  true,
	}
}

// ID returns the authenticated process identity of the underlying
// client.
func (s *RemoteSpace) ID() policy.ProcessID { return policy.ProcessID(s.c.ID()) }

func (s *RemoteSpace) invoke(ctx context.Context, op wire.SpaceOp) (wire.SpaceResult, error) {
	return s.invokeVia(ctx, op, s.c.Invoke)
}

// invokeRO ships a non-mutating operation over the read-only fast path
// (unless disabled); the client falls back to ordering on vote failure.
func (s *RemoteSpace) invokeRO(ctx context.Context, op wire.SpaceOp) (wire.SpaceResult, error) {
	if s.OrderedReads {
		return s.invoke(ctx, op)
	}
	return s.invokeVia(ctx, op, s.c.InvokeReadOnly)
}

func (s *RemoteSpace) invokeVia(
	ctx context.Context,
	op wire.SpaceOp,
	call func(context.Context, []byte) ([]byte, error),
) (wire.SpaceResult, error) {
	raw, err := call(ctx, wire.EncodeSpaceOp(op))
	if err != nil {
		return wire.SpaceResult{}, err
	}
	res, err := wire.DecodeSpaceResult(raw)
	if err != nil {
		return wire.SpaceResult{}, fmt.Errorf("replicated space: %w", err)
	}
	if err := resultToError(res); err != nil {
		return wire.SpaceResult{}, err
	}
	return res, nil
}

// Submit implements peats.TupleSpace over the replicated realisation.
// The ops travel as one request and execute as one atomic unit at every
// replica, with the same abort semantics as the local Handle: denial
// (ErrDenied with the monitor's detail), malformed arguments, or an
// InpOp miss (ErrAborted) leave the space untouched, and the returned
// results cover the attempted prefix. A submission of only read-only
// ops is eligible for the read-only fast path.
func (s *RemoteSpace) Submit(ctx context.Context, ops ...peats.Op) ([]peats.Result, error) {
	wops, readOnly, err := validateSubmission(ops)
	if err != nil {
		return nil, err
	}
	// The knob is re-applied on every invocation: the shared client may
	// serve several RemoteSpace handles with different settings.
	if readOnly {
		s.c.AcceptTentative = s.TentativeReads
	} else {
		s.c.AcceptTentative = s.TentativeWrites
	}
	if len(ops) == 1 {
		// A one-op unit travels in the legacy wire form (and is executed
		// by the same staged path at the replicas).
		var (
			res wire.SpaceResult
			err error
		)
		if readOnly {
			res, err = s.invokeRO(ctx, wops[0])
		} else {
			res, err = s.invoke(ctx, wops[0])
		}
		if err != nil {
			return nil, err
		}
		return []peats.Result{toResult(ops[0], res)}, nil
	}

	call := s.c.Invoke
	if readOnly && !s.OrderedReads {
		call = s.c.InvokeReadOnly
	}
	raw, err := call(ctx, wire.EncodeSpaceTx(wire.SpaceTx{Ops: wops}))
	if err != nil {
		return nil, err
	}
	return decodeSubmission(ops, raw)
}

// validateSubmission checks a Submit op list and lifts it to the wire
// form, reporting whether the whole unit is read-only.
func validateSubmission(ops []peats.Op) ([]wire.SpaceOp, bool, error) {
	if len(ops) == 0 {
		return nil, false, errors.New("peats: empty submission")
	}
	if len(ops) > wire.MaxTxOps {
		return nil, false, fmt.Errorf("peats: submission of %d ops exceeds the %d-op wire bound",
			len(ops), wire.MaxTxOps)
	}
	wops := make([]wire.SpaceOp, len(ops))
	readOnly := true
	for i, op := range ops {
		switch op.Code {
		case policy.OpOut, policy.OpRdp, policy.OpInp, policy.OpCas, policy.OpRdAll:
		default:
			return nil, false, fmt.Errorf("peats: op %v cannot be submitted", op.Code)
		}
		readOnly = readOnly && op.ReadOnly()
		wops[i] = wire.SpaceOp{Op: op.Code, Template: op.Template, Entry: op.Entry}
	}
	return wops, readOnly, nil
}

// decodeSubmission lifts a replica result vector into client results,
// with the same abort semantics as the local Handle.
func decodeSubmission(ops []peats.Op, raw []byte) ([]peats.Result, error) {
	vec, err := wire.DecodeSpaceResults(raw)
	if err != nil {
		return nil, fmt.Errorf("replicated space: %w", err)
	}
	if len(vec) != len(ops) {
		return nil, fmt.Errorf("replicated space: %d results for %d ops", len(vec), len(ops))
	}
	results := make([]peats.Result, 0, len(ops))
	for i, sr := range vec {
		switch sr.Status {
		case wire.StatusOK:
		case wire.StatusDenied:
			return results, &peats.DeniedError{Detail: sr.Detail}
		case wire.StatusSkipped:
			// Unreachable for vectors produced by correct replicas: the
			// aborting op before it already ended the loop.
			return results, fmt.Errorf("%w: op %d skipped", peats.ErrAborted, i)
		default:
			return results, errors.New("peats service: " + sr.Detail)
		}
		results = append(results, toResult(ops[i], sr))
		if ops[i].Code == policy.OpInp && !sr.Found {
			return results, fmt.Errorf("%w: op %d (inp %v) found no match",
				peats.ErrAborted, i, ops[i].Template)
		}
	}
	return results, nil
}

// PendingSubmit is a submission buffered by SubmitAsync; its results
// become available after the next Flush.
type PendingSubmit struct {
	ops     []peats.Op
	wops    []wire.SpaceOp
	results []peats.Result
	err     error
	flushed bool
}

// Results returns the submission's outcome. Calling it before the
// flush reports an error.
func (p *PendingSubmit) Results() ([]peats.Result, error) {
	if !p.flushed && p.err == nil {
		return nil, errors.New("peats: submission not flushed")
	}
	return p.results, p.err
}

// SubmitAsync buffers a submission for the next Flush instead of
// invoking it immediately. Buffered submissions are pipelined: Flush
// ships them under consecutive request IDs as one request (one per
// maxWindow of them), so k Submits cost one frame, one protocol round
// and one reply per replica instead of k.
//
// Replicas execute a flush's submissions in submission order —
// contiguously inside one agreement batch, up to maxWindow of them —
// and each still succeeds or aborts on its own: a later submission sees
// an earlier one's effects, but is not undone by its failure.
// Validation errors surface on the returned handle at Flush time.
func (s *RemoteSpace) SubmitAsync(ops ...peats.Op) *PendingSubmit {
	p := &PendingSubmit{ops: ops}
	p.wops, _, p.err = validateSubmission(ops)
	s.pending = append(s.pending, p)
	return p
}

// Flush ships every buffered submission in one pipelined round and
// resolves their handles. It returns the first transport-level error;
// per-submission outcomes (denials, aborts) are reported only through
// the handles.
func (s *RemoteSpace) Flush(ctx context.Context) error {
	pend := s.pending
	s.pending = nil
	live := pend[:0]
	for _, p := range pend {
		if p.err == nil {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil
	}
	// Pipelined submissions always travel ordered: the read-only fast
	// path answers from per-replica current state, which is pointless to
	// batch (and mixing paths would break the window).
	s.c.AcceptTentative = s.TentativeWrites
	payloads := make([][]byte, len(live))
	for i, p := range live {
		if len(p.wops) == 1 {
			payloads[i] = wire.EncodeSpaceOp(p.wops[0])
		} else {
			payloads[i] = wire.EncodeSpaceTx(wire.SpaceTx{Ops: p.wops})
		}
	}
	raws, err := s.c.InvokeBatch(ctx, payloads)
	if err != nil {
		for _, p := range live {
			p.err = err
		}
		return err
	}
	for i, p := range live {
		p.flushed = true
		if len(p.ops) == 1 {
			res, rerr := wire.DecodeSpaceResult(raws[i])
			if rerr != nil {
				p.err = fmt.Errorf("replicated space: %w", rerr)
				continue
			}
			if rerr := resultToError(res); rerr != nil {
				p.err = rerr
				continue
			}
			p.results = []peats.Result{toResult(p.ops[0], res)}
			continue
		}
		p.results, p.err = decodeSubmission(p.ops, raws[i])
	}
	return nil
}

// toResult lifts a wire result into the client-facing form, deriving
// formal-field bindings from the op's template.
func toResult(op peats.Op, sr wire.SpaceResult) peats.Result {
	return peats.NewResult(op, sr.Found, sr.Inserted, sr.Tuple, sr.Tuples)
}

// Out implements peats.TupleSpace.
func (s *RemoteSpace) Out(ctx context.Context, entry tuple.Tuple) error {
	_, err := s.Submit(ctx, peats.OutOp(entry))
	return err
}

// Rdp implements peats.TupleSpace.
func (s *RemoteSpace) Rdp(ctx context.Context, tmpl tuple.Tuple) (tuple.Tuple, bool, error) {
	res, err := s.Submit(ctx, peats.RdpOp(tmpl))
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	return res[0].Tuple, res[0].Found, nil
}

// Inp implements peats.TupleSpace.
func (s *RemoteSpace) Inp(ctx context.Context, tmpl tuple.Tuple) (tuple.Tuple, bool, error) {
	res, err := s.Submit(ctx, peats.InpOp(tmpl))
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	return res[0].Tuple, res[0].Found, nil
}

// RdAll implements peats.TupleSpace.
func (s *RemoteSpace) RdAll(ctx context.Context, tmpl tuple.Tuple) ([]tuple.Tuple, error) {
	res, err := s.Submit(ctx, peats.RdAllOp(tmpl))
	if err != nil {
		return nil, err
	}
	return res[0].Tuples, nil
}

// Cas implements peats.TupleSpace.
func (s *RemoteSpace) Cas(ctx context.Context, tmpl, entry tuple.Tuple) (bool, tuple.Tuple, error) {
	res, err := s.Submit(ctx, peats.CasOp(tmpl, entry))
	if err != nil {
		return false, tuple.Tuple{}, err
	}
	return res[0].Inserted, res[0].Tuple, nil
}

// Rd implements peats.TupleSpace by polling Rdp.
func (s *RemoteSpace) Rd(ctx context.Context, tmpl tuple.Tuple) (tuple.Tuple, error) {
	return s.poll(ctx, tmpl, s.Rdp)
}

// In implements peats.TupleSpace by polling Inp.
func (s *RemoteSpace) In(ctx context.Context, tmpl tuple.Tuple) (tuple.Tuple, error) {
	return s.poll(ctx, tmpl, s.Inp)
}

// pollDelay returns the delay before the attempt-th retry of a polling
// loop: floor·2^attempt with uniform jitter of up to half the base,
// never below floor and never above max. The jitter decorrelates
// clients that missed the same tuple, so a wake-up does not produce a
// synchronized thundering herd; once the backoff saturates the cap the
// jitter headroom is gone and the delay sits exactly at max.
func pollDelay(floor, max time.Duration, attempt int) time.Duration {
	base := floor
	for i := 0; i < attempt && base < max; i++ {
		base *= 2
	}
	if base > max {
		base = max
	}
	headroom := base / 2
	if base+headroom > max {
		headroom = max - base
	}
	return base + time.Duration(rand.Int63n(int64(headroom)+1))
}

func (s *RemoteSpace) poll(
	ctx context.Context,
	tmpl tuple.Tuple,
	op func(context.Context, tuple.Tuple) (tuple.Tuple, bool, error),
) (tuple.Tuple, error) {
	floor := s.PollInterval
	if floor <= 0 {
		floor = 5 * time.Millisecond
	}
	max := s.PollMaxInterval
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	if max < floor {
		max = floor
	}
	clock := vclock.Real()
	if s.c != nil { // poll-shape tests run without a client
		clock = s.c.clock()
	}
	timer := clock.NewTimer(nil)
	defer timer.Stop()
	for attempt := 0; ; attempt++ {
		t, ok, err := op(ctx, tmpl)
		if err != nil {
			return tuple.Tuple{}, err
		}
		if ok {
			return t, nil
		}
		timer.Reset(pollDelay(floor, max, attempt))
		select {
		case <-ctx.Done():
			return tuple.Tuple{}, ctx.Err()
		case <-timer.C():
		}
	}
}
