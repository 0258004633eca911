package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"peats/internal/bft"
	"peats/internal/peats"
	"peats/internal/transport"
	"peats/internal/wire"
)

// Tracing is done from outside the program: the generator stamps a
// request when it is due, sent and answered, and a wrapper around the
// primary's bft.Service stamps when the replica hands the request to
// the state machine. Everything reads one clock, the loop's epoch. The
// spans of one request share its identifier:
//
//	request                      due → answered
//	  client.queue_wait          due → sent (open loop only)
//	  client.submit              sent → answered
//	    bft.send_to_prepared     sent → the primary starts executing it
//	    service.execute          inside TentativeExecute / Execute
//	    bft.reply                executed → 2f+1 matching replies counted
//
// A read on the fast path has bft.read_dispatch, service.read_execute
// and bft.read_reply under client.submit instead. The primary's event
// loop adds spans of its own, outside any request: service.promote,
// durable.commit_unit, service.snapshot, service.checkpoint_delta,
// durable.compact and, per batch, bft.prepared_to_commit.

// span is one timed interval; times are nanoseconds from the epoch.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxTracedRequests bounds the spans kept for the trace file; the
// duration lists the metrics come from take every request.
const maxTracedRequests = 20000

// mark is where the primary's service wrapper leaves the execution
// interval of a request the generator announced.
type mark struct {
	key        string // client, NUL, request bytes
	start, end time.Duration
	seen       bool
}

type tracer struct {
	on    atomic.Bool
	epoch time.Time // written before on is set

	mu sync.Mutex // guards everything below

	inflight map[string]*mark // by mark.key
	requests int
	spans    []span
	// durations, in µs, of every span recorded, by span name.
	durations map[string][]float64
	// loopBusy is the time the primary's event loop spent inside the
	// service wrapper.
	loopBusy  time.Duration
	execBusy  time.Duration // the part of it executing ordered operations
	executed  int           // how many of those
	prepared  []time.Time   // when each unit not yet promoted was prepared
	sendCalls []float64     // ns per Send/SendClass on the primary's transport
}

func newTracer() *tracer {
	return &tracer{inflight: make(map[string]*mark), durations: make(map[string][]float64)}
}

// enable starts recording; times are counted from epoch.
func (t *tracer) enable(epoch time.Time) {
	t.epoch = epoch
	t.on.Store(true)
}

func (t *tracer) disable() { t.on.Store(false) }

// now returns the epoch offset, and false while recording is off.
func (t *tracer) now() (time.Duration, bool) {
	if !t.on.Load() {
		return 0, false
	}
	return time.Since(t.epoch), true
}

func (t *tracer) addSpan(name, req string, parent int, start, end time.Duration, keep bool) int {
	t.durations[name] = append(t.durations[name], micros(end-start))
	if !keep {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: int64(start), End: int64(end)})
	return id
}

// requestBytes is the request payload RemoteSpace sends for a
// submission — what the replica's service is handed as op.
func requestBytes(ops []peats.Op) []byte {
	wops := make([]wire.SpaceOp, len(ops))
	for i, op := range ops {
		wops[i] = wire.SpaceOp{Op: op.Code, Template: op.Template, Entry: op.Entry}
	}
	if len(wops) == 1 {
		return wire.EncodeSpaceOp(wops[0])
	}
	return wire.EncodeSpaceTx(wire.SpaceTx{Ops: wops})
}

// sent announces the submissions a connection is about to ship, so the
// service wrapper can recognise them. It returns nil while recording
// is off.
func (t *tracer) sent(conn string, items []item) []*mark {
	if !t.on.Load() {
		return nil
	}
	marks := make([]*mark, len(items))
	for i, it := range items {
		marks[i] = &mark{key: conn + "\x00" + string(requestBytes(it.ops))}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range marks {
		t.inflight[m.key] = m
	}
	return marks
}

// answered records the spans of the submissions of one turn.
func (t *tracer) answered(conn string, marks []*mark, items []item, batch []arrival, sent, done time.Duration) {
	if marks == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, it := range items {
		m := marks[i]
		delete(t.inflight, m.key)
		t.requests++
		keep := t.requests <= maxTracedRequests
		req := fmt.Sprintf("%s#%d", conn, t.requests)
		due := batch[i].due
		root := t.addSpan("request", req, 0, due, done, keep)
		if due < sent {
			t.addSpan("client.queue_wait", req, root, due, sent, keep)
		}
		submit := t.addSpan("client.submit", req, root, sent, done, keep)
		if !m.seen || m.start < sent || m.end > done {
			continue // executed elsewhere first, e.g. after a view change
		}
		names := [3]string{"bft.send_to_prepared", "service.execute", "bft.reply"}
		if it.read {
			names = [3]string{"bft.read_dispatch", "service.read_execute", "bft.read_reply"}
		}
		t.addSpan(names[0], req, submit, sent, m.start, keep)
		t.addSpan(names[1], req, submit, m.start, m.end, keep)
		t.addSpan(names[2], req, submit, m.end, done, keep)
	}
}

// tracedService times the calls the primary makes into its state
// machine. Embedding keeps every optional bft interface the replica
// looks for. All methods but ExecuteReadOnly run on the event loop.
type tracedService struct {
	*bft.SpaceService
	t *tracer
}

func (t *tracer) wrapService(s *bft.SpaceService) bft.Service {
	return &tracedService{SpaceService: s, t: t}
}

// timed runs fn and, while recording is on, hands the interval it took
// to record.
func (t *tracer) timed(fn func(), record func(start, end time.Duration)) {
	start, on := t.now()
	fn()
	if on {
		record(start, time.Since(t.epoch))
	}
}

// execution returns the recorder of one execution interval: it leaves
// the interval on the mark of every request it covered. Ordered
// execution runs on the event loop, a fast-path read beside it.
func (t *tracer) execution(clients []string, ops [][]byte, ordered bool) func(start, end time.Duration) {
	return func(start, end time.Duration) {
		t.mu.Lock()
		defer t.mu.Unlock()
		if ordered {
			t.loopBusy += end - start
			t.execBusy += end - start
			t.executed += len(ops)
		}
		for i, op := range ops {
			if m := t.inflight[clients[i]+"\x00"+string(op)]; m != nil && !m.seen {
				m.start, m.end, m.seen = start, end, true
			}
		}
	}
}

// loopWait records an interval between two event-loop calls; the loop
// was not busy with it.
func (t *tracer) loopWait(name string, start, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addSpan(name, "", 0, start, end, t.requests < maxTracedRequests)
}

// loopSpan returns the recorder of an event-loop span that belongs to
// no request.
func (t *tracer) loopSpan(name string) func(start, end time.Duration) {
	return func(start, end time.Duration) {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.loopBusy += end - start
		t.addSpan(name, "", 0, start, end, t.requests < maxTracedRequests)
	}
}

func (s *tracedService) Execute(client string, op []byte) (res []byte) {
	s.t.timed(func() { res = s.SpaceService.Execute(client, op) },
		s.t.execution([]string{client}, [][]byte{op}, true))
	return res
}

func (s *tracedService) TentativeExecute(client string, op []byte) (res []byte) {
	s.t.timed(func() { res = s.SpaceService.TentativeExecute(client, op) },
		s.t.execution([]string{client}, [][]byte{op}, true))
	return res
}

func (s *tracedService) ExecuteBatch(clients []string, ops [][]byte) (res [][]byte) {
	s.t.timed(func() { res = s.SpaceService.ExecuteBatch(clients, ops) },
		s.t.execution(clients, ops, true))
	return res
}

func (s *tracedService) ExecuteReadOnly(client string, op []byte) (res []byte, ok bool) {
	s.t.timed(func() { res, ok = s.SpaceService.ExecuteReadOnly(client, op) },
		s.t.execution([]string{client}, [][]byte{op}, false))
	return res, ok
}

// The queue of prepared units is kept whether or not recording is on,
// so that a unit prepared before the window opens is not mistaken for
// the next one when it is promoted inside it.
func (s *tracedService) BeginTentativeUnit(seq uint64) {
	s.t.mu.Lock()
	s.t.prepared = append(s.t.prepared, time.Now())
	s.t.mu.Unlock()
	s.SpaceService.BeginTentativeUnit(seq)
}

func (s *tracedService) RollbackTentative() {
	s.t.mu.Lock()
	s.t.prepared = nil
	s.t.mu.Unlock()
	s.SpaceService.RollbackTentative()
}

func (s *tracedService) PromoteTentative() {
	// Units promote in the order they were prepared.
	var begun time.Time
	s.t.mu.Lock()
	if len(s.t.prepared) > 0 {
		begun, s.t.prepared = s.t.prepared[0], s.t.prepared[1:]
	}
	s.t.mu.Unlock()
	s.t.timed(s.SpaceService.PromoteTentative, func(start, end time.Duration) {
		if !begun.IsZero() {
			s.t.loopWait("bft.prepared_to_commit", begun.Sub(s.t.epoch), start)
		}
		s.t.loopSpan("service.promote")(start, end)
	})
}

func (s *tracedService) CommitUnit(extra []byte) {
	s.t.timed(func() { s.SpaceService.CommitUnit(extra) }, s.t.loopSpan("durable.commit_unit"))
}

func (s *tracedService) Snapshot() (snap []byte) {
	s.t.timed(func() { snap = s.SpaceService.Snapshot() }, s.t.loopSpan("service.snapshot"))
	return snap
}

func (s *tracedService) CheckpointDelta() (delta []byte, ok bool) {
	s.t.timed(func() { delta, ok = s.SpaceService.CheckpointDelta() }, s.t.loopSpan("service.checkpoint_delta"))
	return delta, ok
}

func (s *tracedService) CompactTo(seq uint64, extra []byte) (err error) {
	s.t.timed(func() { err = s.SpaceService.CompactTo(seq, extra) }, s.t.loopSpan("durable.compact"))
	return err
}

// tracedTransport times the primary's sends: what the event loop pays
// to hand a frame to the transport.
type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (t *tracer) wrapTransport(tr transport.Transport) transport.Transport {
	return &tracedTransport{Transport: tr, t: t}
}

func (w *tracedTransport) Send(to string, payload []byte) error {
	return w.SendClass(to, payload, transport.ClassProtocol)
}

func (w *tracedTransport) SendClass(to string, payload []byte, class transport.Class) error {
	start := time.Now()
	err := w.Transport.SendClass(to, payload, class)
	if took := time.Since(start); w.t.on.Load() {
		w.t.mu.Lock()
		w.t.sendCalls = append(w.t.sendCalls, float64(took))
		w.t.mu.Unlock()
	}
	return err
}

// selfTimes returns, per span name, the total time its spans did not
// spend in their child spans: a span's duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerOf is the part of a span name before the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// write stores the kept spans and their self times, by span name and
// by layer, in dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	byName := make(map[string]float64)
	byLayer := make(map[string]float64)
	for name, d := range selfTimes(t.spans) {
		if name == "request" {
			continue // fully covered by its children
		}
		byName[name] = micros(d)
		byLayer[layerOf(name)] += micros(d)
	}
	doc := struct {
		Workload    string             `json:"workload"`
		Note        string             `json:"note"`
		SelfByLayer map[string]float64 `json:"self_time_us_by_layer"`
		SelfByName  map[string]float64 `json:"self_time_us_by_span"`
		Spans       []span             `json:"spans"`
	}{
		Workload: workload,
		Note: fmt.Sprintf("first %d requests of the traced window and the primary's event-loop spans beside them; times are ns from the loop's epoch",
			maxTracedRequests),
		SelfByLayer: byLayer, SelfByName: byName, Spans: t.spans,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
