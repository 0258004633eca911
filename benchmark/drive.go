package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"peats/internal/bft"
)

const (
	warmup    = 3 * time.Second  // discarded head of every measured loop
	opTimeout = 20 * time.Second // a submission slower than this has failed
	lateAfter = time.Millisecond // an arrival sent this long after it was due is late

	failoverLead = 200 * time.Millisecond // paced traffic before the primary stops
	failoverTail = 800 * time.Millisecond // and after: stall, view change, backlog drained
)

// sample is one completed submission; times are offsets from the
// loop's epoch. In a closed loop an operation is due when it is sent.
type sample struct {
	read, ok        bool
	fill            int // submissions that shared its Flush
	due, sent, done time.Duration
}

// driver runs one connection's loop on the calling goroutine.
type driver struct {
	conn  *conn
	gen   *generator
	trace *tracer // nil unless traced
	epoch time.Time
	// until is the epoch offset after which no further operation is
	// drawn; the failover trial moves it once the primary is stopped.
	until atomic.Int64

	phase     string // setup, window or failover, for error messages
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	carry     []arrival    // drawn, but their key was already in the Flush being built
	held      map[int]bool // keys written by the Flush being built
}

type arrival struct {
	due  time.Duration
	draw draw
}

func (d *driver) now() time.Duration { return time.Since(d.epoch) }

func (d *driver) fail(err error) {
	d.failed++
	if d.firstErr == nil {
		d.firstErr = fmt.Errorf("%s, %s: %w", d.conn.id, d.phase, err)
	}
}

// closedLoop keeps spec.depth submissions in flight until the deadline.
func (d *driver) closedLoop(ctx context.Context) {
	batch := make([]arrival, 0, d.gen.spec.depth)
	for d.now() < time.Duration(d.until.Load()) && ctx.Err() == nil {
		batch = d.fill(batch[:0], func() (arrival, bool) {
			return arrival{draw: d.gen.draw()}, true
		})
		now := d.now()
		for i := range batch {
			batch[i].due = now
		}
		d.send(ctx, batch)
	}
}

// openLoop sends Poisson arrivals at rate, over all connections. Each
// turn ships every arrival already due, at most spec.depth of them, and
// waits for their replies; what became due meanwhile rides the next
// turn, and its latency counts from when it was due.
func (d *driver) openLoop(ctx context.Context, rate float64) {
	next := arrival{due: d.gen.gap(rate), draw: d.gen.draw()}
	batch := make([]arrival, 0, d.gen.spec.depth)
	for ctx.Err() == nil {
		if len(d.carry) == 0 {
			if next.due >= time.Duration(d.until.Load()) {
				return
			}
			if wait := next.due - d.now(); wait > 0 {
				time.Sleep(wait)
			}
		}
		now := d.now()
		batch = d.fill(batch[:0], func() (arrival, bool) {
			if next.due > now || next.due >= time.Duration(d.until.Load()) {
				return arrival{}, false
			}
			a := next
			next = arrival{due: a.due + d.gen.gap(rate), draw: d.gen.draw()}
			return a, true
		})
		d.send(ctx, batch)
	}
}

// fill builds one turn: carried arrivals first, then fresh ones from
// more, up to spec.depth. A write whose key the turn already holds is
// carried to the next turn, because planning it needs the outcome of
// the earlier write.
func (d *driver) fill(batch []arrival, more func() (arrival, bool)) []arrival {
	clear(d.held)
	take := func(a arrival) bool {
		if a.draw.key >= 0 && !a.draw.read {
			if d.held[a.draw.key] {
				return false
			}
			d.held[a.draw.key] = true
		}
		batch = append(batch, a)
		return true
	}
	carry := d.carry
	d.carry = nil
	for _, a := range carry {
		if len(batch) == d.gen.spec.depth || !take(a) {
			d.carry = append(d.carry, a)
		}
	}
	for len(batch) < d.gen.spec.depth && len(d.carry) == 0 {
		a, ok := more()
		if !ok {
			break
		}
		if !take(a) {
			d.carry = append(d.carry, a)
		}
	}
	return batch
}

// send plans, ships and checks one turn: a blocking Submit when the
// workload runs at depth 1, else SubmitAsync for each and one Flush.
func (d *driver) send(ctx context.Context, batch []arrival) {
	if len(batch) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	items := make([]item, len(batch))
	for i, a := range batch {
		items[i] = d.gen.plan(a.draw)
	}
	d.attempted += len(items)
	sent := d.now()
	var marks []*mark
	if d.trace != nil {
		marks = d.trace.sent(d.conn.id, items)
	}
	outcomes := d.ship(ctx, items, d.gen.spec.depth > 1)
	done := d.now()
	for i, it := range items {
		if outcomes[i] != nil {
			d.fail(outcomes[i])
		}
		d.samples = append(d.samples, sample{
			read: it.read, ok: outcomes[i] == nil, fill: len(items),
			due: batch[i].due, sent: sent, done: done,
		})
	}
	if d.trace != nil {
		d.trace.answered(d.conn.id, marks, items, batch, sent, done)
	}
}

// loaded is a cluster with its resident state in place and the
// drivers whose generators' models describe that state.
type loaded struct {
	cl      *cluster
	drivers []*driver
	setup   time.Duration
}

// setUp builds a cluster under dir and preloads the workload's
// resident state, every connection pipelining its share flushDepth
// submissions per Flush. The elapsed time is the setup_s sample.
func setUp(ctx context.Context, dir string, s spec, seed int64, tr *tracer) (*loaded, error) {
	start := time.Now()
	cl, err := newCluster(dir, s.policy(), tr)
	if err != nil {
		return nil, err
	}
	l := &loaded{cl: cl}
	for _, cn := range cl.conns {
		l.drivers = append(l.drivers, &driver{conn: cn, gen: newGenerator(s, cn.idx, seed), trace: tr, phase: "setup", held: make(map[int]bool)})
	}
	var wg sync.WaitGroup
	for _, d := range l.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.preload(ctx)
		}()
	}
	wg.Wait()
	l.setup = time.Since(start)
	if err := l.firstErr(); err != nil {
		// The replicas' positions tell a hang after a view change (see
		// the README's findings) from a cluster that never answered.
		at := cl.positions()
		_ = cl.stop()
		cl.remove()
		return nil, fmt.Errorf("setup (%s): %w", at, err)
	}
	return l, nil
}

// ship submits items and checks each outcome against the model:
// pipelined, SubmitAsync for each and one Flush; else one blocking
// Submit each.
func (d *driver) ship(ctx context.Context, items []item, pipelined bool) []error {
	outcomes := make([]error, len(items))
	if !pipelined {
		for i, it := range items {
			outcomes[i] = it.check(d.conn.ts.Submit(ctx, it.ops...))
		}
		return outcomes
	}
	pend := make([]*bft.PendingSubmit, len(items))
	for i, it := range items {
		pend[i] = d.conn.ts.SubmitAsync(it.ops...)
	}
	ferr := d.conn.ts.Flush(ctx)
	for i, it := range items {
		res, err := pend[i].Results()
		if ferr != nil {
			err = ferr
		}
		outcomes[i] = it.check(res, err)
	}
	return outcomes
}

func (d *driver) preload(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	items := d.gen.preload()
	d.attempted += len(items)
	for len(items) > 0 && ctx.Err() == nil {
		n := min(flushDepth, len(items))
		for _, err := range d.ship(ctx, items[:n], true) {
			if err != nil {
				d.fail(err)
			}
		}
		items = items[n:]
	}
}

func (l *loaded) firstErr() error {
	for _, d := range l.drivers {
		if d.firstErr != nil {
			return d.firstErr
		}
	}
	return nil
}

func (l *loaded) phase(name string) {
	for _, d := range l.drivers {
		d.phase = name
	}
}

func (l *loaded) counts() (attempted, failed int) {
	for _, d := range l.drivers {
		attempted += d.attempted
		failed += d.failed
	}
	return
}

// run starts every connection's loop at a common epoch and returns
// once all have ended. between runs on the calling goroutine meanwhile
// and is handed the epoch.
func (l *loaded) run(ctx context.Context, rate float64, until time.Duration, between func(epoch time.Time)) {
	epoch := time.Now()
	var wg sync.WaitGroup
	for _, d := range l.drivers {
		d.epoch = epoch
		d.until.Store(int64(until))
		d.samples = d.samples[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rate > 0 {
				d.openLoop(ctx, rate)
			} else {
				d.closedLoop(ctx)
			}
		}()
	}
	between(epoch)
	wg.Wait()
}

// finish quiesces, stops and verifies the cluster — the oracle's
// second half: replicas byte-identical and holding what the models
// say. After a failed operation the models are no guide, so only the
// shutdown is done.
func (l *loaded) finish(ctx context.Context) error {
	defer l.cl.stop()
	if l.firstErr() != nil {
		return nil
	}
	qctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if err := l.cl.quiesce(qctx); err != nil {
		return err
	}
	skip := make(map[string]bool)
	for _, n := range l.cl.nodes {
		skip[n.id] = n.stopped
	}
	if err := l.cl.stop(); err != nil {
		return err
	}
	resident := 0
	for _, d := range l.drivers {
		resident += d.gen.resident
	}
	return l.cl.verify(resident, skip)
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// window is what one measured loop produced.
type window struct {
	from, to    time.Duration // the window, as epoch offsets
	samples     []sample      // correct, and completed inside it (closed loop) or due inside it (open loop)
	cpu         time.Duration // user+sys over the window
	backlogEnd  int           // open loop: arrivals due before the window's end and not yet sent then
	before, end snapshot      // traced runs only
	heapLive    uint64        // traced runs only: heap in use after a forced collection at the window's end
}

// measure runs the workload's loop for warmup+length and cuts the
// window out of it.
func (l *loaded) measure(ctx context.Context, s spec, warm, length time.Duration) window {
	w := window{from: warm, to: warm + length}
	l.phase("window")
	l.run(ctx, s.rate, w.to, func(epoch time.Time) {
		time.Sleep(time.Until(epoch.Add(w.from)))
		u0, s0 := cpuTime()
		if l.cl.tr != nil {
			w.before = l.cl.snapshot()
			l.cl.tr.enable(epoch)
		}
		time.Sleep(time.Until(epoch.Add(w.to)))
		u1, s1 := cpuTime()
		if l.cl.tr != nil {
			l.cl.tr.disable()
			w.end = l.cl.snapshot()
			runtime.GC()
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			w.heapLive = mem.HeapAlloc
		}
		w.cpu = (u1 - u0) + (s1 - s0)
	})
	for _, d := range l.drivers {
		for _, sm := range d.samples {
			at := sm.done
			if s.rate > 0 {
				at = sm.due
				if sm.due < w.to && sm.sent >= w.to {
					w.backlogEnd++
				}
			}
			if sm.ok && at >= w.from && at < w.to {
				w.samples = append(w.samples, sm)
			}
		}
	}
	return w
}

// failover stops the primary under paced ordered traffic and returns
// how long the operation that was first due after the stop took to
// complete, counted from the stop.
func (l *loaded) failover(ctx context.Context) (time.Duration, error) {
	// One blocking Submit at a time: a replica remembers only the latest
	// request ID of a client, and the requests a view change carries over
	// are re-proposed in no particular order, so of several pipelined
	// requests the lower-numbered can be dropped as stale for good.
	for _, d := range l.drivers {
		d.gen.writesOnly = true
		d.gen.spec.depth = 1
	}
	l.phase("failover")
	var killed time.Duration
	// The deadline is far until the primary is stopped, then failoverTail
	// after the stop.
	l.run(ctx, failoverRate, time.Hour, func(epoch time.Time) {
		time.Sleep(time.Until(epoch.Add(failoverLead)))
		primary := l.cl.nodes[0]
		primary.halt()
		killed = time.Since(epoch)
		for _, d := range l.drivers {
			d.until.Store(int64(killed + failoverTail))
		}
		_ = primary.stop()
	})
	var first *sample
	for _, d := range l.drivers {
		for i := range d.samples {
			if sm := &d.samples[i]; sm.due >= killed && (first == nil || sm.due < first.due) {
				first = sm
			}
		}
	}
	if first == nil {
		return 0, errors.New("failover: no operation was due after the primary stopped")
	}
	for _, n := range l.cl.live() {
		if n.rep.View() == 0 {
			return 0, fmt.Errorf("failover: %s is still in view 0", n.id)
		}
	}
	return first.done - killed, nil
}
