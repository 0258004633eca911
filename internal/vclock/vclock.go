// Package vclock abstracts wall-clock time behind an injectable interface so
// the BFT replica, clients, and pollers can run either on real time (production)
// or on a virtual, single-threaded event loop (internal/sim).
//
// The contract has two delivery modes. A real Timer/Ticker delivers fires on
// its C() channel, exactly like time.Timer/time.Ticker, and ignores the fire
// callback. A virtual implementation returns a nil C() channel (which blocks
// forever in a select) and instead invokes the fire callback synchronously on
// the event-loop thread. Code that owns a run loop selects on C() and also
// exposes the same handling via the callback, so it works in both modes.
package vclock

import "time"

// Clock creates timers and tickers and reports the current time.
type Clock interface {
	// Now returns the current time (virtual time under simulation).
	Now() time.Time
	// NewTimer returns a stopped timer. fire is invoked by virtual clocks
	// when the timer expires; real clocks deliver on C() instead and ignore
	// fire. fire may be nil if the caller only ever selects on C().
	NewTimer(fire func()) Timer
	// NewTicker returns a ticker firing every d. Same fire contract as NewTimer.
	NewTicker(d time.Duration, fire func()) Ticker
}

// Timer is a resettable one-shot timer.
type Timer interface {
	// C returns the fire channel, or nil for virtual timers (nil blocks in select).
	C() <-chan time.Time
	// Reset arms the timer to fire after d, replacing any pending fire.
	Reset(d time.Duration)
	// Stop disarms the timer. It reports whether a fire was pending. For real
	// timers the caller must drain C() when Stop returns false and the fire
	// has not been consumed (the usual time.Timer dance); virtual timers never
	// need draining.
	Stop() bool
}

// Ticker is a repeating timer.
type Ticker interface {
	C() <-chan time.Time
	Reset(d time.Duration)
	Stop()
}

// Real returns a Clock backed by the time package.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) NewTimer(func()) Timer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return &realTimer{t: t}
}

func (realClock) NewTicker(d time.Duration, _ func()) Ticker {
	return &realTicker{t: time.NewTicker(d)}
}

type realTimer struct{ t *time.Timer }

func (r *realTimer) C() <-chan time.Time   { return r.t.C }
func (r *realTimer) Reset(d time.Duration) { r.t.Reset(d) }
func (r *realTimer) Stop() bool            { return r.t.Stop() }

type realTicker struct{ t *time.Ticker }

func (r *realTicker) C() <-chan time.Time   { return r.t.C }
func (r *realTicker) Reset(d time.Duration) { r.t.Reset(d) }
func (r *realTicker) Stop()                 { r.t.Stop() }
