package transport

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"peats/internal/auth"
)

// Down notices: an established connection to an addressable peer ended
// and the one redial that followed failed. These tests pin that rule
// from both sides — when a notice must come, and every case where it
// must not.

// fastRedial keeps the episode tests short: the writer of a transport
// that still has frames for a dead peer redials every few milliseconds.
var fastRedial = TCPConfig{RedialBackoff: 5 * time.Millisecond, RedialBackoffMax: 20 * time.Millisecond}

// newDownPair builds two transports that know each other's address and
// exchanges one frame each way, so both have pinned the connection.
func newDownPair(t *testing.T) (a, b *TCP, kr map[string]*auth.Keyring) {
	t.Helper()
	ids := []string{"a", "b"}
	master := []byte("down-master")
	kr = map[string]*auth.Keyring{
		"a": auth.NewKeyringFromMaster(master, "a", ids),
		"b": auth.NewKeyringFromMaster(master, "b", ids),
	}
	a, err := NewTCPWithConfig("a", "127.0.0.1:0", nil, kr["a"], fastRedial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err = NewTCPWithConfig("b", "127.0.0.1:0", map[string]string{"a": a.Addr()}, kr["b"], fastRedial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	a.SetPeerAddr("b", b.Addr())
	exchange(t, a, b)
	return a, b, kr
}

// exchange sends one frame each way and waits for both.
func exchange(t *testing.T, a, b *TCP) {
	t.Helper()
	if err := a.Send(b.Self(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if m := recvWithin(t, b, 5*time.Second); m.Down || string(m.Payload) != "ping" {
		t.Fatalf("got %+v, want ping", m)
	}
	if err := b.Send(a.Self(), []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if m := recvWithin(t, a, 5*time.Second); m.Down || string(m.Payload) != "pong" {
		t.Fatalf("got %+v, want pong", m)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// noNotice fails if the inbox holds a Down notice (messages are fine).
func noNotice(t *testing.T, tr *TCP) {
	t.Helper()
	for {
		select {
		case m := <-tr.Inbox():
			if m.Down {
				t.Fatalf("unexpected Down notice for %s", m.From)
			}
		default:
			if n := tr.Stats().PeersDown; n != 0 {
				t.Fatalf("PeersDown = %d, want 0", n)
			}
			return
		}
	}
}

func wantNotice(t *testing.T, tr *TCP, from string) {
	t.Helper()
	if m := recvWithin(t, tr, 5*time.Second); !m.Down || m.From != from || m.Payload != nil {
		t.Fatalf("got %+v, want Down notice for %s", m, from)
	}
}

// TestTCPDownEpisodes: a peer that dies is reported once however often
// the redial fails afterwards, un-reported by the first frame of its
// next incarnation, and reported again when that one dies.
func TestTCPDownEpisodes(t *testing.T) {
	a, b, kr := newDownPair(t)
	addr := b.Addr()

	_ = b.Close()
	wantNotice(t, a, "b")

	// Frames for the dead peer keep the writer redialing; every attempt
	// fails, none is a new episode.
	dials := a.Stats().Dials
	_ = a.Send("b", []byte("limbo"))
	waitFor(t, "three more failed dials", func() bool { return a.Stats().Dials >= dials+3 })
	if n := a.Stats().PeersDown; n != 1 {
		t.Fatalf("PeersDown = %d after repeated redials, want 1", n)
	}

	b2, err := NewTCPWithConfig("b", addr, map[string]string{"a": a.Addr()}, kr["b"], fastRedial)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if err := b2.Send("a", []byte("back")); err != nil {
		t.Fatal(err)
	}
	if m := recvWithin(t, a, 5*time.Second); m.Down || string(m.Payload) != "back" {
		t.Fatalf("got %+v, want the restarted peer's frame", m)
	}
	if n := a.suspects.Load(); n != 0 {
		t.Fatalf("suspects = %d after hearing from the peer, want 0", n)
	}

	_ = b2.Close()
	wantNotice(t, a, "b")
	if n := a.Stats().PeersDown; n != 2 {
		t.Fatalf("PeersDown = %d after the second loss, want 2", n)
	}
}

// TestTCPDownNeverReached: dials that find nobody at start-up are not a
// loss — there was never a connection to lose.
func TestTCPDownNeverReached(t *testing.T) {
	kr := auth.NewKeyringFromMaster([]byte("m"), "a", []string{"a", "b"})
	a, err := NewTCPWithConfig("a", "127.0.0.1:0", map[string]string{"b": reserveAddr(t)}, kr, fastRedial)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("b", []byte("anyone?")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "three refused dials", func() bool { return a.Stats().Dials >= 3 })
	noNotice(t, a)
}

// TestTCPDownConnectionResetPeerAlive: the connection dies but the peer
// does not, so the confirming redial succeeds and nobody is reported.
func TestTCPDownConnectionResetPeerAlive(t *testing.T) {
	a, b, _ := newDownPair(t)
	a.mu.Lock()
	p := a.peers["b"]
	a.mu.Unlock()
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	dials := a.Stats().Dials + b.Stats().Dials
	_ = conn.Close() // both ends see the connection end

	waitFor(t, "a confirming redial", func() bool { return a.Stats().Dials+b.Stats().Dials > dials })
	exchange(t, a, b)
	waitFor(t, "the losses to be forgotten", func() bool { return a.suspects.Load() == 0 && b.suspects.Load() == 0 })
	noNotice(t, a)
	noNotice(t, b)
}

// TestTCPDownTieBreak: when both sides dial at once, each closes the
// connection that lost the tie-break. That closure is not a loss while
// the winner lives.
func TestTCPDownTieBreak(t *testing.T) {
	for round := 0; round < 20; round++ {
		ids := []string{"r0", "r1"}
		master := []byte("tie-master")
		a, err := NewTCP("r0", "127.0.0.1:0", nil, auth.NewKeyringFromMaster(master, "r0", ids))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewTCP("r1", "127.0.0.1:0", nil, auth.NewKeyringFromMaster(master, "r1", ids))
		if err != nil {
			t.Fatal(err)
		}
		a.SetPeerAddr("r1", b.Addr())
		b.SetPeerAddr("r0", a.Addr())

		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); _ = a.Send("r1", []byte("from r0")) }()
		go func() { defer wg.Done(); _ = b.Send("r0", []byte("from r1")) }()
		wg.Wait()
		if m := recvWithin(t, a, 5*time.Second); m.Down {
			t.Fatalf("round %d: r0 got a Down notice", round)
		}
		if m := recvWithin(t, b, 5*time.Second); m.Down {
			t.Fatalf("round %d: r1 got a Down notice", round)
		}
		waitFor(t, "one connection per side", func() bool {
			return a.Stats().Conns == 1 && b.Stats().Conns == 1 &&
				a.suspects.Load() == 0 && b.suspects.Load() == 0
		})
		noNotice(t, a)
		noNotice(t, b)
		_ = a.Close()
		_ = b.Close()
	}
}

// TestTCPDownOwnClose: closing our own transport ends every connection
// we hold, reports nobody and leaves no goroutine behind — also when a
// peer's death is being confirmed at that moment.
func TestTCPDownOwnClose(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		a, b, _ := newDownPair(t)
		_ = a.Close()
		noNotice(t, a)
		// b now loses a; close it while its writer confirms.
		_ = b.Close()
		select {
		case m := <-b.Inbox():
			if !m.Down || m.From != "a" {
				t.Fatalf("got %+v", m)
			}
		default:
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPDownClientPeer: a peer without a dial address — a client on an
// ephemeral port — can come and go; there is nothing to confirm against
// and nobody who needs to know.
func TestTCPDownClientPeer(t *testing.T) {
	ids := []string{"srv", "cli"}
	master := []byte("client-master")
	srv, err := NewTCP("srv", "127.0.0.1:0", nil, auth.NewKeyringFromMaster(master, "srv", ids))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewTCP("cli", "127.0.0.1:0", map[string]string{"srv": srv.Addr()},
		auth.NewKeyringFromMaster(master, "cli", ids))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	exchange(t, cli, srv)

	_ = cli.Close()
	waitFor(t, "the client's connection to end", func() bool { return srv.Stats().Conns == 0 })
	waitFor(t, "the loss to be forgotten", func() bool { return srv.suspects.Load() == 0 })
	noNotice(t, srv)
}

// TestTCPDownNotOnTheWire: a notice is made by the receiving transport,
// never decoded. Whatever a frame carries is a payload.
func TestTCPDownNotOnTheWire(t *testing.T) {
	a, b, _ := newDownPair(t)
	for _, payload := range [][]byte{nil, {}, {1}, []byte("Down"), []byte(`{"From":"a","Down":true}`)} {
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
		m := recvWithin(t, b, 5*time.Second)
		if m.Down || m.From != "a" || string(m.Payload) != string(payload) {
			t.Fatalf("payload %q arrived as %+v", payload, m)
		}
	}
	noNotice(t, b)
}
