package main

import (
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"peats/internal/policy"
	"peats/internal/tuple"
)

func TestParsePeers(t *testing.T) {
	got, err := parsePeers("r0=127.0.0.1:7000, r1=127.0.0.1:7001")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["r0"] != "127.0.0.1:7000" || got["r1"] != "127.0.0.1:7001" {
		t.Errorf("got %v", got)
	}
	if _, err := parsePeers("r0:missing-equals"); err == nil {
		t.Error("bad peer accepted")
	}
}

func TestBuildPolicy(t *testing.T) {
	for _, name := range []string{"allow-all", "weak", "lockfree", "strong:4,1"} {
		if _, err := buildPolicy(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"nope", "strong:x", "strong:"} {
		if _, err := buildPolicy(name); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The weak policy actually denies non-cas ops.
	pol, err := buildPolicy("weak")
	if err != nil {
		t.Fatal(err)
	}
	inv := policy.Invocation{Invoker: "p", Op: policy.OpOut, Entry: tuple.T(tuple.Int(1))}
	if pol.Allows(inv, probeState{}) {
		t.Error("weak policy allows out")
	}
}

// TestShutdownDrainsMetricsEndpoint starts a single-replica server
// (f=0) with a live metrics endpoint, scrapes it, then delivers one
// injected signal and asserts that run returns cleanly and that the
// HTTP listener is actually closed afterwards.
func TestShutdownDrainsMetricsEndpoint(t *testing.T) {
	sig := make(chan os.Signal, 1)
	readyCh := make(chan [2]string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(serverConfig{
			id:          "r0",
			listen:      "127.0.0.1:0",
			peers:       "r0=127.0.0.1:0",
			master:      "test-master",
			polName:     "allow-all",
			f:           0,
			shards:      2,
			batch:       8,
			metricsAddr: "127.0.0.1:0",
			signals:     sig,
			ready:       func(ra, ma string) { readyCh <- [2]string{ra, ma} },
		})
	}()

	var metricsAddr string
	select {
	case addrs := <-readyCh:
		metricsAddr = addrs[1]
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	get := func(path string) (string, error) {
		resp, err := http.Get("http://" + metricsAddr + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	body, err := get("/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	for _, want := range []string{"peats_build_info", "peats_bft_view", "peats_space_tuples"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	body, err = get("/status")
	if err != nil {
		t.Fatalf("scrape /status: %v", err)
	}
	for _, want := range []string{`"replica": "r0"`, `"last_view_change": "none"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/status missing %s:\n%s", want, body)
		}
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error on shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after signal")
	}
	close(sig) // unblocks the force-exit goroutine harmlessly

	if _, err := get("/metrics"); err == nil {
		t.Error("metrics endpoint still serving after shutdown")
	}
}

// probeState is an empty StateView for policy probing.
type probeState struct{}

func (probeState) Rdp(tuple.Tuple) (tuple.Tuple, bool) { return tuple.Tuple{}, false }
func (probeState) CountMatching(tuple.Tuple) int       { return 0 }
func (probeState) ForEach(fn func(tuple.Tuple) bool)   {}
