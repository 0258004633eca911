package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"peats/internal/metrics"
)

// fakeReplica serves a registry plus a /status document the way
// peats-server's -metrics-addr endpoint does, and returns the bare
// host:port the admin commands take.
func fakeReplica(t *testing.T, id string) (string, *metrics.Counter) {
	t.Helper()
	reg := metrics.New()
	lbl := metrics.L("replica", id)
	batches := reg.Counter("peats_bft_batches_proposed_total", "Batches.", lbl)
	_ = reg.Counter("peats_bft_requests_executed_total", "Requests.", lbl)
	h := reg.Histogram("peats_bft_batch_fill", "Fill.", metrics.SizeBuckets, lbl)
	h.Observe(3)

	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(reg))
	mux.Handle("/status", metrics.StatusHandler(func() any {
		return map[string]any{
			"replica":          id,
			"view":             1,
			"last_view_change": "primary unreachable",
			"executed":         42,
			"low_water":        16,
			"batches_proposed": 7,
			"log_records":      5,
			"engine":           "indexed",
			"shards":           4,
		}
	}))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://"), batches
}

func TestAdminStatus(t *testing.T) {
	addr, _ := fakeReplica(t, "r0")
	var out strings.Builder
	if err := cmdStatus(&out, []string{addr}); err != nil {
		t.Fatalf("status: %v", err)
	}
	got := out.String()
	for _, want := range []string{"REPLICA", "r0", "42", "indexed/4", "LAST-VIEW-CHANGE", "primary unreachable"} {
		if !strings.Contains(got, want) {
			t.Errorf("status output missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	if err := cmdStatus(&out, []string{"-json", addr}); err != nil {
		t.Fatalf("status -json: %v", err)
	}
	if !strings.Contains(out.String(), `"executed": 42`) {
		t.Errorf("status -json output missing executed:\n%s", out.String())
	}
}

func TestAdminStatusUnreachable(t *testing.T) {
	var out strings.Builder
	if err := cmdStatus(&out, []string{"127.0.0.1:1"}); err != nil {
		t.Fatalf("status should report unreachable endpoints in-line, got error: %v", err)
	}
	if !strings.Contains(out.String(), "unreachable") {
		t.Errorf("status output missing unreachable marker:\n%s", out.String())
	}
}

func TestAdminMetrics(t *testing.T) {
	addr, c := fakeReplica(t, "r0")
	c.Add(9)

	var out strings.Builder
	if err := cmdMetrics(&out, []string{addr}); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "# TYPE peats_bft_batches_proposed_total counter") {
		t.Errorf("metrics output missing TYPE line:\n%s", got)
	}
	if !strings.Contains(got, `peats_bft_batches_proposed_total{replica="r0"} 9`) {
		t.Errorf("metrics output missing counter value:\n%s", got)
	}

	out.Reset()
	if err := cmdMetrics(&out, []string{"-json", addr}); err != nil {
		t.Fatalf("metrics -json: %v", err)
	}
	if !strings.Contains(out.String(), `"name": "peats_bft_batch_fill"`) {
		t.Errorf("metrics -json output missing histogram family:\n%s", out.String())
	}
	// The +Inf bucket must survive the JSON path.
	if !strings.Contains(out.String(), `"le": "+Inf"`) {
		t.Errorf("metrics -json output missing +Inf bucket:\n%s", out.String())
	}
}

func TestAdminTop(t *testing.T) {
	addr0, c0 := fakeReplica(t, "r0")
	addr1, c1 := fakeReplica(t, "r1")

	// Drive one counter between the two samples so top has a rate to
	// rank. The bump goroutine outpaces the 50ms interval comfortably.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				c0.Inc()
				c1.Add(2)
			}
		}
	}()

	var out strings.Builder
	err := cmdTop(&out, []string{"-n", "2", "-interval", "50ms", "-plain", addr0, addr1})
	if err != nil {
		t.Fatalf("top: %v", err)
	}
	got := out.String()
	for _, want := range []string{"REPLICA", "r0", "r1", "peats_bft_batches_proposed_total", "TOTAL"} {
		if !strings.Contains(got, want) {
			t.Errorf("top output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "\x1b[2J") {
		t.Errorf("-plain must not clear the screen:\n%s", got)
	}
}
