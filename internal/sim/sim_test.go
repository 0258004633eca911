package sim

import (
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"peats/internal/transport"
)

// sweepSeeds is the per-family seed count for the scenario sweeps:
// defaultSweepSeeds (build-tag sized for the race detector) unless
// PEATS_SIM_SEEDS overrides — CI and soak runs raise it to thousands.
func sweepSeeds() int {
	if v := os.Getenv("PEATS_SIM_SEEDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return defaultSweepSeeds
}

// TestDeterministicReplay pins the property the whole explorer rests
// on: the same (schedule, seed) pair reproduces the identical run —
// byte-identical event trace, final state digest, executed count and
// event count — so a failing seed from a sweep replays exactly.
func TestDeterministicReplay(t *testing.T) {
	for _, name := range CannedNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := RunSeed(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunSeed(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			if a.Trace != b.Trace {
				t.Errorf("trace diverged across replays: %x vs %x", a.Trace, b.Trace)
			}
			if a.StateDigest != b.StateDigest {
				t.Errorf("state digest diverged: %x vs %x", a.StateDigest, b.StateDigest)
			}
			if a.Executed != b.Executed || a.Events != b.Events {
				t.Errorf("replay drift: executed %d/%d events %d/%d",
					a.Executed, b.Executed, a.Events, b.Events)
			}
			if a.Failed() != b.Failed() {
				t.Errorf("verdict diverged: %v vs %v", a.Err, b.Err)
			}
		})
	}
}

// sweepFamily drives one canned schedule family across sweepSeeds()
// consecutive seeds and fails with the exact seed, full schedule and
// greedily minimized schedule for anything that breaks an invariant.
func sweepFamily(t *testing.T, name string) {
	n := sweepSeeds()
	fails, events := Sweep(name, 1, n, runtime.NumCPU())
	t.Logf("%s: %d seeds, %d loop events, %d failures (replay: peats-sim -schedule %s -replay <seed>)",
		name, n, events, len(fails), name)
	for i, f := range fails {
		if i == 3 {
			t.Errorf("... and %d more failing seeds", len(fails)-3)
			break
		}
		min := Minimize(f.Schedule)
		t.Errorf("seed %d: %v\n  schedule:  %s\n  minimized: %s",
			f.Schedule.Seed, f.Err, f.Schedule, min)
	}
}

// The four scenario suites below are the sim-schedule ports of the
// real-time cluster tests (view-change mid-batch, partition heal,
// crash-during-state-transfer, coordinator crash mid-2PC): instead of
// one hand-built interleaving per run they sweep hundreds to thousands
// of seeded adversarial interleavings per family, under virtual time.

func TestViewChangeStormSchedules(t *testing.T)   { sweepFamily(t, "viewstorm") }
func TestPartitionHealRaceSchedules(t *testing.T) { sweepFamily(t, "partition") }
func TestCrashDuringStateTransfer(t *testing.T)   { sweepFamily(t, "crashrestart") }
func TestCoordinatorCrashMid2PC(t *testing.T)     { sweepFamily(t, "twopc") }
func TestMixedFaultSchedules(t *testing.T)        { sweepFamily(t, "mixed") }

// TestMinimizeStripsIrrelevantFaults pins the schedule minimizer.
// Crashing two replicas forever destroys the 2f+1 quorum, a liveness
// failure no heal can cure; the drop, reorder, partition and Byzantine
// dimensions are irrelevant to it. The minimizer must keep both
// crashes (removing either restores quorum) and strip everything else.
func TestMinimizeStripsIrrelevantFaults(t *testing.T) {
	s := Schedule{
		Name:        "minpin",
		Seed:        1,
		DropProb:    0.2,
		ReorderProb: 0.2,
		ReorderMax:  20 * time.Millisecond,
		DelayMin:    time.Millisecond,
		DelayMax:    3 * time.Millisecond,
		Horizon:     200 * time.Millisecond,
		Partitions: []Partition{
			{At: 50 * time.Millisecond, HealAt: 100 * time.Millisecond, Minority: []int{0}},
		},
		Crashes: []Crash{
			{Replica: 1, At: 5 * time.Millisecond},
			{Replica: 2, At: 10 * time.Millisecond},
		},
		NumByzantine: 1,
	}
	if !Run(s).Failed() {
		t.Fatal("losing two of four replicas forever should be a liveness failure")
	}
	m := Minimize(s)
	if len(m.Crashes) != 2 {
		t.Errorf("minimizer dropped a crash the failure depends on: %s", m)
	}
	if m.DropProb != 0 || m.ReorderProb != 0 || len(m.Partitions) != 0 || m.NumByzantine != 0 {
		t.Errorf("minimizer kept irrelevant faults: %s", m)
	}
	if !Run(m).Failed() {
		t.Error("minimized schedule no longer fails")
	}
}

// TestCrashSendsDownNotices pins the simulated network's half of the
// connection-loss detector: a node that goes down is reported to every
// other live node one link delay later — the notice a real transport
// makes when the node's connections end — and to nobody if it is back
// before then, the case where the real transport's confirming redial
// succeeds.
func TestCrashSendsDownNotices(t *testing.T) {
	sched := Schedule{DelayMin: time.Millisecond, DelayMax: 3 * time.Millisecond}
	run := func(backAfter time.Duration) map[string][]transport.Inbound {
		loop := NewLoop()
		net := NewNet(loop, rand.New(rand.NewSource(1)), &sched)
		got := make(map[string][]transport.Inbound)
		for _, id := range []string{"r0", "r1", "c0"} {
			id := id
			net.Register(id, func(m transport.Inbound) { got[id] = append(got[id], m) })
		}
		net.Register("r2", nil) // already crashed: no handler, marked down
		net.slots["r2"].down = true
		net.SetDown("r0", true)
		if backAfter > 0 {
			loop.After(backAfter, func() { net.SetDown("r0", false) })
		}
		loop.RunUntil(epoch.Add(time.Second))
		return got
	}

	got := run(0)
	for _, id := range []string{"r1", "c0"} {
		if len(got[id]) != 1 || !got[id][0].Down || got[id][0].From != "r0" || got[id][0].Payload != nil {
			t.Errorf("%s received %+v, want one Down notice for r0", id, got[id])
		}
	}
	if len(got["r0"]) != 0 || len(got["r2"]) != 0 {
		t.Errorf("down nodes were notified: r0 %+v, r2 %+v", got["r0"], got["r2"])
	}
	if got := run(time.Microsecond); len(got) != 0 {
		t.Errorf("a node back within the link delay was still reported: %+v", got)
	}
}
