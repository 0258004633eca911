package durable

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"peats/internal/space"
	"peats/internal/tuple"
)

// ut builds the test tuple ("u", i).
func ut(i int) tuple.Tuple { return tuple.T(tuple.Str("u"), tuple.Int(int64(i))) }

// mustOpen opens a DB over dir with the given policy and test-friendly
// sizes.
func mustOpen(t *testing.T, dir string, sync SyncPolicy, mods ...func(*Options)) *DB {
	t.Helper()
	opts := Options{Dir: dir, Sync: sync, AutoCompactBytes: -1}
	for _, m := range mods {
		m(&opts)
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// wantPrefix asserts the recovered state is exactly tuples ("u", 1..k)
// under seqs 1..k — the committed-prefix property crash recovery must
// deliver.
func wantPrefix(t *testing.T, rec Recovered, k int) {
	t.Helper()
	if len(rec.Tuples) != k {
		t.Fatalf("recovered %d tuples, want %d", len(rec.Tuples), k)
	}
	for i, st := range rec.Tuples {
		if st.Seq != uint64(i+1) || !st.T.Equal(ut(i+1)) {
			t.Fatalf("recovered[%d] = %v@%d, want %v@%d", i, st.T, st.Seq, ut(i+1), i+1)
		}
	}
}

// storeState is one store's contents as Compact takes the state: in
// sequence order, streamed.
func storeState(st space.Store) func(func(space.SeqTuple) bool) {
	return func(yield func(space.SeqTuple) bool) {
		st.ForEach(func(t tuple.Tuple, seq uint64) bool { return yield(space.SeqTuple{Seq: seq, T: t}) })
	}
}

// segFiles lists the dir's WAL segment paths in index order.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// lastNonEmptySeg returns the newest segment that holds data.
func lastNonEmptySeg(t *testing.T, dir string) string {
	t.Helper()
	paths := segFiles(t, dir)
	for i := len(paths) - 1; i >= 0; i-- {
		if fi, err := os.Stat(paths[i]); err == nil && fi.Size() > 0 {
			return paths[i]
		}
	}
	t.Fatal("no non-empty WAL segment")
	return ""
}

func TestOpenRejectsBadOptions(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("Open accepted an empty data dir")
	}
	if _, err := Open(Options{Dir: t.TempDir(), Sync: "sometimes"}); err == nil {
		t.Error("Open accepted an unknown sync policy")
	}
}

func TestRecoverAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, SyncAlways)
	st := db.NewStore()
	for i := 1; i <= 100; i++ {
		st.Insert(ut(i), uint64(i))
	}
	// Remove a few via the store path so removals are journaled too.
	for i := 1; i <= 10; i++ {
		if _, _, ok := st.Find(ut(i), true); !ok {
			t.Fatalf("find %d failed", i)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, dir, SyncAlways)
	defer db2.Close()
	rec := db2.Recovered()
	if len(rec.Tuples) != 90 || rec.MaxSeq != 100 {
		t.Fatalf("recovered %d tuples maxSeq %d, want 90/100", len(rec.Tuples), rec.MaxSeq)
	}
	for i, stt := range rec.Tuples {
		if want := uint64(i + 11); stt.Seq != want {
			t.Fatalf("recovered[%d].Seq = %d, want %d", i, stt.Seq, want)
		}
	}
}

func TestUnitFramingAtomicAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, SyncAlways)
	st := db.NewStore()

	db.BeginUnit(1)
	st.Insert(ut(1), 1)
	st.Insert(ut(2), 2)
	db.CommitUnit([]byte("a"))

	db.BeginUnit(2)
	st.Insert(ut(3), 3)
	if _, _, ok := st.Find(ut(1), true); !ok {
		t.Fatal("remove failed")
	}
	db.CommitUnit([]byte("b"))

	// A unit begun but never committed must vanish entirely.
	db.BeginUnit(3)
	st.Insert(ut(4), 4)
	db.Crash()

	db2 := mustOpen(t, dir, SyncAlways)
	defer db2.Close()
	rec := db2.Recovered()
	if rec.UnitSeq != 2 {
		t.Fatalf("UnitSeq = %d, want 2", rec.UnitSeq)
	}
	if len(rec.Tuples) != 2 || rec.Tuples[0].Seq != 2 || rec.Tuples[1].Seq != 3 {
		t.Fatalf("recovered %v, want seqs 2,3", rec.Tuples)
	}
	if len(rec.Units) != 2 || rec.Units[0].Seq != 1 || string(rec.Units[0].Extra) != "a" ||
		rec.Units[1].Seq != 2 || string(rec.Units[1].Extra) != "b" {
		t.Fatalf("recovered units %v", rec.Units)
	}
}

func TestGroupCommitCrashLosesOnlyUnsyncedWindow(t *testing.T) {
	dir := t.TempDir()
	// A huge group-commit window: nothing syncs unless Flush does.
	db := mustOpen(t, dir, SyncInterval, func(o *Options) { o.SyncEvery = time.Hour })
	st := db.NewStore()
	for i := 1; i <= 10; i++ {
		st.Insert(ut(i), uint64(i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 20; i++ {
		st.Insert(ut(i), uint64(i))
	}
	db.Crash() // the second ten never reached the disk

	db2 := mustOpen(t, dir, SyncInterval)
	defer db2.Close()
	wantPrefix(t, db2.Recovered(), 10)
}

func TestSyncAlwaysCrashLosesNothing(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, SyncAlways)
	st := db.NewStore()
	for i := 1; i <= 20; i++ {
		st.Insert(ut(i), uint64(i))
	}
	db.Crash()

	db2 := mustOpen(t, dir, SyncAlways)
	defer db2.Close()
	wantPrefix(t, db2.Recovered(), 20)
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, SyncAlways)
	st := db.NewStore()
	for i := 1; i <= 50; i++ {
		st.Insert(ut(i), uint64(i))
	}
	db.Close()

	// A crash mid-write leaves a half-frame at the tail: a plausible
	// header claiming more bytes than follow.
	seg := lastNonEmptySeg(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	grown, _ := os.Stat(seg)

	db2 := mustOpen(t, dir, SyncAlways)
	defer db2.Close()
	wantPrefix(t, db2.Recovered(), 50)
	if fi, err := os.Stat(seg); err != nil || fi.Size() >= grown.Size() {
		t.Fatalf("torn tail not truncated: %d >= %d", fi.Size(), grown.Size())
	}
}

func TestBitFlipBeforeIntactRecordsFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, SyncAlways)
	st := db.NewStore()
	for i := 1; i <= 50; i++ {
		st.Insert(ut(i), uint64(i))
	}
	db.Close()

	seg := lastNonEmptySeg(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit three quarters of the way in: intact, acknowledged
	// records follow the damage, so this cannot be a torn tail —
	// recovery must refuse rather than silently drop them.
	pos := len(data) * 3 / 4
	data[pos] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open silently dropped acknowledged records after a damaged one")
	}
}

func TestBitFlipInFinalRecordTruncatesToCommittedPrefix(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, SyncAlways)
	st := db.NewStore()
	for i := 1; i <= 50; i++ {
		st.Insert(ut(i), uint64(i))
	}
	db.Close()

	// Damage inside the very last record — indistinguishable from a
	// crash that half-wrote it: recovery lands on the unit boundary
	// before it, an earlier committed state.
	seg := lastNonEmptySeg(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, dir, SyncAlways)
	defer db2.Close()
	wantPrefix(t, db2.Recovered(), 49)
}

func TestBitFlipMidLogFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a multi-segment log.
	db := mustOpen(t, dir, SyncAlways, func(o *Options) { o.SegmentBytes = 256 })
	st := db.NewStore()
	for i := 1; i <= 200; i++ {
		st.Insert(ut(i), uint64(i))
	}
	db.Close()

	segs := segFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a corrupt mid-log segment")
	}
}

func TestMissingSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, SyncAlways, func(o *Options) { o.SegmentBytes = 256 })
	st := db.NewStore()
	for i := 1; i <= 200; i++ {
		st.Insert(ut(i), uint64(i))
	}
	db.Close()

	segs := segFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a log with a missing segment")
	}
}

func TestCompactionBoundsDiskAndSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, SyncNever, func(o *Options) { o.SegmentBytes = 1 << 10 })
	st := db.NewStore()
	seq := uint64(0)
	unit := uint64(0)
	churn := func(n int) {
		for i := 0; i < n; i++ {
			unit++
			db.BeginUnit(unit)
			seq++
			st.Insert(ut(int(seq)), seq)
			if seq > 1 {
				st.Find(ut(int(seq-1)), true) // keep the live set at 1
			}
			db.CommitUnit(nil)
		}
	}
	churn(500)
	if segs, _, _ := db.DiskUsage(); segs < 2 {
		t.Fatalf("expected several segments before compaction, got %d", segs)
	}
	if err := db.Compact(unit, []byte("extra"), storeState(st), true); err != nil {
		t.Fatal(err)
	}
	segsAfter, bytesAfter, err := db.DiskUsage()
	if err != nil {
		t.Fatal(err)
	}
	if segsAfter != 1 {
		t.Fatalf("compaction left %d segments, want 1", segsAfter)
	}
	if bytesAfter > 4<<10 {
		t.Fatalf("compaction left %d bytes on disk", bytesAfter)
	}
	churn(100)
	db.Close()

	db2 := mustOpen(t, dir, SyncNever)
	defer db2.Close()
	rec := db2.Recovered()
	if len(rec.Tuples) != 1 || rec.Tuples[0].Seq != seq {
		t.Fatalf("recovered %v, want single live tuple at seq %d", rec.Tuples, seq)
	}
	if rec.UnitSeq != unit {
		t.Fatalf("recovered unit %d, want %d", rec.UnitSeq, unit)
	}
	if string(rec.BaseExtra) != "extra" {
		t.Fatalf("recovered base extra %q", rec.BaseExtra)
	}
	// The 100 post-compaction units replay from the log.
	if len(rec.Units) != 100 {
		t.Fatalf("recovered %d units, want 100", len(rec.Units))
	}
}

func TestAutoCompactionKeepsDiskBoundedUnderSustainedLoad(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, SyncNever, func(o *Options) {
		o.SegmentBytes = 1 << 10
		o.AutoCompactBytes = 4 << 10
	})
	st := db.NewStore()
	for i := 1; i <= 5000; i++ {
		st.Insert(ut(i), uint64(i))
		if i > 1 {
			st.Find(ut(i-1), true)
		}
		if i%500 == 0 {
			if _, bytes, err := db.DiskUsage(); err != nil || bytes > 64<<10 {
				t.Fatalf("disk grew to %d bytes at op %d (err %v)", bytes, i, err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpen(t, dir, SyncNever)
	defer db2.Close()
	rec := db2.Recovered()
	if len(rec.Tuples) != 1 || rec.Tuples[0].Seq != 5000 {
		t.Fatalf("recovered %v, want single live tuple at seq 5000", rec.Tuples)
	}
}

// TestSpaceLevelRecovery drives a real sharded space over the durable
// engine, restarts it, and checks the recovered space carries on with
// the sequence numbering the log recorded.
func TestSpaceLevelRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() (*space.Space, *DB) {
		db := mustOpen(t, dir, SyncAlways)
		sp, err := space.NewShardedFactory(4, func(int) (space.Store, error) { return db.NewStore(), nil })
		if err != nil {
			t.Fatal(err)
		}
		db.StartLoad()
		if err := sp.Install(db.Recovered().Tuples); err != nil {
			t.Fatal(err)
		}
		db.EndLoad()
		return sp, db
	}

	sp, db := open()
	for i := 1; i <= 30; i++ {
		if err := sp.Out(ut(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := sp.Inp(tuple.T(tuple.Str("u"), tuple.Int(7))); !ok {
		t.Fatal("inp failed")
	}
	db.Crash()

	sp2, db2 := open()
	defer db2.Close()
	if sp2.Len() != 29 {
		t.Fatalf("recovered space has %d tuples, want 29", sp2.Len())
	}
	if _, ok := sp2.Rdp(tuple.T(tuple.Str("u"), tuple.Int(7))); ok {
		t.Fatal("removed tuple resurrected")
	}
	// New inserts continue above the recovered numbering: insertion
	// order (and so match order) is preserved across the restart.
	if err := sp2.Out(ut(7)); err != nil {
		t.Fatal(err)
	}
	got, ok := sp2.Rdp(tuple.T(tuple.Str("u"), tuple.Any()))
	if !ok || !got.Equal(ut(1)) {
		t.Fatalf("first match after restart = %v, want %v", got, ut(1))
	}
	// And a Restore through the plain store path (no replication hooks)
	// is journaled, so it survives another restart.
	sp2.Restore([]tuple.Tuple{ut(100), ut(101)})
	db2.Close()

	sp3, db3 := open()
	defer db3.Close()
	if sp3.Len() != 2 {
		t.Fatalf("restored space has %d tuples after restart, want 2", sp3.Len())
	}
	if _, ok := sp3.Rdp(tuple.T(tuple.Str("u"), tuple.Int(100))); !ok {
		t.Fatal("restored tuple missing after restart")
	}
}

// snapFiles lists the dir's snapshot paths.
func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// fileSize stats one file.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestCompactionWaitsForTheLogToOutgrowTheSnapshot pins the compaction
// rule at the boundary calls the replication layer makes: skipped while
// the log written since the last snapshot is shorter than it, taken
// once it is not — which keeps the directory within two snapshots and a
// segment, and a compaction's cost in proportion to what was logged.
func TestCompactionWaitsForTheLogToOutgrowTheSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, SyncNever)
	defer db.Close()
	st := db.NewStore()
	seq, unit := uint64(0), uint64(0)
	// toggle replaces one resident tuple per unit: the state keeps its
	// size while the log grows.
	toggle := func(n int) {
		for i := 0; i < n; i++ {
			unit++
			db.BeginUnit(unit)
			seq++
			st.Insert(ut(int(seq)), seq)
			st.Find(ut(int(seq-200)), true)
			db.CommitUnit([]byte("table-update"))
		}
	}
	boundary := func() (snap string) {
		t.Helper()
		if err := db.Compact(unit, []byte("table"), storeState(st), false); err != nil {
			t.Fatal(err)
		}
		snaps := snapFiles(t, dir)
		if len(snaps) != 1 {
			t.Fatalf("want exactly one snapshot, have %v", snaps)
		}
		segs, bytes, err := db.DiskUsage()
		if err != nil {
			t.Fatal(err)
		}
		if limit := 2*fileSize(t, snaps[0]) + 2048; segs != 1 || bytes > limit {
			t.Fatalf("disk: %d segments, %d bytes; want one segment within %d", segs, bytes, limit)
		}
		return snaps[0]
	}
	for i := 0; i < 200; i++ { // the resident set
		seq++
		st.Insert(ut(int(seq)), seq)
	}
	first := boundary() // nothing to outgrow yet: taken
	snapLen := fileSize(t, first)

	taken, skipped := 0, 0
	for round := 0; round < 40; round++ {
		toggle(16)
		logged := fileSize(t, segFiles(t, dir)[0]) + int64(len(db.buf))
		before := snapFiles(t, dir)[0]
		after := boundary()
		switch {
		case after == before && logged >= snapLen:
			t.Fatalf("round %d: %d bytes logged over a %d-byte snapshot, not compacted", round, logged, snapLen)
		case after != before && logged < snapLen:
			t.Fatalf("round %d: compacted with %d bytes logged over a %d-byte snapshot", round, logged, snapLen)
		case after == before:
			skipped++
		default:
			taken++
			snapLen = fileSize(t, after)
		}
	}
	if taken < 2 || skipped < 2*taken {
		t.Fatalf("%d compactions taken, %d skipped", taken, skipped)
	}
}

// TestSkippedCompactionsRecoverLikeEagerOnes crashes two engines fed
// the same units — one folding its log at every boundary, one only when
// the rule says so — and requires the same recovered tuples, sequence
// counter, unit position and folded extra blobs from both.
func TestSkippedCompactionsRecoverLikeEagerOnes(t *testing.T) {
	run := func(force bool) (Recovered, string) {
		dir := t.TempDir()
		db := mustOpen(t, dir, SyncAlways)
		st := db.NewStore()
		seq := uint64(0)
		for ; seq < 300; seq++ { // a resident set the units below barely change
			st.Insert(ut(int(seq+1)), seq+1)
		}
		if err := db.Compact(0, nil, storeState(st), true); err != nil {
			t.Fatal(err)
		}
		for unit := uint64(1); unit <= 90; unit++ {
			db.BeginUnit(unit)
			seq++
			st.Insert(ut(int(seq)), seq)
			if unit%3 != 0 {
				st.Find(ut(int(seq-2)), true)
			}
			db.CommitUnit([]byte{byte(unit)})
			if unit%8 == 0 {
				// The extra at a boundary is the fold of every unit's so far.
				if err := db.Compact(unit, []byte{byte(unit)}, storeState(st), force); err != nil {
					t.Fatal(err)
				}
			}
		}
		db.Crash()
		db2 := mustOpen(t, dir, SyncAlways)
		defer db2.Close()
		rec := db2.Recovered()
		folded := rec.BaseExtra
		for _, u := range rec.Units {
			folded = u.Extra // a unit's extra replaces the table in this model
		}
		return rec, string(folded)
	}
	eager, eagerTable := run(true)
	lazy, lazyTable := run(false)
	if len(lazy.Units) <= len(eager.Units) {
		t.Fatalf("the rule skipped nothing: %d units to replay against %d", len(lazy.Units), len(eager.Units))
	}
	if lazy.MaxSeq != eager.MaxSeq || lazy.UnitSeq != eager.UnitSeq || lazyTable != eagerTable {
		t.Fatalf("recovered (maxSeq %d, unit %d, table %x), eager (%d, %d, %x)",
			lazy.MaxSeq, lazy.UnitSeq, lazyTable, eager.MaxSeq, eager.UnitSeq, eagerTable)
	}
	if len(lazy.Tuples) != len(eager.Tuples) {
		t.Fatalf("recovered %d tuples, eager %d", len(lazy.Tuples), len(eager.Tuples))
	}
	for i, st := range lazy.Tuples {
		if st.Seq != eager.Tuples[i].Seq || !st.T.Equal(eager.Tuples[i].T) {
			t.Fatalf("tuple %d: %v@%d, eager %v@%d", i, st.T, st.Seq, eager.Tuples[i].T, eager.Tuples[i].Seq)
		}
	}
}

// TestRecoveryCountsTheReplayedLog: the log a reopened engine replayed
// still counts toward the next compaction, so restarts cannot let it
// grow without bound under a snapshot it has long outgrown.
func TestRecoveryCountsTheReplayedLog(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, SyncAlways)
	st := db.NewStore()
	st.Insert(ut(1), 1)
	if err := db.Compact(0, nil, storeState(st), false); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(2); seq <= 40; seq++ {
		st.Insert(ut(int(seq)), seq)
	}
	db.Close()

	db2 := mustOpen(t, dir, SyncAlways)
	defer db2.Close()
	before := snapFiles(t, dir)
	sp, err := space.NewShardedFactory(1, func(int) (space.Store, error) { return db2.NewStore(), nil })
	if err != nil {
		t.Fatal(err)
	}
	db2.StartLoad()
	err = sp.Install(db2.Recovered().Tuples)
	db2.EndLoad()
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Compact(0, nil, sp.ForEachSeq, false); err != nil {
		t.Fatal(err)
	}
	if after := snapFiles(t, dir); len(after) != 1 || after[0] == before[0] {
		t.Fatalf("reopened engine forgot the %d mutations it replayed: snapshot still %v", 39, after)
	}
}
