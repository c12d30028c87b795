package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netarch/internal/kb"
	"netarch/internal/sat"
)

// mustDiskEngine builds an engine with the disk tier active in dir.
func mustDiskEngine(t *testing.T, k *kb.KB, dir string) *Engine {
	t.Helper()
	e := mustEngine(t, k)
	if err := e.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	return e
}

// cacheFiles lists the live snapshot files in dir.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+baseSnapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestDiskWarmSkipsCompile is the acceptance assertion: with a primed
// cache dir, the first query of a fresh engine performs zero base
// compiles (Misses == 0) and exactly as many solver invocations as an
// in-memory warm query — i.e. revival skips compile entirely,
// not just partially.
func TestDiskWarmSkipsCompile(t *testing.T) {
	dir := t.TempDir()
	sc := Scenario{Require: []kb.Property{"congestion_control"}}

	prime := mustDiskEngine(t, miniKB(), dir)
	if _, err := prime.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	// Count solver entries on the in-memory warm path for the reference.
	warmSolves := 0
	prime.SetFaultHook(func(e sat.FaultEvent, _ sat.Stats) bool {
		if e == sat.EventSolve {
			warmSolves++
		}
		return false
	})
	if _, err := prime.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	if warmSolves == 0 {
		t.Fatal("fault hook observed no solves on the warm path")
	}

	fresh := mustDiskEngine(t, miniKB(), dir)
	diskSolves := 0
	fresh.SetFaultHook(func(e sat.FaultEvent, _ sat.Stats) bool {
		if e == sat.EventSolve {
			diskSolves++
		}
		return false
	})
	if _, err := fresh.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	st := fresh.CacheStats()
	if st.Misses != 0 {
		t.Errorf("disk-warm first query compiled a base: %+v", st)
	}
	if st.DiskHits != 1 {
		t.Errorf("disk-warm first query should revive exactly one base: %+v", st)
	}
	if diskSolves != warmSolves {
		t.Errorf("disk-warm query ran %d solves, in-memory warm ran %d — revival must add no solver work",
			diskSolves, warmSolves)
	}
}

// corruptions is the version-skew/corruption matrix: each entry mutates a
// valid snapshot file and names the decode error class it must produce.
// The CRC trailer is recomputed for the mutations that target checks
// beyond it (version, KB hash), so each case exercises its own guard.
var corruptions = []struct {
	name    string
	mutate  func(data []byte) []byte
	wantErr error
}{
	{"truncated", func(d []byte) []byte { return d[:len(d)/2] }, ErrSnapshotCorrupt},
	{"bit-flip", func(d []byte) []byte {
		d[len(d)/2] ^= 0x40
		return d
	}, ErrSnapshotCorrupt},
	{"wrong-magic", func(d []byte) []byte {
		d[0] = 'X'
		return reseal(d)
	}, ErrSnapshotCorrupt},
	{"future-version", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[8:], baseSnapshotVersion+7)
		return reseal(d)
	}, ErrSnapshotVersion},
	{"previous-version", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[8:], baseSnapshotVersion-1)
		return reseal(d)
	}, ErrSnapshotVersion},
	{"stale-kb-hash", func(d []byte) []byte {
		d[12] ^= 0xff // first byte of the KB content hash
		return reseal(d)
	}, ErrSnapshotStale},
	{"empty", func(d []byte) []byte { return nil }, ErrSnapshotCorrupt},
}

// reseal recomputes the CRC trailer after a deliberate mutation, so the
// decode proceeds past the integrity check to the guard under test.
func reseal(d []byte) []byte {
	body := d[:len(d)-4]
	binary.LittleEndian.PutUint32(d[len(d)-4:], crc32.ChecksumIEEE(body))
	return d
}

// TestDiskCacheCorruptionMatrix drives each corruption through the full
// cache path: the query must still succeed (clean recompile, never an
// error), and each error class must follow its policy — structural
// corruption quarantines the file and counts DiskCorrupt, a stale KB hash
// leaves the file alone and counts DiskStale.
func TestDiskCacheCorruptionMatrix(t *testing.T) {
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			prime := mustDiskEngine(t, miniKB(), dir)
			if _, err := prime.Synthesize(sc); err != nil {
				t.Fatal(err)
			}
			files := cacheFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("expected one cache file, got %v", files)
			}
			path := files[0]
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			// The mutated bytes must produce the advertised error class.
			shape := baseShape(&sc)
			mutated := tc.mutate(append([]byte(nil), data...))
			verify := mustDiskEngine(t, miniKB(), dir)
			if _, rerr := restoreBaseSlice(verify.KB(), &shape, verify.kbHash, mutated, nil); !errors.Is(rerr, tc.wantErr) {
				t.Fatalf("restoreBaseSlice error = %v, want %v", rerr, tc.wantErr)
			}

			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			fresh := mustDiskEngine(t, miniKB(), dir)
			rep, err := fresh.Synthesize(sc)
			if err != nil {
				t.Fatalf("query over corrupt cache file must recompile, got error: %v", err)
			}
			if rep.Verdict != Feasible {
				t.Fatalf("verdict = %v, want Feasible", rep.Verdict)
			}
			st := fresh.CacheStats()
			stale := errors.Is(tc.wantErr, ErrSnapshotStale)
			if stale {
				// Stale is a policy rejection, not corruption: counted
				// separately and the file stays put (no ".bad" rename).
				if st.DiskStale != 1 || st.DiskCorrupt != 0 || st.Misses != 1 || st.DiskHits != 0 {
					t.Errorf("counters after stale file: %+v (want 1 stale, 0 corrupt, 1 miss/compile)", st)
				}
				if _, err := os.Stat(path + quarantineExt); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("stale file must not be quarantined (stat .bad: %v)", err)
				}
			} else {
				if st.DiskCorrupt != 1 || st.Misses != 1 || st.DiskHits != 0 {
					t.Errorf("counters after corrupt file: %+v (want 1 corrupt, 1 miss/compile, 0 disk hits)", st)
				}
				if _, err := os.Stat(path + quarantineExt); err != nil {
					t.Errorf("corrupt file not quarantined: %v", err)
				}
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				// The recompile re-persists under the same name; what must
				// be gone is the rejected content — quarantine moved it (or
				// the write replaced a stale file in place). Check the live
				// file now restores.
				live, rerr := os.ReadFile(path)
				if rerr != nil {
					t.Fatalf("reading rewritten cache file: %v", rerr)
				}
				if _, rerr := restoreBaseSlice(fresh.KB(), &shape, fresh.kbHash, live, nil); rerr != nil {
					t.Errorf("rewritten cache file does not restore: %v", rerr)
				}
			}
		})
	}
}

// TestDiskCacheStaleKBEndToEnd mutates the knowledge base between
// processes: the snapshot written under the old KB must be rejected as
// stale by an engine over the new KB (same scenario, same file name),
// left un-quarantined, and then replaced in place by the recompile's
// write.
func TestDiskCacheStaleKBEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	prime := mustDiskEngine(t, miniKB(), dir)
	if _, err := prime.Synthesize(sc); err != nil {
		t.Fatal(err)
	}

	changed := miniKB()
	changed.Hardware[0].CostUSD += 100 // content change, same shape
	fresh := mustDiskEngine(t, changed, dir)
	if _, err := fresh.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	st := fresh.CacheStats()
	if st.DiskStale != 1 || st.DiskCorrupt != 0 || st.Misses != 1 {
		t.Errorf("stale-KB snapshot should count stale + recompile without quarantine: %+v", st)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected the stale snapshot to be rewritten in place, got %v", files)
	}
	shape := baseShape(&sc)
	live, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoreBaseSlice(fresh.KB(), &shape, fresh.kbHash, live, nil); err != nil {
		t.Errorf("rewritten snapshot does not restore under the new KB: %v", err)
	}
}

// TestDiskCacheFingerprintMismatch plants a valid snapshot under the
// wrong shape's file name (a hash collision stand-in): the embedded
// fingerprint disagrees, so it must be rejected, quarantined, and
// recompiled — on-disk aliasing would outlive the process.
func TestDiskCacheFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	scA := Scenario{Require: []kb.Property{"congestion_control"}}
	scB := Scenario{NumServers: 8, Require: []kb.Property{"congestion_control"}}
	prime := mustDiskEngine(t, miniKB(), dir)
	if _, err := prime.Synthesize(scA); err != nil {
		t.Fatal(err)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected one cache file, got %v", files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	shapeB := baseShape(&scB)
	pathB := snapshotPath(dir, shapeB.fingerprint())
	if err := os.WriteFile(pathB, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, rerr := restoreBaseSlice(prime.KB(), &shapeB, prime.kbHash, data, nil); !errors.Is(rerr, ErrSnapshotMismatch) {
		t.Fatalf("restoreBaseSlice error = %v, want ErrSnapshotMismatch", rerr)
	}

	fresh := mustDiskEngine(t, miniKB(), dir)
	if _, err := fresh.Synthesize(scB); err != nil {
		t.Fatal(err)
	}
	st := fresh.CacheStats()
	if st.DiskCorrupt != 1 || st.Misses != 1 {
		t.Errorf("aliased snapshot should quarantine + recompile: %+v", st)
	}
	if _, err := os.Stat(pathB + quarantineExt); err != nil {
		t.Errorf("aliased file not quarantined: %v", err)
	}
}

// TestDiskCacheEviction exercises the mtime/count bound: with a limit of
// two files, persisting three shapes must leave two and count evictions.
func TestDiskCacheEviction(t *testing.T) {
	dir := t.TempDir()
	e := mustDiskEngine(t, miniKB(), dir)
	e.diskMaxFiles = 2
	for _, n := range []int{0, 8, 16} {
		if _, err := e.Synthesize(Scenario{NumServers: n}); err != nil {
			t.Fatal(err)
		}
	}
	if files := cacheFiles(t, dir); len(files) != 2 {
		t.Errorf("expected 2 files after eviction, got %d", len(files))
	}
	st := e.CacheStats()
	if st.DiskWrites != 3 || st.DiskEvictions != 1 {
		t.Errorf("expected 3 writes / 1 eviction: %+v", st)
	}
}

// TestDiskCacheDisabledByDefault: without SetCacheDir nothing touches the
// filesystem and every disk counter stays zero.
func TestDiskCacheDisabledByDefault(t *testing.T) {
	e := mustEngine(t, miniKB())
	if _, err := e.Synthesize(Scenario{}); err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.DiskHits+st.DiskMisses+st.DiskWrites+st.DiskEvictions+st.DiskCorrupt+st.DiskStale != 0 {
		t.Errorf("disk counters moved without a cache dir: %+v", st)
	}
}

// TestCacheStatsStringDiskSection pins the -cache-stats rendering of the
// disk counters.
func TestCacheStatsStringDiskSection(t *testing.T) {
	cs := CacheStats{Size: 1, Capacity: 32, Hits: 2, Misses: 1, DiskHits: 3, DiskCorrupt: 1}
	s := cs.String()
	if !strings.Contains(s, "disk: 3 hits") || !strings.Contains(s, "1 corrupt") {
		t.Errorf("disk counters missing from %q", s)
	}
	quiet := CacheStats{Size: 1, Capacity: 32, Hits: 2, Misses: 1}
	if strings.Contains(quiet.String(), "disk:") {
		t.Errorf("disk section rendered with all-zero counters: %q", quiet.String())
	}
}

// FuzzDecodeBase hammers the envelope decoder with mutated base
// snapshots: typed errors only, no panics, no input-amplified
// allocations, and an accepted decode must yield a base whose solver
// answers a (budgeted) probe without faulting.
func FuzzDecodeBase(f *testing.F) {
	k := miniKB()
	e, err := New(k)
	if err != nil {
		f.Fatal(err)
	}
	hash := kbContentHash(k)
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	shape := baseShape(&sc)
	base, err := e.compileBaseWith(e.kbSnapshot(), &shape, nil)
	if err != nil {
		f.Fatal(err)
	}
	valid := snapshotBase(base, hash)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("NABASE"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		c, err := restoreBaseSlice(k, &shape, hash, data, nil)
		if err != nil {
			switch {
			case errors.Is(err, ErrSnapshotCorrupt),
				errors.Is(err, ErrSnapshotVersion),
				errors.Is(err, ErrSnapshotStale),
				errors.Is(err, ErrSnapshotMismatch):
			default:
				t.Fatalf("untyped error from restoreBaseSlice: %v", err)
			}
			return
		}
		c.solver.SetBudget(200, 2000)
		c.solver.SolveAssuming(c.assumptions())
	})
}
