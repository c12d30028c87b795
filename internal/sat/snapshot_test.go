package sat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// snapshotStates enumerates solver states worth snapshotting: pristine,
// reduced (learnts reduceDB deleted still in the arena and watch lists),
// post-Solve (learnts, activities, saved phases), and
// top-level-contradictory.
func snapshotStates(t *testing.T) map[string]*Solver {
	t.Helper()
	states := make(map[string]*Solver)

	fresh := NewSolver()
	satInstance(fresh)
	states["fresh"] = fresh

	reduced := NewSolver()
	if !deletedLearnts(reduced) {
		t.Fatalf("reduced: setup left no deleted clauses in the arena (deleted %d)", reduced.Stats().Deleted)
	}
	states["reduced"] = reduced

	solved := NewSolver()
	php(solved, 5)
	if st := solved.Solve(); st != Unsat {
		t.Fatalf("php(6,5): got %v, want Unsat", st)
	}
	states["solved"] = solved

	solvedSat := NewSolver()
	satInstance(solvedSat)
	if st := solvedSat.Solve(); st != Sat {
		t.Fatalf("satInstance: got %v, want Sat", st)
	}
	states["solved-sat"] = solvedSat

	contradictory := NewSolver()
	contradictory.AddClause(1)
	contradictory.AddClause(-1)
	states["contradictory"] = contradictory

	return states
}

// TestSnapshotRestoreSolvesIdentically is the restore-equivalence
// differential: a restored solver must behave exactly like a Clone of the
// original — same statuses, same models, same search statistics — across
// the representative solver states.
func TestSnapshotRestoreSolvesIdentically(t *testing.T) {
	for name, s := range snapshotStates(t) {
		t.Run(name, func(t *testing.T) {
			clone := s.Clone()
			restored, err := RestoreSnapshot(s.Snapshot())
			if err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}
			assumps := [][]Lit{nil, {-1}, {1, 7}}
			if s.NumVars() < 7 {
				assumps = [][]Lit{nil, {-1}, {1}}
			}
			for _, as := range assumps {
				stC := clone.SolveAssuming(as)
				stR := restored.SolveAssuming(as)
				if stC != stR {
					t.Fatalf("assuming %v: clone %v, restored %v", as, stC, stR)
				}
				if !reflect.DeepEqual(clone.Model(), restored.Model()) {
					t.Fatalf("assuming %v: models differ\nclone    %v\nrestored %v",
						as, clone.Model(), restored.Model())
				}
				if !reflect.DeepEqual(clone.FinalConflict(), restored.FinalConflict()) {
					t.Fatalf("assuming %v: final conflicts differ: clone %v, restored %v",
						as, clone.FinalConflict(), restored.FinalConflict())
				}
				if clone.Stats() != restored.Stats() {
					t.Fatalf("assuming %v: search diverged: clone %+v, restored %+v",
						as, clone.Stats(), restored.Stats())
				}
			}
		})
	}
}

// TestSnapshotDeterministic: the same solver state must serialize to the
// same bytes, and a restored solver must re-serialize to those bytes —
// snapshots are canonical, which the disk cache's CRC story relies on.
func TestSnapshotDeterministic(t *testing.T) {
	for name, s := range snapshotStates(t) {
		t.Run(name, func(t *testing.T) {
			snap := s.Snapshot()
			if again := s.Snapshot(); !bytes.Equal(snap, again) {
				t.Fatalf("two snapshots of one state differ (%d vs %d bytes)", len(snap), len(again))
			}
			restored, err := RestoreSnapshot(snap)
			if err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}
			if resnap := restored.Snapshot(); !bytes.Equal(snap, resnap) {
				t.Fatalf("restored solver re-serializes differently (%d vs %d bytes)", len(snap), len(resnap))
			}
		})
	}
}

// TestSnapshotIndependence: mutating a restored solver must not leak into
// the original (they share no clause storage).
func TestSnapshotIndependence(t *testing.T) {
	a := NewSolver()
	satInstance(a)
	restored, err := RestoreSnapshot(a.Snapshot())
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	restored.AddClause(-1)
	restored.AddClause(-2)
	restored.AddClause(-3)
	if st := restored.Solve(); st != Unsat {
		t.Fatalf("restored with extra clauses: got %v, want Unsat", st)
	}
	if st := a.Solve(); st != Sat {
		t.Fatalf("original after restored mutated: got %v, want Sat", st)
	}
}

func TestSnapshotPanicsAboveLevelZero(t *testing.T) {
	s := NewSolver()
	satInstance(s)
	s.trailLim = append(s.trailLim, len(s.trail)) // simulate an open decision level
	defer func() {
		if recover() == nil {
			t.Fatalf("Snapshot above level 0 did not panic")
		}
	}()
	s.Snapshot()
}

// TestRestoreSnapshotRejectsTruncation: every proper prefix of a valid
// snapshot must fail with ErrBadSnapshot — never panic, never succeed.
func TestRestoreSnapshotRejectsTruncation(t *testing.T) {
	s := NewSolver()
	satInstance(s)
	s.Solve()
	snap := s.Snapshot()
	for n := 0; n < len(snap); n++ {
		if _, err := RestoreSnapshot(snap[:n]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("prefix of %d/%d bytes: got err %v, want ErrBadSnapshot", n, len(snap), err)
		}
	}
	// Trailing garbage is also rejected: the format is self-delimiting.
	if _, err := RestoreSnapshot(append(append([]byte{}, snap...), 0)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("trailing byte: got err %v, want ErrBadSnapshot", err)
	}
}

// TestRestoreSnapshotOOMGuard: hostile length prefixes must be rejected
// before any allocation proportional to the claimed (not actual) size.
func TestRestoreSnapshotOOMGuard(t *testing.T) {
	// A header that declares ~2^50 variables in a few dozen bytes.
	huge := binary.LittleEndian.AppendUint32(nil, snapshotVersion)
	huge = binary.AppendUvarint(huge, 1<<50)
	if _, err := RestoreSnapshot(huge); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("huge nVars: got err %v, want ErrBadSnapshot", err)
	}

	// A plausible small header followed by a clause section that claims
	// 2^40 clauses.
	s := NewSolver()
	satInstance(s)
	snap := s.Snapshot()
	r := &snapReader{b: snap}
	r.u32("version")
	r.uvarint("nVars")
	r.byte("okay")
	r.uvarint("qhead")
	for i := 0; i < 4; i++ {
		r.f64("scalar")
	}
	forged := append([]byte{}, snap[:r.off]...)
	forged = binary.AppendUvarint(forged, 1<<40)
	if _, err := RestoreSnapshot(forged); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("huge clause count: got err %v, want ErrBadSnapshot", err)
	}
}

func TestRestoreSnapshotRejectsWrongVersion(t *testing.T) {
	s := NewSolver()
	satInstance(s)
	snap := s.Snapshot()
	// Both directions of skew must be rejected up front: a future format
	// this decoder has never seen, the v3 layout that kept binary
	// clauses in the arena behind four-word headers, and the v1
	// per-clause layout that the arena rewrite (v2) replaced — an older
	// body read as the current layout would be garbage, so the version
	// gate is the only line of defense.
	for _, v := range []uint32{snapshotVersion + 1, snapshotVersion - 1, 1} {
		binary.LittleEndian.PutUint32(snap, v)
		if _, err := RestoreSnapshot(snap); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("version %d: got err %v, want ErrBadSnapshot", v, err)
		}
	}
}

// binaryReasons builds a solver whose level-0 trail holds literals
// implied by binary clauses: the unit 1 implies 2 through (¬1 ∨ 2), and
// 2 implies 3 through (¬2 ∨ 3). Variable 4 stays unassigned.
func binaryReasons() *Solver {
	s := NewSolver()
	s.EnsureVars(5)
	s.AddClause(-1, 2)
	s.AddClause(-2, 3)
	s.AddClause(4, 5, -3)
	s.AddClause(1)
	return s
}

// malformedBinarySnapshots returns snapshots that break the binary-clause
// invariants RestoreSnapshot checks, each written by the encoder from a
// solver whose state was damaged by hand.
func malformedBinarySnapshots() map[string][]byte {
	out := map[string][]byte{}
	damage := func(name string, f func(s *Solver)) {
		s := NewSolver()
		satInstance(s)
		f(s)
		out[name] = s.Snapshot()
	}
	// (¬1 ∨ 2) watched in ¬¬1 = 1's list only.
	damage("unmirrored", func(s *Solver) {
		s.watches.push(toInternal(1), watcher{crefBinary, toInternal(2)})
	})
	damage("learnt-mirror-of-problem", func(s *Solver) {
		s.watches.push(toInternal(1), watcher{crefBinary, toInternal(2)})
		s.watches.push(toInternal(-2), watcher{crefBinary | binLearnt, toInternal(-1)})
	})
	damage("blocker-out-of-range", func(s *Solver) {
		b := lit(2*s.nVars + 3)
		s.watches.push(toInternal(1), watcher{crefBinary, b})
	})
	damage("own-variable-list", func(s *Solver) {
		s.watches.push(toInternal(1), watcher{crefBinary, toInternal(-1)})
		s.watches.push(toInternal(1), watcher{crefBinary, toInternal(-1)})
	})
	// The shared implication table of a frozen solver: satInstance's
	// binaries, with one implication of 1 appended by hand.
	damageTable := func(name string, q lit) {
		s := NewSolver()
		satInstance(s)
		s.ResetRun()
		out[name] = withImplication(s, toInternal(1), q)
	}
	damageTable("table-literal-out-of-range", lit(2*12+3))
	damageTable("table-unmirrored", toInternal(2))        // (¬1 ∨ 2) under 1 only
	damageTable("table-self-implication", toInternal(-1)) // 1 implies ¬1
	s := binaryReasons()
	s.reason[2] = reasonBinary(toInternal(4)) // variable 3's reason names unassigned 4
	out["reason-unassigned"] = s.Snapshot()
	s = binaryReasons()
	s.reason[2] = reasonBinary(toInternal(2)) // a true literal cannot be a reason's other literal
	out["reason-true"] = s.Snapshot()
	return out
}

// withImplication returns the snapshot of s with q appended to p's list
// in a copy of s's implication table; s's own table is not written.
func withImplication(s *Solver, p, q lit) []byte {
	t := s.bins
	off := slices.Clone(t.off)
	imp := slices.Insert(slices.Clone(t.imp), int(off[p+1]), q)
	for i := int(p) + 1; i < len(off); i++ {
		off[i]++
	}
	s.bins = &implTable{off: off, imp: imp}
	defer func() { s.bins = t }()
	return s.Snapshot()
}

// TestRestoreSnapshotRejectsMalformedBinaries: every broken binary-clause
// invariant is a typed error, and the undamaged states restore.
func TestRestoreSnapshotRejectsMalformedBinaries(t *testing.T) {
	for name, snap := range malformedBinarySnapshots() {
		if _, err := RestoreSnapshot(snap); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: got err %v, want ErrBadSnapshot", name, err)
		}
	}
	s := binaryReasons()
	if len(s.trail) != 3 || s.reason[2] != reasonBinary(toInternal(-2)) {
		t.Fatalf("setup: trail %v, reason of 3 %x; want 1, 2, 3 implied through binaries", s.trail, s.reason[2])
	}
	if _, err := RestoreSnapshot(s.Snapshot()); err != nil {
		t.Fatalf("intact binary reasons: %v", err)
	}
	frozen := NewSolver()
	satInstance(frozen)
	frozen.ResetRun()
	snap := frozen.Snapshot()
	restored, err := RestoreSnapshot(snap)
	if err != nil {
		t.Fatalf("intact implication table: %v", err)
	}
	if !bytes.Equal(restored.Snapshot(), snap) || restored.NumClauses() != frozen.NumClauses() {
		t.Fatal("the implication table does not round-trip")
	}
}

// restoreBudgetedProbe solve-checks a restored solver under a tight budget
// so fuzz inputs that restore successfully can't stall the fuzzer.
func restoreBudgetedProbe(s *Solver) {
	if s.NumVars() > 1<<12 {
		return
	}
	s.SetBudget(200, 2000)
	s.Solve()
}

// FuzzRestoreSnapshot hammers the decoder with mutated snapshots. The
// contract under arbitrary bytes: a typed error or a structurally sound
// solver — never a panic, never an input-amplifying allocation. When the
// decode succeeds, the restored solver must survive a (budgeted) solve
// and re-serialize to bytes that restore again.
func FuzzRestoreSnapshot(f *testing.F) {
	seed := func(build func(s *Solver)) {
		s := NewSolver()
		build(s)
		f.Add(s.Snapshot())
	}
	seed(func(s *Solver) { satInstance(s) })
	seed(func(s *Solver) {
		if !deletedLearnts(s) {
			f.Fatalf("seed setup left no deleted clauses in the arena (deleted %d)", s.Stats().Deleted)
		}
	})
	seed(func(s *Solver) {
		php(s, 4)
		s.Solve()
	})
	seed(func(s *Solver) {
		s.AddClause(1)
		s.AddClause(-1)
	})
	seed(func(s *Solver) {}) // empty solver
	// Binary reasons on the level-0 trail, and learnt binaries beside
	// problem ones.
	f.Add(binaryReasons().Snapshot())
	seed(func(s *Solver) {
		r := rand.New(rand.NewSource(5))
		nVars, clauses, _ := binaryHeavyInstance(r, 16, 2, 4.4)
		s.EnsureVars(nVars)
		loadClauses(s, clauses)
		s.SetBudget(40, 0)
		s.Solve()
		if s.nLearntBin == 0 {
			f.Fatal("seed setup learnt no binary clause")
		}
	})
	// A frozen binary-heavy solver: its problem binaries are in the
	// shared implication table.
	seed(func(s *Solver) {
		r := rand.New(rand.NewSource(7))
		nVars, clauses, _ := binaryHeavyInstance(r, 16, 2, 4.4)
		s.EnsureVars(nVars)
		loadClauses(s, clauses)
		s.SetBudget(40, 0)
		s.Solve()
		s.ResetRun()
		if s.bins == nil {
			f.Fatal("seed setup froze no implication table")
		}
	})
	for _, snap := range malformedBinarySnapshots() {
		f.Add(snap)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		s, err := RestoreSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("non-typed error from RestoreSnapshot: %v", err)
			}
			if s != nil {
				t.Fatalf("RestoreSnapshot returned both a solver and an error")
			}
			return
		}
		// The decode accepted the bytes, so they describe a structurally
		// valid level-0 solver; solving it must not fault.
		restoreBudgetedProbe(s)
		// And the accepted state must round-trip.
		resnap := s.Snapshot()
		if _, err := RestoreSnapshot(resnap); err != nil {
			t.Fatalf("re-snapshot of accepted input failed to restore: %v", err)
		}
	})
}
