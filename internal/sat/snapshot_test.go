package sat

import (
	"bytes"
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

// TestSnapshotDeterministic: the same solver state must serialize to the
// same bytes, and a Clone, which relates to its source exactly, must
// serialize to those bytes too — snapshots are canonical, which every
// test that compares solver states by their snapshots relies on.
func TestSnapshotDeterministic(t *testing.T) {
	for name, s := range snapshotStates(t) {
		t.Run(name, func(t *testing.T) {
			snap := s.Snapshot()
			if again := s.Snapshot(); !bytes.Equal(snap, again) {
				t.Fatalf("two snapshots of one state differ (%d vs %d bytes)", len(snap), len(again))
			}
			if cloned := s.Clone().Snapshot(); !bytes.Equal(snap, cloned) {
				t.Fatalf("a clone serializes differently (%d vs %d bytes)", len(snap), len(cloned))
			}
		})
	}
}

// TestSnapshotIndependence: mutating and solving a clone must not change
// the original's snapshot (they share no clause storage).
func TestSnapshotIndependence(t *testing.T) {
	a := NewSolver()
	satInstance(a)
	before := a.Snapshot()
	clone := a.Clone()
	clone.AddClause(-1)
	clone.AddClause(-2)
	clone.AddClause(-3)
	if st := clone.Solve(); st != Unsat {
		t.Fatalf("clone with extra clauses: got %v, want Unsat", st)
	}
	if !bytes.Equal(a.Snapshot(), before) {
		t.Fatal("mutating the clone changed the original's snapshot")
	}
	if st := a.Solve(); st != Sat {
		t.Fatalf("original after clone mutated: got %v, want Sat", st)
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
