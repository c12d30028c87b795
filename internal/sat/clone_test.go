package sat

import (
	"reflect"
	"testing"
)

// php builds the pigeonhole principle PHP(n+1, n): unsatisfiable, with a
// non-trivial search, so clones exercise learning and restarts. Literals
// in guard are added to every pigeon's row clause, so PHP holds only
// under assumptions that falsify them.
func php(s *Solver, holes int, guard ...Lit) {
	pigeons := holes + 1
	v := func(p, h int) Lit { return Lit(p*holes + h + 1) }
	for p := 0; p < pigeons; p++ {
		row := make([]Lit, holes, holes+len(guard))
		for h := 0; h < holes; h++ {
			row[h] = v(p, h)
		}
		s.AddClause(append(row, guard...)...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
}

// satInstance builds a satisfiable instance with some structure.
func satInstance(s *Solver) {
	s.EnsureVars(12)
	s.AddClause(1, 2, 3)
	s.AddClause(-1, 4)
	s.AddClause(-2, 5)
	s.AddClause(-3, 6)
	s.AddClause(-4, -5)
	s.AddClause(7, 8)
	s.AddClause(-7, 9, 10)
	s.AddClause(-9, -10)
	s.AddClause(11, -12)
	s.AddClause(-11, 12, 1)
}

// deletedLearnts leaves s alive at decision level 0 with learnt clauses
// that reduceDB deleted still lingering in its arena and watch lists: a
// pigeonhole instance guarded by variable 31 is refuted under the guard,
// with the learnt limit lowered so reduceDB runs during the search while
// the garbage stays far below the compaction threshold. It reports
// whether reduceDB deleted clauses that are still in the arena.
func deletedLearnts(s *Solver) bool {
	const guard = Lit(31)
	php(s, 5, -guard)
	s.maxLearnts = 20
	if s.SolveAssuming([]Lit{guard}) != Unsat {
		return false
	}
	return s.Stats().Deleted > 0 && s.ca.wasted > 0
}

func TestCloneSolvesIdentically(t *testing.T) {
	a := NewSolver()
	satInstance(a)
	b := a.Clone()

	stA := a.Solve()
	stB := b.Solve()
	if stA != Sat || stB != Sat {
		t.Fatalf("statuses: original %v, clone %v; want Sat, Sat", stA, stB)
	}
	if !reflect.DeepEqual(a.Model(), b.Model()) {
		t.Fatalf("models differ:\noriginal %v\nclone    %v", a.Model(), b.Model())
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("search diverged: original %+v, clone %+v", a.Stats(), b.Stats())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewSolver()
	satInstance(a)
	b := a.Clone()

	// Constrain only the clone; the original must keep its solutions.
	b.AddClause(-1)
	b.AddClause(-2)
	b.AddClause(-3)
	if st := b.Solve(); st != Unsat {
		t.Fatalf("clone with extra clauses: got %v, want Unsat (1∨2∨3 blocked)", st)
	}
	if st := a.Solve(); st != Sat {
		t.Fatalf("original after clone mutated: got %v, want Sat", st)
	}

	// And the reverse: solving the original must not disturb a new clone.
	c := a.Clone()
	a.AddClause(-1)
	if st := c.Solve(); st != Sat {
		t.Fatalf("clone after original mutated: got %v, want Sat", st)
	}
}

func TestCloneAfterSolveContinuesIdentically(t *testing.T) {
	// Solve once so the original holds learnt clauses and heuristic state,
	// then clone and run an incremental query on both.
	a := NewSolver()
	php(a, 5)
	if st := a.Solve(); st != Unsat {
		t.Fatalf("php(6,5): got %v, want Unsat", st)
	}

	b := NewSolver()
	satInstance(b)
	if st := b.Solve(); st != Sat {
		t.Fatalf("setup: got %v, want Sat", st)
	}
	c := b.Clone()
	assumps := []Lit{-1, 7}
	stB := b.SolveAssuming(assumps)
	stC := c.SolveAssuming(assumps)
	if stB != stC {
		t.Fatalf("post-solve clone diverged: original %v, clone %v", stB, stC)
	}
	if stB == Sat && !reflect.DeepEqual(b.Model(), c.Model()) {
		t.Fatalf("models differ after incremental solve")
	}
}

func TestCloneFinalConflictMatches(t *testing.T) {
	a := NewSolver()
	a.EnsureVars(4)
	a.AddClause(-1, -2) // assuming 1 and 2 together is contradictory
	a.AddClause(3, 4)
	b := a.Clone()

	assumps := []Lit{1, 2, 3}
	if st := a.SolveAssuming(assumps); st != Unsat {
		t.Fatalf("original: got %v, want Unsat", st)
	}
	if st := b.SolveAssuming(assumps); st != Unsat {
		t.Fatalf("clone: got %v, want Unsat", st)
	}
	if !reflect.DeepEqual(a.FinalConflict(), b.FinalConflict()) {
		t.Fatalf("final conflicts differ: original %v, clone %v",
			a.FinalConflict(), b.FinalConflict())
	}
}

func TestCloneResetsRunState(t *testing.T) {
	a := NewSolver()
	satInstance(a)
	a.Interrupt()
	a.SetBudget(1, 1)
	if st := a.Solve(); st != Unknown {
		t.Fatalf("interrupted original: got %v, want Unknown", st)
	}

	// The clone must not inherit the interrupt, the budgets, or the stats.
	b := a.Clone()
	if st := b.Solve(); st != Sat {
		t.Fatalf("clone of interrupted solver: got %v, want Sat (interrupt must not be inherited)", st)
	}
	if b.StopCause() != StopNone {
		t.Fatalf("clone StopCause: got %v, want StopNone", b.StopCause())
	}

	c := a.Clone()
	if got := c.Stats(); got != (Stats{}) {
		t.Fatalf("clone stats not zeroed: %+v", got)
	}
}

func TestCloneWithDeletedClauses(t *testing.T) {
	a := NewSolver()
	if !deletedLearnts(a) {
		t.Fatalf("setup left no deleted clauses in the arena (deleted %d)", a.Stats().Deleted)
	}
	b := a.Clone()
	stA, stB := a.Solve(), b.Solve()
	if stA != Sat || stB != Sat {
		t.Fatalf("with deleted clauses: original %v, clone %v; want Sat, Sat", stA, stB)
	}
	if !reflect.DeepEqual(a.Model(), b.Model()) {
		t.Fatalf("models differ after Clone with deleted clauses")
	}
}

func TestClonePanicsAboveLevelZero(t *testing.T) {
	// Drive the solver to a nonzero decision level via a fault hook that
	// fires mid-search, then observe that Clone refuses. Simpler: fake it
	// by checking the guard through a trail limit push is not reachable
	// from the public API at rest — instead verify the panic path directly.
	s := NewSolver()
	satInstance(s)
	s.trailLim = append(s.trailLim, len(s.trail)) // simulate an open decision level
	defer func() {
		if recover() == nil {
			t.Fatalf("Clone above level 0 did not panic")
		}
	}()
	s.Clone()
}

func TestCloneUnsatisfiableInstance(t *testing.T) {
	a := NewSolver()
	a.AddClause(1)
	a.AddClause(-1) // top-level contradiction: okay=false
	b := a.Clone()
	if st := b.Solve(); st != Unsat {
		t.Fatalf("clone of contradictory instance: got %v, want Unsat", st)
	}
}
