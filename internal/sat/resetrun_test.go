package sat

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestResetRunKeepsSearchPrior: ResetRun drops a finished solve's
// counters, model and analysis scratch but keeps its search state, so a
// probed solver and its Clone run the same later search, conflict for
// conflict, and report only that later work.
func TestResetRunKeepsSearchPrior(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	probed := 0
	for i := 0; i < 25; i++ {
		nVars := 40 + r.Intn(20)
		clauses := randomInstance(r, nVars, nVars*4, 3)

		s := NewSolver()
		s.EnsureVars(nVars)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		first := s.Solve()
		if s.Stats().Conflicts > 0 {
			probed++
		}
		before := s.Snapshot()
		s.ResetRun()
		if st := s.Stats(); st != (Stats{}) {
			t.Fatalf("instance %d: ResetRun left counters %+v", i, st)
		}
		if s.Model() != nil || s.FinalConflict() != nil || s.StopCause() != StopNone {
			t.Fatalf("instance %d: ResetRun left the last solve's result behind", i)
		}
		if !bytes.Equal(s.Snapshot(), before) {
			t.Fatalf("instance %d: ResetRun changed the search state", i)
		}

		c := s.Clone()
		got, gotClone := s.Solve(), c.Solve()
		if got != gotClone || s.Stats() != c.Stats() {
			t.Fatalf("instance %d: reset solver %v %+v, its clone %v %+v",
				i, got, s.Stats(), gotClone, c.Stats())
		}
		if got != first {
			t.Fatalf("instance %d: solve after ResetRun %v, first solve %v", i, got, first)
		}
	}
	if probed == 0 {
		t.Fatal("no instance needed a conflict; the test exercises nothing")
	}
}
