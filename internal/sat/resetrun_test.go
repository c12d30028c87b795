package sat

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// searchState is what a later search reads from a solver, in a form a
// freeze leaves equal. Each literal's problem binaries are listed in the
// order propagation visits them, its shared implications first and then
// the problem-binary watchers of its watch list. Its other watchers, the
// long-clause and learnt-binary ones, are listed apart, in list order.
// The rest is every other field a search reads.
type searchState struct {
	binaries [][]lit
	watchers [][]watcher
	rest     []any
}

func searchStateOf(t *testing.T, s *Solver) searchState {
	t.Helper()
	s.settle() // the fields below hold a finished solve's assignment until then
	var cnf bytes.Buffer
	if err := WriteDIMACS(&cnf, s); err != nil {
		t.Fatal(err)
	}
	st := searchState{
		binaries: make([][]lit, len(s.watches.spans)),
		watchers: make([][]watcher, len(s.watches.spans)),
	}
	for li, sp := range s.watches.spans {
		st.binaries[li] = append(st.binaries[li], s.bins.of(lit(li))...)
		for _, w := range s.watches.slab[sp.off : sp.off+sp.n] {
			if w.c == crefBinary {
				st.binaries[li] = append(st.binaries[li], w.blocker)
			} else {
				st.watchers[li] = append(st.watchers[li], w)
			}
		}
	}
	st.rest = []any{cnf.String(), s.nVars, s.NumClauses(), s.nBinary, s.ca, s.clauses,
		s.learnts, s.nLearntBin, s.vals, s.level, s.reason, s.polarity, s.trail, s.trailLim,
		s.qhead, s.okay, s.activity, s.varInc, s.order.heap, s.order.indices, s.claInc,
		s.maxLearnts, s.learntGrowth}
	return st
}

// freezeKeepsSearchState runs ResetRun on s and fails unless the freeze
// only moved the problem binaries: the search state is unchanged, every
// problem binary is in the new table, and the solver's earlier table, if
// any, is left as it was for the clones that share it.
func freezeKeepsSearchState(t *testing.T, s *Solver, name string) {
	t.Helper()
	before := searchStateOf(t, s)
	old := s.bins
	var oldImp []lit
	if old != nil {
		oldImp = slices.Clone(old.imp)
	}
	s.ResetRun()
	if after := searchStateOf(t, s); !reflect.DeepEqual(after.watchers, before.watchers) {
		t.Fatalf("%s: ResetRun changed the long-clause or learnt-binary watchers", name)
	} else if !reflect.DeepEqual(after.binaries, before.binaries) {
		t.Fatalf("%s: ResetRun moved the problem binaries out of propagation order", name)
	} else if !reflect.DeepEqual(after.rest, before.rest) {
		t.Fatalf("%s: ResetRun changed the search state", name)
	}
	for li, sp := range s.watches.spans {
		for _, w := range s.watches.slab[sp.off : sp.off+sp.n] {
			if w.c == crefBinary {
				t.Fatalf("%s: ResetRun left a problem binary in literal %d's watch list", name, li)
			}
		}
	}
	if s.nBinary > 0 && (s.bins == nil || s.bins == old) {
		t.Fatalf("%s: ResetRun built no new implication table", name)
	}
	if old != nil && !slices.Equal(old.imp, oldImp) {
		t.Fatalf("%s: ResetRun wrote the implication table it replaced", name)
	}
}

// TestResetRunKeepsSearchPrior: ResetRun drops a finished solve's
// counters, model and analysis scratch but keeps its search state (see
// freezeKeepsSearchState); only the problem binaries move, out of the
// watch lists into the shared implication table, in the order
// propagation visited them. Freezing twice is freezing once. A probed
// solver and its Clone run the same later search, conflict for
// conflict, and report only that later work. The first 25 instances are
// random 3-SAT, the rest binary-heavy.
func TestResetRunKeepsSearchPrior(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	probed := 0
	for i := 0; i < 35; i++ {
		nVars := 40 + r.Intn(20)
		var clauses [][]Lit
		if i < 25 {
			clauses = randomInstance(r, nVars, nVars*4, 3)
		} else {
			nVars, clauses, _ = binaryHeavyInstance(r, 30, 3, 4.2)
		}

		s := NewSolver()
		s.EnsureVars(nVars)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		first := s.Solve()
		if s.Stats().Conflicts > 0 {
			probed++
		}
		freezeKeepsSearchState(t, s, fmt.Sprintf("instance %d", i))
		if st := s.Stats(); st != (Stats{}) {
			t.Fatalf("instance %d: ResetRun left counters %+v", i, st)
		}
		if s.Model() != nil || s.FinalConflict() != nil || s.StopCause() != StopNone {
			t.Fatalf("instance %d: ResetRun left the last solve's result behind", i)
		}
		if i >= 25 && s.bins == nil {
			t.Fatalf("instance %d: a binary-heavy instance froze without a table", i)
		}
		// Freezing a frozen solver changes nothing.
		frozen := s.Snapshot()
		s.ResetRun()
		if !bytes.Equal(s.Snapshot(), frozen) {
			t.Fatalf("instance %d: a second ResetRun changed the solver", i)
		}

		c := s.Clone(LearntRoom, nil)
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
