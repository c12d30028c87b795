package sat

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// queryLoad returns random additions to a solver of nVars variables, as
// a load function: fresh variables interleaved with clauses of one to
// four literals over old and new variables, units among them, so that
// adding them propagates at level 0 and shortens or satisfies later
// clauses.
func queryLoad(r *rand.Rand, nVars int) func(*Solver) {
	type step struct {
		newVar bool
		clause []Lit
	}
	var steps []step
	vars := nVars
	for i := 0; i < 40; i++ {
		if r.Intn(4) == 0 {
			steps = append(steps, step{newVar: true})
			vars++
			continue
		}
		cl := make([]Lit, 1+r.Intn(4))
		for j := range cl {
			cl[j] = Lit(1 + r.Intn(vars))
			if r.Intn(2) == 0 {
				cl[j] = -cl[j]
			}
		}
		steps = append(steps, step{clause: cl})
	}
	return func(s *Solver) {
		for _, st := range steps {
			if st.newVar {
				s.NewVar()
			} else {
				s.AddClause(st.clause...)
			}
		}
	}
}

// TestCloneLoadMatchesOneByOne is Clone's layout contract on random
// CNFs: a clone that takes a query's additions as its load snapshots
// byte-identically to a clone that adds them one by one afterwards, and
// then searches identically, for both rooms and for frozen and unfrozen
// sources. The load is laid out once: the per-variable slices hold
// exactly the clone's variables plus the room's variables (none for
// MoveRoom, queryVarRoom for LearntRoom) and the arena exactly the
// source's words, the load's long clauses and the room's words.
func TestCloneLoadMatchesOneByOne(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		const nVars = 60
		src := NewSolver()
		src.EnsureVars(nVars)
		loadClauses(src, randomInstance(r, nVars, nVars*4, 3))
		src.SetBudget(20, 0)
		src.Solve()
		src.SetBudget(0, 0)
		frozen := seed%2 == 0
		if frozen {
			src.ResetRun()
		}
		load := queryLoad(r, nVars)
		for _, room := range []Room{MoveRoom, LearntRoom} {
			name := fmt.Sprintf("seed %d, frozen %v, room %d", seed, frozen, room)
			eager := src.Clone(room, nil)
			load(eager)
			laid := src.Clone(room, load)
			if !bytes.Equal(laid.Snapshot(), eager.Snapshot()) {
				t.Fatalf("%s: the laid-out clone's snapshot differs from the one-by-one clone's", name)
			}
			varRoom := 0
			if room == LearntRoom {
				varRoom = queryVarRoom
			}
			if laid.VarCapacity() != laid.NumVars()+varRoom {
				t.Errorf("%s: %d variables in a capacity of %d, want %d", name, laid.NumVars(), laid.VarCapacity(), laid.NumVars()+varRoom)
			}
			words := 0
			var cs Clauses
			load(&Solver{bulk: &cs, okay: true})
			cs.Each(func(cl []Lit) {
				if len(cl) >= 3 {
					words += origHeaderWords + len(cl)
				}
			})
			if room == LearntRoom {
				words += queryArenaWords
			}
			if _, capacity := laid.ArenaWords(); src.Okay() && capacity != len(src.ca.data)+words {
				t.Errorf("%s: arena capacity %d, want %d", name, capacity, len(src.ca.data)+words)
			}
			stL, stE := laid.Solve(), eager.Solve()
			if stL != stE || laid.Stats() != eager.Stats() {
				t.Fatalf("%s: laid-out clone %v %+v, one-by-one clone %v %+v", name, stL, laid.Stats(), stE, eager.Stats())
			}
			if !bytes.Equal(laid.Snapshot(), eager.Snapshot()) {
				t.Fatalf("%s: the searches left different states", name)
			}
		}
	}
}

// TestDeferredBacktrackTwins: a solve leaves its final backtrack due
// until the solver's next call, and every entry point settles it first.
// After a Sat, an Unsat and a budget-Unknown solve, each entry point
// must leave the solver byte-identical to a twin that backtracked
// eagerly, as solves did before, and produce the same result.
func TestDeferredBacktrackTwins(t *testing.T) {
	solves := []struct {
		name  string
		build func(*Solver)
		solve func(*Solver) Status
		want  Status
	}{
		{"sat", satInstance, func(s *Solver) Status { return s.SolveAssuming([]Lit{-1, 7}) }, Sat},
		// satInstance holds ¬4 ∨ ¬5: assuming 4 falsifies the assumption 5.
		{"unsat", satInstance, func(s *Solver) Status { return s.SolveAssuming([]Lit{4, 5}) }, Unsat},
		{"unknown", func(s *Solver) { php(s, 6) }, func(s *Solver) Status {
			s.SetBudget(10, 0)
			defer s.SetBudget(0, 0)
			return s.Solve()
		}, Unknown},
	}
	entries := []struct {
		name string
		call func(*Solver) string // the entry point's result, rendered
	}{
		{"AddClause", func(s *Solver) string { return fmt.Sprint(s.AddClause(-2, 8, 40)) }},
		{"NewVar", func(s *Solver) string { return fmt.Sprint(s.NewVar()) }},
		{"EnsureVars", func(s *Solver) string { s.EnsureVars(s.NumVars() + 3); return "" }},
		{"Bulk", func(s *Solver) string {
			s.Bulk(new(Clauses), func() { s.AddClause(3, -9, Lit(s.NewVar())) })
			return ""
		}},
		{"SolveAssuming", func(s *Solver) string {
			st := s.SolveAssuming([]Lit{2})
			return fmt.Sprint(st, s.Stats(), s.Model(), s.FinalConflict())
		}},
		{"Clone", func(s *Solver) string { return string(s.Clone(MoveRoom, nil).Snapshot()) }},
		{"Snapshot", func(s *Solver) string { return string(s.Snapshot()) }},
		{"ResetRun", func(s *Solver) string { s.ResetRun(); return "" }},
		{"WriteDIMACS", func(s *Solver) string {
			var b bytes.Buffer
			if err := WriteDIMACS(&b, s); err != nil {
				return err.Error()
			}
			return b.String()
		}},
	}
	for _, sv := range solves {
		for _, ep := range entries {
			deferred, eager := NewSolver(), NewSolver()
			sv.build(deferred)
			sv.build(eager)
			stD, stE := sv.solve(deferred), sv.solve(eager)
			if stD != sv.want || stE != sv.want {
				t.Fatalf("%s: solves returned %v and %v, want %v", sv.name, stD, stE, sv.want)
			}
			if sv.want != Unknown && !deferred.unsettled {
				t.Fatalf("%s: the solve left no backtrack due", sv.name)
			}
			eager.settle()
			if got, want := ep.call(deferred), ep.call(eager); got != want {
				t.Errorf("%s then %s: the deferred solver's result differs from its eager twin's", sv.name, ep.name)
			}
			if !bytes.Equal(deferred.Snapshot(), eager.Snapshot()) {
				t.Errorf("%s then %s: the deferred solver's state differs from its eager twin's", sv.name, ep.name)
			}
		}
	}
}
