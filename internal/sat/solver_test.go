package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

// bruteForce decides a clause set over nVars ≤ 22 variables by enumeration.
func bruteForce(nVars int, clauses [][]Lit) (bool, []bool) {
	if nVars > 22 {
		panic("bruteForce: too many variables")
	}
	for mask := 0; mask < 1<<nVars; mask++ {
		ok := true
		for _, c := range clauses {
			csat := false
			for _, l := range c {
				val := mask&(1<<(l.Var()-1)) != 0
				if val != l.Neg() {
					csat = true
					break
				}
			}
			if !csat {
				ok = false
				break
			}
		}
		if ok {
			model := make([]bool, nVars)
			for i := 0; i < nVars; i++ {
				model[i] = mask&(1<<i) != 0
			}
			return true, model
		}
	}
	return false, nil
}

// checkModel verifies that the solver's model satisfies every clause.
func checkModel(t *testing.T, s *Solver, clauses [][]Lit) {
	t.Helper()
	for _, c := range clauses {
		sat := false
		for _, l := range c {
			if s.Value(l.Var()) != l.Neg() {
				sat = true
				break
			}
		}
		if !sat {
			t.Fatalf("model does not satisfy clause %v", c)
		}
	}
}

// randomInstance generates a random k-SAT instance.
func randomInstance(r *rand.Rand, nVars, nClauses, k int) [][]Lit {
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		c := make([]Lit, k)
		for j := range c {
			v := r.Intn(nVars) + 1
			if r.Intn(2) == 0 {
				c[j] = Lit(v)
			} else {
				c[j] = Lit(-v)
			}
		}
		clauses[i] = c
	}
	return clauses
}

func loadClauses(s *Solver, clauses [][]Lit) {
	for _, c := range clauses {
		s.AddClause(c...)
	}
}

func TestLitConversions(t *testing.T) {
	for _, ext := range []Lit{1, -1, 7, -7, 100} {
		in := toInternal(ext)
		if back := toExternal(in); back != ext {
			t.Errorf("roundtrip %d -> %d", ext, back)
		}
		if toInternal(ext.Flip()) != toInternal(ext).flip() {
			t.Errorf("flip mismatch for %d", ext)
		}
	}
	if Lit(-3).Var() != 3 || !Lit(-3).Neg() || Lit(3).Neg() {
		t.Error("Lit accessors wrong")
	}
}

func TestTrivial(t *testing.T) {
	s := NewSolver()
	if s.Solve() != Sat {
		t.Fatal("empty instance must be SAT")
	}
	s.AddClause(1)
	if s.Solve() != Sat || !s.Value(1) {
		t.Fatal("unit clause must force x1=true")
	}
	s.AddClause(-1)
	if s.Solve() != Unsat {
		t.Fatal("x1 & !x1 must be UNSAT")
	}
	if s.Okay() {
		t.Error("Okay must be false after top-level contradiction")
	}
}

func TestEmptyClause(t *testing.T) {
	s := NewSolver()
	if s.AddClause() {
		t.Error("empty clause must report failure")
	}
	if s.Solve() != Unsat {
		t.Error("instance with empty clause must be UNSAT")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := NewSolver()
	s.AddClause(1, -1)   // tautology: ignored
	s.AddClause(2, 2, 2) // collapses to unit
	if s.Solve() != Sat || !s.Value(2) {
		t.Fatal("want SAT with x2=true")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	s := NewSolver()
	// x1 -> x2 -> x3 -> x4; assert x1.
	s.AddClause(-1, 2)
	s.AddClause(-2, 3)
	s.AddClause(-3, 4)
	s.AddClause(1)
	if s.Solve() != Sat {
		t.Fatal("want SAT")
	}
	for v := 1; v <= 4; v++ {
		if !s.Value(v) {
			t.Errorf("x%d should be true", v)
		}
	}
}

func TestFuzzAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		nVars := 3 + r.Intn(10)
		nClauses := 1 + r.Intn(nVars*5)
		k := 2 + r.Intn(2)
		clauses := randomInstance(r, nVars, nClauses, k)
		wantSat, _ := bruteForce(nVars, clauses)

		s := NewSolver()
		s.EnsureVars(nVars)
		loadClauses(s, clauses)
		got := s.Solve()
		if (got == Sat) != wantSat {
			t.Fatalf("instance %d: got %v, want sat=%v\nclauses: %v", i, got, wantSat, clauses)
		}
		if got == Sat {
			checkModel(t, s, clauses)
		}
	}
}

func TestFuzzOptionVariants(t *testing.T) {
	variants := []Options{
		{NoRestarts: true},
		{StaticOrder: true},
		{NoLearning: true},
		{NoLearning: true, StaticOrder: true},
	}
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 120; i++ {
		nVars := 3 + r.Intn(8)
		nClauses := 1 + r.Intn(nVars*4)
		clauses := randomInstance(r, nVars, nClauses, 3)
		wantSat, _ := bruteForce(nVars, clauses)
		for vi, opts := range variants {
			s := NewSolverOpts(opts)
			s.EnsureVars(nVars)
			loadClauses(s, clauses)
			got := s.Solve()
			if (got == Sat) != wantSat {
				t.Fatalf("instance %d variant %d (%+v): got %v, want sat=%v",
					i, vi, opts, got, wantSat)
			}
			if got == Sat {
				checkModel(t, s, clauses)
			}
		}
	}
}

// pigeonhole builds PHP(m pigeons, n holes): unsatisfiable when m > n.
// Variable p*n+h+1 means pigeon p sits in hole h.
func pigeonhole(s *Solver, m, n int) {
	v := func(p, h int) Lit { return Lit(p*n + h + 1) }
	for p := 0; p < m; p++ {
		c := make([]Lit, n)
		for h := 0; h < n; h++ {
			c[h] = v(p, h)
		}
		s.AddClause(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < m; p1++ {
			for p2 := p1 + 1; p2 < m; p2++ {
				s.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 3; n <= 7; n++ {
		s := NewSolver()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d): got %v, want UNSAT", n+1, n, got)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 5, 5)
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(5,5): got %v, want SAT", got)
	}
}

func TestAssumptions(t *testing.T) {
	s := NewSolver()
	s.AddClause(-1, 2) // x1 -> x2
	s.AddClause(-2, 3) // x2 -> x3

	if s.SolveAssuming([]Lit{1, -3}) != Unsat {
		t.Fatal("assuming x1 and !x3 must be UNSAT")
	}
	core := s.FinalConflict()
	if len(core) == 0 {
		t.Fatal("expected a nonempty final conflict")
	}
	// The core must be a subset of the assumptions and itself unsat.
	for _, l := range core {
		if l != 1 && l != -3 {
			t.Fatalf("core literal %v is not an assumption", l)
		}
	}
	// Solver must remain usable: the same instance is SAT without the
	// conflicting assumption.
	if s.SolveAssuming([]Lit{1}) != Sat {
		t.Fatal("assuming only x1 must be SAT")
	}
	if !s.Value(3) {
		t.Error("x3 must be implied by x1")
	}
	if s.Solve() != Sat {
		t.Fatal("no assumptions must be SAT")
	}
}

func TestAssumptionCoreMinimalish(t *testing.T) {
	// Irrelevant assumptions must not be required in the core... the
	// final conflict may overapproximate, but assuming exactly the core
	// must still be UNSAT (core soundness).
	s := NewSolver()
	s.AddClause(-1, -2) // not both x1, x2
	s.EnsureVars(6)
	if s.SolveAssuming([]Lit{5, 1, 6, 2}) != Unsat {
		t.Fatal("want UNSAT")
	}
	core := append([]Lit(nil), s.FinalConflict()...)
	if s.SolveAssuming(core) != Unsat {
		t.Fatalf("core %v is not itself unsatisfiable", core)
	}
}

func TestAssumptionsFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for i := 0; i < 150; i++ {
		nVars := 4 + r.Intn(8)
		clauses := randomInstance(r, nVars, 2+r.Intn(nVars*3), 3)
		nAssume := 1 + r.Intn(3)
		seenVar := map[int]bool{}
		var assumps []Lit
		for len(assumps) < nAssume {
			v := r.Intn(nVars) + 1
			if seenVar[v] {
				continue
			}
			seenVar[v] = true
			l := Lit(v)
			if r.Intn(2) == 0 {
				l = -l
			}
			assumps = append(assumps, l)
		}
		// Reference: brute force with assumptions as unit clauses.
		ref := append([][]Lit{}, clauses...)
		for _, a := range assumps {
			ref = append(ref, []Lit{a})
		}
		wantSat, _ := bruteForce(nVars, ref)

		s := NewSolver()
		s.EnsureVars(nVars)
		loadClauses(s, clauses)
		got := s.SolveAssuming(assumps)
		if (got == Sat) != wantSat {
			t.Fatalf("instance %d: got %v, want sat=%v (assumps %v)", i, got, wantSat, assumps)
		}
		if got == Sat {
			checkModel(t, s, ref)
		} else {
			core := append([]Lit(nil), s.FinalConflict()...)
			// Core must be subset of assumptions.
			for _, l := range core {
				ok := false
				for _, a := range assumps {
					if a == l {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("instance %d: core lit %v not among assumptions %v", i, l, assumps)
				}
			}
			// Core must be sufficient for unsatisfiability.
			refCore := append([][]Lit{}, clauses...)
			for _, a := range core {
				refCore = append(refCore, []Lit{a})
			}
			if coreSat, _ := bruteForce(nVars, refCore); coreSat {
				t.Fatalf("instance %d: core %v does not entail UNSAT", i, core)
			}
		}
	}
}

func TestIncrementalSolving(t *testing.T) {
	s := NewSolver()
	s.AddClause(1, 2)
	if s.Solve() != Sat {
		t.Fatal("want SAT")
	}
	s.AddClause(-1)
	if s.Solve() != Sat || !s.Value(2) {
		t.Fatal("after adding !x1, want SAT with x2")
	}
	s.AddClause(-2)
	if s.Solve() != Unsat {
		t.Fatal("want UNSAT after blocking both")
	}
}

func TestIncrementalFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for i := 0; i < 60; i++ {
		nVars := 4 + r.Intn(8)
		all := randomInstance(r, nVars, 4+r.Intn(nVars*3), 3)
		s := NewSolver()
		s.EnsureVars(nVars)
		var added [][]Lit
		for len(added) < len(all) {
			chunk := 1 + r.Intn(3)
			for j := 0; j < chunk && len(added) < len(all); j++ {
				c := all[len(added)]
				added = append(added, c)
				s.AddClause(c...)
			}
			wantSat, _ := bruteForce(nVars, added)
			got := s.Solve()
			if (got == Sat) != wantSat {
				t.Fatalf("instance %d after %d clauses: got %v, want sat=%v",
					i, len(added), got, wantSat)
			}
			if got == Sat {
				checkModel(t, s, added)
			}
			if got == Unsat {
				break
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 6, 5)
	s.Solve()
	st := s.Stats()
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 {
		t.Errorf("expected nonzero stats, got %+v", st)
	}
}

func TestValuePanicsWithoutModel(t *testing.T) {
	s := NewSolver()
	s.AddClause(1)
	s.AddClause(-1)
	s.Solve()
	defer func() {
		if recover() == nil {
			t.Error("Value after UNSAT must panic")
		}
	}()
	s.Value(1)
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(2, int64(i)); got != w {
			t.Errorf("luby(2,%d): got %d, want %d", i, got, w)
		}
	}
}

func TestAddClauseAfterUnsat(t *testing.T) {
	s := NewSolver()
	s.AddClause(1)
	if ok := s.AddClause(-1); ok {
		t.Error("AddClause creating contradiction must report failure")
	}
	if s.AddClause(2) {
		t.Error("AddClause after contradiction must report failure")
	}
}

func TestEnsureVars(t *testing.T) {
	s := NewSolver()
	s.EnsureVars(10)
	if s.NumVars() != 10 {
		t.Fatalf("NumVars: got %d, want 10", s.NumVars())
	}
	s.EnsureVars(5)
	if s.NumVars() != 10 {
		t.Error("EnsureVars must not shrink")
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Error("Status.String wrong")
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	s := NewSolver()
	s.SetBudget(1, 0)
	pigeonhole(s, 8, 7)
	if got := s.Solve(); got != Unknown {
		// A tiny budget on a hard instance should exhaust. (If the solver
		// got lucky the test would be flaky, so only check it's a legal
		// outcome.)
		if got != Unsat {
			t.Fatalf("got %v, want Unknown or Unsat", got)
		}
	}
}

func TestHardRandomInstances(t *testing.T) {
	// Near the phase-transition ratio (4.26 clauses/var for 3-SAT),
	// exercising restarts and clause deletion.
	r := rand.New(rand.NewSource(46))
	for i := 0; i < 10; i++ {
		nVars := 18
		clauses := randomInstance(r, nVars, int(4.3*float64(nVars)), 3)
		wantSat, _ := bruteForce(nVars, clauses)
		s := NewSolver()
		s.EnsureVars(nVars)
		loadClauses(s, clauses)
		got := s.Solve()
		if (got == Sat) != wantSat {
			t.Fatalf("instance %d: got %v, want sat=%v", i, got, wantSat)
		}
		if got == Sat {
			checkModel(t, s, clauses)
		}
	}
}

func TestModelEnumerationViaBlocking(t *testing.T) {
	// Count models of (x1 | x2) & (x2 | x3) by blocking clauses; compare
	// against brute-force count.
	clauses := [][]Lit{{1, 2}, {2, 3}}
	nVars := 3
	wantCount := 0
	for mask := 0; mask < 1<<nVars; mask++ {
		ok := true
		for _, c := range clauses {
			cs := false
			for _, l := range c {
				if (mask&(1<<(l.Var()-1)) != 0) != l.Neg() {
					cs = true
				}
			}
			if !cs {
				ok = false
			}
		}
		if ok {
			wantCount++
		}
	}
	s := NewSolver()
	s.EnsureVars(nVars)
	loadClauses(s, clauses)
	count := 0
	for s.Solve() == Sat {
		count++
		if count > 1<<nVars {
			t.Fatal("enumeration does not terminate")
		}
		block := make([]Lit, nVars)
		for v := 1; v <= nVars; v++ {
			if s.Value(v) {
				block[v-1] = Lit(-v)
			} else {
				block[v-1] = Lit(v)
			}
		}
		s.AddClause(block...)
	}
	if count != wantCount {
		t.Fatalf("model count: got %d, want %d", count, wantCount)
	}
}

func TestReduceDBKeepsSoundness(t *testing.T) {
	// Force many conflicts so reduceDB triggers, then verify a SAT result
	// on a model-checkable instance.
	r := rand.New(rand.NewSource(47))
	s := NewSolver()
	s.maxLearnts = 10 // force aggressive reduction
	nVars := 16
	clauses := randomInstance(r, nVars, 60, 3)
	s.EnsureVars(nVars)
	loadClauses(s, clauses)
	wantSat, _ := bruteForce(nVars, clauses)
	got := s.Solve()
	if (got == Sat) != wantSat {
		t.Fatalf("got %v, want sat=%v", got, wantSat)
	}
	if got == Sat {
		checkModel(t, s, clauses)
	}
}

func BenchmarkSolvePigeonhole(b *testing.B) {
	for _, n := range []int{6, 7, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewSolver()
				pigeonhole(s, n+1, n)
				if s.Solve() != Unsat {
					b.Fatal("want UNSAT")
				}
			}
		})
	}
}

func BenchmarkSolveRandom3SAT(b *testing.B) {
	r := rand.New(rand.NewSource(48))
	nVars := 60
	instances := make([][][]Lit, 8)
	for i := range instances {
		instances[i] = randomInstance(r, nVars, int(4.2*float64(nVars)), 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		s.EnsureVars(nVars)
		loadClauses(s, instances[i%len(instances)])
		s.Solve()
	}
}
