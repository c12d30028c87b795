package intlin

import (
	"math/rand"
	"testing"

	"netarch/internal/sat"
)

// EqConst returns a reified literal g with g ↔ (a = k). The package emits
// guarded equalities one way only (AssertImpliesEq); the tests pin values
// through assumptions, which need the reified form.
func (b *Builder) EqConst(a Int, k int64) sat.Lit {
	if k < 0 || k > a.max {
		return b.False()
	}
	ls := make([]sat.Lit, len(a.bits))
	for i, bi := range a.bits {
		if k&(1<<i) != 0 {
			ls[i] = bi
		} else {
			ls[i] = bi.Flip()
		}
	}
	return b.andGate(ls...)
}

// pin asserts a = v and returns whether the solver stayed consistent.
func pin(b *Builder, a Int, v int64) {
	b.s.AddClause(b.EqConst(a, v))
}

func TestConstRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 2, 7, 8, 100, 1023, 1024} {
		s := sat.NewSolver()
		b := New(s)
		c := b.Const(v)
		if c.Max() != v {
			t.Errorf("Const(%d).Max: got %d", v, c.Max())
		}
		if s.Solve() != sat.Sat {
			t.Fatal("want SAT")
		}
		if got := ValueOf(c, s.Model()); got != v {
			t.Errorf("Const(%d): model value %d", v, got)
		}
	}
}

func TestVarRange(t *testing.T) {
	for _, max := range []int64{0, 1, 5, 8, 100} {
		s := sat.NewSolver()
		b := New(s)
		a := b.Var(max)
		// Every value in [0, max] must be attainable…
		for v := int64(0); v <= max; v++ {
			if s.SolveAssuming([]sat.Lit{b.EqConst(a, v)}) != sat.Sat {
				t.Fatalf("max=%d: value %d unreachable", max, v)
			}
			if got := ValueOf(a, s.Model()); got != v {
				t.Fatalf("max=%d: pinned %d, read %d", max, v, got)
			}
		}
		// …and max+1 must not be.
		if s.SolveAssuming([]sat.Lit{b.GeqConst(a, max+1)}) != sat.Unsat {
			t.Fatalf("max=%d: value above bound reachable", max)
		}
	}
}

func TestAddExhaustive(t *testing.T) {
	s := sat.NewSolver()
	b := New(s)
	x := b.Var(7)
	y := b.Var(5)
	z := b.Add(x, y)
	if z.Max() != 12 {
		t.Fatalf("Add max: got %d, want 12", z.Max())
	}
	for xv := int64(0); xv <= 7; xv++ {
		for yv := int64(0); yv <= 5; yv++ {
			st := s.SolveAssuming([]sat.Lit{b.EqConst(x, xv), b.EqConst(y, yv)})
			if st != sat.Sat {
				t.Fatalf("x=%d y=%d: %v", xv, yv, st)
			}
			if got := ValueOf(z, s.Model()); got != xv+yv {
				t.Fatalf("x=%d y=%d: z=%d", xv, yv, got)
			}
		}
	}
}

// scaledInt returns c·a by shift-and-add over a's bits: one ScaledBool
// per bit, summed. Tests draw constant multiples of an integer with it.
func scaledInt(b *Builder, a Int, c int64) Int {
	terms := make([]Int, a.Width())
	for i := range terms {
		terms[i] = b.ScaledBool(a.Bit(i), c<<i)
	}
	return b.Sum(terms...)
}

func TestSumBalanced(t *testing.T) {
	s := sat.NewSolver()
	b := New(s)
	var terms []Int
	var want int64
	for i := int64(1); i <= 9; i++ {
		terms = append(terms, b.Const(i))
		want += i
	}
	total := b.Sum(terms...)
	if s.Solve() != sat.Sat {
		t.Fatal("want SAT")
	}
	if got := ValueOf(total, s.Model()); got != want {
		t.Fatalf("Sum: got %d, want %d", got, want)
	}
	empty := b.Sum()
	if got := ValueOf(empty, s.Model()); got != 0 {
		t.Fatalf("empty Sum: got %d", got)
	}
}

func TestScaledBool(t *testing.T) {
	s := sat.NewSolver()
	b := New(s)
	g := sat.Lit(s.NewVar())
	cost := b.ScaledBool(g, 12)
	s.AddClause(g)
	if s.Solve() != sat.Sat {
		t.Fatal("want SAT")
	}
	if got := ValueOf(cost, s.Model()); got != 12 {
		t.Fatalf("ScaledBool true: got %d, want 12", got)
	}

	s2 := sat.NewSolver()
	b2 := New(s2)
	g2 := sat.Lit(s2.NewVar())
	cost2 := b2.ScaledBool(g2, 12)
	s2.AddClause(g2.Flip())
	if s2.Solve() != sat.Sat {
		t.Fatal("want SAT")
	}
	if got := ValueOf(cost2, s2.Model()); got != 0 {
		t.Fatalf("ScaledBool false: got %d, want 0", got)
	}
}

func TestComparisonConstReified(t *testing.T) {
	// For every (value, bound) pair, both the positive and negative
	// phases of the reified comparison must be consistent.
	s := sat.NewSolver()
	b := New(s)
	x := b.Var(10)
	for k := int64(-1); k <= 11; k++ {
		leq := b.LeqConst(x, k)
		geq := b.GeqConst(x, k)
		eq := b.EqConst(x, k)
		for v := int64(0); v <= 10; v++ {
			st := s.SolveAssuming([]sat.Lit{b.EqConst(x, v)})
			if st != sat.Sat {
				t.Fatalf("pin x=%d failed", v)
			}
			m := s.Model()
			litVal := func(l sat.Lit) bool { return m[l.Var()-1] != l.Neg() }
			if litVal(leq) != (v <= k) {
				t.Fatalf("x=%d k=%d: leq=%v", v, k, litVal(leq))
			}
			if litVal(geq) != (v >= k) {
				t.Fatalf("x=%d k=%d: geq=%v", v, k, litVal(geq))
			}
			if litVal(eq) != (v == k) {
				t.Fatalf("x=%d k=%d: eq=%v", v, k, litVal(eq))
			}
		}
	}
}

func TestComparisonTwoVars(t *testing.T) {
	s := sat.NewSolver()
	b := New(s)
	x := b.Var(6)
	y := b.Var(9)
	leq := b.Leq(x, y)
	lt := b.Leq(y, x).Flip()
	eq := b.Eq(x, y)
	for xv := int64(0); xv <= 6; xv++ {
		for yv := int64(0); yv <= 9; yv++ {
			st := s.SolveAssuming([]sat.Lit{b.EqConst(x, xv), b.EqConst(y, yv)})
			if st != sat.Sat {
				t.Fatalf("pin failed")
			}
			m := s.Model()
			litVal := func(l sat.Lit) bool { return m[l.Var()-1] != l.Neg() }
			if litVal(leq) != (xv <= yv) {
				t.Fatalf("x=%d y=%d: leq=%v", xv, yv, litVal(leq))
			}
			if litVal(lt) != (xv < yv) {
				t.Fatalf("x=%d y=%d: lt=%v", xv, yv, litVal(lt))
			}
			if litVal(eq) != (xv == yv) {
				t.Fatalf("x=%d y=%d: eq=%v", xv, yv, litVal(eq))
			}
		}
	}
}

func TestBudgetScenario(t *testing.T) {
	// The reasoning engine's use case: sum of conditional costs must fit
	// a budget. 3 optional systems costing 4, 7, 10; budget 12.
	s := sat.NewSolver()
	b := New(s)
	g1, g2, g3 := sat.Lit(s.NewVar()), sat.Lit(s.NewVar()), sat.Lit(s.NewVar())
	total := b.Sum(b.ScaledBool(g1, 4), b.ScaledBool(g2, 7), b.ScaledBool(g3, 10))
	b.s.AddClause(b.LeqConst(total, 12))

	// g1+g2 (11) fits; g2+g3 (17) must not.
	if s.SolveAssuming([]sat.Lit{g1, g2}) != sat.Sat {
		t.Error("4+7 ≤ 12 must be SAT")
	}
	if s.SolveAssuming([]sat.Lit{g2, g3}) != sat.Unsat {
		t.Error("7+10 ≤ 12 must be UNSAT")
	}
	if s.SolveAssuming([]sat.Lit{g1, g2, g3}) != sat.Unsat {
		t.Error("all three must be UNSAT")
	}
}

func TestRandomLinearExpressions(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		s := sat.NewSolver()
		b := New(s)
		n := 2 + r.Intn(4)
		vars := make([]Int, n)
		vals := make([]int64, n)
		coefs := make([]int64, n)
		terms := make([]Int, n)
		var want int64
		var assumps []sat.Lit
		for i := 0; i < n; i++ {
			max := int64(1 + r.Intn(30))
			vars[i] = b.Var(max)
			vals[i] = int64(r.Intn(int(max + 1)))
			coefs[i] = int64(r.Intn(6))
			terms[i] = scaledInt(b, vars[i], coefs[i])
			want += coefs[i] * vals[i]
			assumps = append(assumps, b.EqConst(vars[i], vals[i]))
		}
		total := b.Sum(terms...)
		if s.SolveAssuming(assumps) != sat.Sat {
			t.Fatalf("trial %d: pinning failed", trial)
		}
		if got := ValueOf(total, s.Model()); got != want {
			t.Fatalf("trial %d: got %d, want %d", trial, got, want)
		}
	}
}

func TestPanics(t *testing.T) {
	s := sat.NewSolver()
	b := New(s)
	for name, fn := range map[string]func(){
		"negative const": func() { b.Const(-1) },
		"negative var":   func() { b.Var(-1) },
		"negative scale": func() { b.ScaledBool(b.True(), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAssertImplies(t *testing.T) {
	s := sat.NewSolver()
	b := New(s)
	x := b.Var(10)
	guard := sat.Lit(s.NewVar())
	b.AssertImplies(guard, b.LeqConst(x, 3))
	if s.SolveAssuming([]sat.Lit{guard, b.EqConst(x, 7)}) != sat.Unsat {
		t.Error("guard must force x ≤ 3")
	}
	if s.SolveAssuming([]sat.Lit{guard.Flip(), b.EqConst(x, 7)}) != sat.Sat {
		t.Error("without guard x=7 must be allowed")
	}
}

// TestAttachAcrossClone exercises the path a cached base takes to each
// query: an integer circuit built in one solver is carried across a
// sat.Clone, reattached with Attach, and the same Int must evaluate and
// constrain identically in the clone.
func TestAttachAcrossClone(t *testing.T) {
	s := sat.NewSolver()
	b := New(s)
	x := b.Var(20)
	y := b.Var(9)
	sum := b.Add(x, y)
	s.AddClause(b.EqConst(x, 13))
	s.AddClause(b.EqConst(y, 6))

	clone := s.Clone()
	cb := Attach(clone, b.True())
	// New clauses against the cloned circuit must behave as in-process.
	clone.AddClause(cb.GeqConst(sum, 19))
	if clone.Solve() != sat.Sat {
		t.Fatal("clone: want SAT (13+6 = 19)")
	}
	if got := ValueOf(sum, clone.Model()); got != 19 {
		t.Fatalf("clone sum: got %d, want 19", got)
	}
	clone.AddClause(cb.GeqConst(sum, 20))
	if clone.Solve() != sat.Unsat {
		t.Fatal("clone: want UNSAT (sum pinned to 19)")
	}
	if s.Solve() != sat.Sat {
		t.Fatal("source: clauses added to the clone leaked into it")
	}
}

// TestAssertImpliesEq checks the guarded equality by brute force: with
// the guard on, a takes exactly the value k (no value when k is outside
// [0, Max]); with it off, a ranges freely. The guard is one binary clause
// per bit, so no variable is allocated.
func TestAssertImpliesEq(t *testing.T) {
	for _, max := range []int64{0, 1, 5, 8, 13} {
		for k := int64(-1); k <= max+2; k++ {
			s := sat.NewSolver()
			b := New(s)
			a := b.Var(max)
			guard := sat.Lit(s.NewVar())
			vars := s.NumVars()
			b.AssertImpliesEq(guard, a, k)
			if s.NumVars() != vars {
				t.Fatalf("max=%d k=%d: allocated %d variables", max, k, s.NumVars()-vars)
			}
			inRange := k >= 0 && k <= max
			if !inRange && s.SolveAssuming([]sat.Lit{guard}) != sat.Unsat {
				t.Fatalf("max=%d k=%d: guard must be unsatisfiable", max, k)
			}
			for v := int64(0); v <= max; v++ {
				if s.SolveAssuming([]sat.Lit{guard.Flip(), b.EqConst(a, v)}) != sat.Sat {
					t.Fatalf("max=%d k=%d: without the guard a=%d must be allowed", max, k, v)
				}
				want := sat.Unsat
				if v == k {
					want = sat.Sat
				}
				if got := s.SolveAssuming([]sat.Lit{guard, b.EqConst(a, v)}); got != want {
					t.Fatalf("max=%d k=%d: guard with a=%d: got %v, want %v", max, k, v, got, want)
				}
			}
		}
	}
}

// TestConstantOperandsAllocateNothing checks that gates over constant
// inputs fold away: adding zero and summing scaled Booleans whose set
// bits never meet allocate no variable, and a sum of two free bits costs only its half adder's two
// gates. The values must still come out right.
func TestConstantOperandsAllocateNothing(t *testing.T) {
	s := sat.NewSolver()
	b := New(s)
	x := b.Var(13)
	l1, l2 := sat.Lit(s.NewVar()), sat.Lit(s.NewVar())
	vars := s.NumVars()

	x0 := b.Add(x, b.Const(0))
	disjoint := b.Sum(b.ScaledBool(l1, 5), b.ScaledBool(l2, 10), b.Const(16))
	twice := b.Sum(b.ScaledBool(l1, 3), b.ScaledBool(l1, 3))
	consts := b.Add(b.Const(3), b.Const(5))
	if n := s.NumVars() - vars; n != 0 {
		t.Fatalf("circuits over constant operands allocated %d variables", n)
	}
	for i := 0; i < x.Width(); i++ {
		if x0.Bit(i) != x.Bit(i) {
			t.Fatalf("x+0 bit %d is a new literal", i)
		}
	}
	half := b.Add(b.ScaledBool(l1, 1), b.ScaledBool(l2, 1))
	if n := s.NumVars() - vars; n != 2 {
		t.Fatalf("half adder allocated %d variables, want 2", n)
	}

	b.s.AddClause(b.EqConst(x, 11))
	b.s.AddClause(l1)
	b.s.AddClause(l2.Flip())
	if s.Solve() != sat.Sat {
		t.Fatal("want SAT")
	}
	m := s.Model()
	for _, c := range []struct {
		name string
		a    Int
		want int64
	}{
		{"x+0", x0, 11},
		{"5·l1+10·l2+16", disjoint, 21},
		{"3·l1+3·l1", twice, 6},
		{"3+5", consts, 8},
		{"l1+l2", half, 1},
	} {
		if got := ValueOf(c.a, m); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}
