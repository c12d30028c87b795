package logic

import (
	"math/rand"
	"testing"

	"netarch/internal/sat"
)

// clauseList is a clause stream read back into slices, over variables
// 1..NumVars, for the tests to inspect and compare.
type clauseList struct {
	NumVars int
	Clauses [][]sat.Lit
}

// AddClause appends a copy of lits.
func (c *clauseList) AddClause(lits ...sat.Lit) {
	c.Clauses = append(c.Clauses, append(make([]sat.Lit, 0, len(lits)), lits...))
}

// Eval evaluates the clauses under the assignment (vars absent are false).
func (c *clauseList) Eval(assign map[Var]bool) bool {
	for _, cl := range c.Clauses {
		ok := false
		for _, l := range cl {
			if assign[Var(l.Var())] != l.Neg() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// readClauses reads the clauses of cs back, over vars variables.
func readClauses(cs *sat.Clauses, vars int) *clauseList {
	c := &clauseList{NumVars: vars}
	cs.Each(func(lits []sat.Lit) { c.AddClause(lits...) })
	return c
}

// convertAll converts fs in order into one stream, each with Convert,
// as a compiler does, and reads the clauses back.
func convertAll(vars int, fs []Formula) *clauseList {
	var cs sat.Clauses
	for _, f := range fs {
		vars = Convert(&cs, vars, f)
	}
	return readClauses(&cs, vars)
}

// cnfSatisfiableBrute brute-forces satisfiability of a CNF over its first
// nOrig variables being projected: it checks whether any assignment over
// all NumVars satisfies the CNF.
func cnfSatisfiableBrute(c *clauseList) (bool, map[Var]bool) {
	n := c.NumVars
	if n > 22 {
		panic("cnfSatisfiableBrute: too many variables")
	}
	assign := make(map[Var]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 1; i <= n; i++ {
			assign[Var(i)] = mask&(1<<(i-1)) != 0
		}
		if c.Eval(assign) {
			out := make(map[Var]bool, n)
			for k, v := range assign {
				out[k] = v
			}
			return true, out
		}
	}
	return false, nil
}

// formulaSatisfiableBrute brute-forces satisfiability of a formula.
func formulaSatisfiableBrute(f Formula) bool {
	vars := varSet(f)
	assign := make(map[Var]bool, len(vars))
	for mask := 0; mask < 1<<len(vars); mask++ {
		for i, v := range vars {
			assign[v] = mask&(1<<i) != 0
		}
		if f.Eval(assign) {
			return true
		}
	}
	return false
}

// TestTseitinEquisatisfiable converts random formulas, then random
// formulas with repeated operands, complementary pairs and repeated
// subformulas, which Convert defines as they occur. The second family
// is sized so its largest CNF (22 variables) fits the brute force.
func TestTseitinEquisatisfiable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 250; i++ {
		checkEquisatisfiable(t, randFormula(r, 5, 25))
	}
	r = rand.New(rand.NewSource(8))
	for i := 0; i < 250; i++ {
		checkEquisatisfiable(t, redundantFormula(r, 5, 12))
	}
}

// checkEquisatisfiable converts f over its five atoms and checks, by
// brute force, that under every assignment of the atoms the clauses are
// satisfiable exactly when f is true: the CNF is equisatisfiable with f,
// and every model of it satisfies f.
func checkEquisatisfiable(t *testing.T, f Formula) {
	t.Helper()
	const atoms = 5
	ext := cnfExtendable(convertAll(atoms, []Formula{f}), atoms)
	assign := make(map[Var]bool, atoms)
	for a, got := range ext {
		for v := Var(1); v <= atoms; v++ {
			assign[v] = a&(1<<(v-1)) != 0
		}
		if want := f.Eval(assign); got != want {
			t.Fatalf("%v under %v: clauses satisfiable %v, formula %v", f, assign, got, want)
		}
	}
}

// cnfExtendable reports, for each assignment of variables 1..atoms (bit
// v-1 of the index holds variable v), whether some assignment of the
// other variables satisfies c, by brute force over all c.NumVars.
func cnfExtendable(c *clauseList, atoms int) []bool {
	if c.NumVars > 22 {
		panic("cnfExtendable: too many variables")
	}
	ext := make([]bool, 1<<atoms)
	for mask := 0; mask < 1<<c.NumVars; mask++ {
		if a := mask & (len(ext) - 1); !ext[a] {
			ext[a] = satisfiedBy(c, mask)
		}
	}
	return ext
}

// satisfiedBy reports whether the assignment mask (bit v-1 holds
// variable v) satisfies every clause of c.
func satisfiedBy(c *clauseList, mask int) bool {
	for _, cl := range c.Clauses {
		ok := false
		for _, l := range cl {
			if (mask>>(l.Var()-1)&1 == 1) != l.Neg() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func TestAssertTrueFalse(t *testing.T) {
	vo := NewVocabulary()
	if cnf := convertAll(vo.Len(), []Formula{True}); len(cnf.Clauses) != 0 {
		t.Error("asserting true must add no clauses")
	}
	if sat, _ := cnfSatisfiableBrute(convertAll(vo.Len(), []Formula{True, False})); sat {
		t.Error("asserting false must make the CNF unsatisfiable")
	}
}

func TestAssertConjunctionSplits(t *testing.T) {
	vo := NewVocabulary()
	a, b := V(vo.Get("a")), V(vo.Get("b"))
	cnf := convertAll(vo.Len(), []Formula{And(a, b)})
	// Both conjuncts become unit clauses, no aux variables needed.
	if len(cnf.Clauses) != 2 {
		t.Fatalf("got %d clauses, want 2", len(cnf.Clauses))
	}
	if cnf.NumVars != 2 {
		t.Errorf("got %d vars, want 2 (no aux vars)", cnf.NumVars)
	}
}

func TestAssertDisjunctionSingleClause(t *testing.T) {
	vo := NewVocabulary()
	a, b, c := V(vo.Get("a")), V(vo.Get("b")), V(vo.Get("c"))
	if cnf := convertAll(vo.Len(), []Formula{Or(a, Not(b), c)}); len(cnf.Clauses) != 1 {
		t.Fatalf("flat disjunction should be one clause, got %d", len(cnf.Clauses))
	}
}
