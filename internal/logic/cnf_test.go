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

// newConverter returns a converter over a fresh stream and vars atoms.
// Unlike Convert, which gives each assertion a cache of its own, its
// Assert calls share one Tseitin cache.
func newConverter(vars int) *converter {
	return &converter{out: new(sat.Clauses), vars: vars}
}

// Assert converts f with the converter's cache.
func (cv *converter) Assert(f Formula) { cv.assert(Simplify(f)) }

// clauses reads back what cv has emitted.
func (cv *converter) clauses() *clauseList { return readClauses(cv.out, cv.vars) }

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

func TestTseitinEquisatisfiable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 250; i++ {
		vo := NewVocabulary()
		for j := 0; j < 5; j++ {
			vo.Fresh("") // allocate the 5 base variables
		}
		f := randFormula(r, 5, 25)
		cnf := convertAll(vo.Len(), []Formula{f})
		wantSat := formulaSatisfiableBrute(f)
		gotSat, model := cnfSatisfiableBrute(cnf)
		if wantSat != gotSat {
			t.Fatalf("equisatisfiability broken for %v: formula sat=%v cnf sat=%v",
				f, wantSat, gotSat)
		}
		if gotSat {
			// Soundness: a CNF model restricted to original vars must
			// satisfy the original formula (Plaisted–Greenbaum keeps
			// this direction).
			if !f.Eval(model) {
				t.Fatalf("CNF model does not satisfy original formula %v", f)
			}
		}
	}
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

func TestConverterCacheReuse(t *testing.T) {
	vo := NewVocabulary()
	a, b, c := V(vo.Get("a")), V(vo.Get("b")), V(vo.Get("c"))
	sub := And(a, b)
	cv := newConverter(vo.Len())
	cv.Assert(Or(sub, c))
	n1 := cv.vars
	cv.Assert(Or(sub, Not(c)))
	n2 := cv.vars
	if n2 != n1 {
		t.Errorf("repeated subformula must reuse its aux var: %d -> %d", n1, n2)
	}
}
