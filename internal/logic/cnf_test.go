package logic

import (
	"math/rand"
	"testing"
)

// Eval evaluates the CNF under the assignment (vars absent are false).
func (c *CNF) Eval(assign map[Var]bool) bool {
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

// cnfSatisfiableBrute brute-forces satisfiability of a CNF over its first
// nOrig variables being projected: it checks whether any assignment over
// all NumVars satisfies the CNF.
func cnfSatisfiableBrute(c *CNF) (bool, map[Var]bool) {
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

func TestClauseString(t *testing.T) {
	c := Clause{1, -2}
	if got := c.String(); got != "(x1 | !x2)" {
		t.Errorf("Clause.String: got %q", got)
	}
}

func TestTseitinEquisatisfiable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 250; i++ {
		vo := NewVocabulary()
		for j := 0; j < 5; j++ {
			vo.Fresh("") // allocate the 5 base variables
		}
		f := randFormula(r, 5, 25)
		cv := &Converter{CNF: &CNF{NumVars: vo.Len()}}
		cv.Assert(f)
		wantSat := formulaSatisfiableBrute(f)
		gotSat, model := cnfSatisfiableBrute(cv.CNF)
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
	cv := &Converter{CNF: &CNF{NumVars: vo.Len()}}
	cv.Assert(True)
	if len(cv.CNF.Clauses) != 0 {
		t.Error("asserting true must add no clauses")
	}
	cv.Assert(False)
	if sat, _ := cnfSatisfiableBrute(cv.CNF); sat {
		t.Error("asserting false must make the CNF unsatisfiable")
	}
}

func TestAssertConjunctionSplits(t *testing.T) {
	vo := NewVocabulary()
	a, b := V(vo.Get("a")), V(vo.Get("b"))
	cv := &Converter{CNF: &CNF{NumVars: vo.Len()}}
	cv.Assert(And(a, b))
	// Both conjuncts become unit clauses, no aux variables needed.
	if len(cv.CNF.Clauses) != 2 {
		t.Fatalf("got %d clauses, want 2", len(cv.CNF.Clauses))
	}
	if cv.CNF.NumVars != 2 {
		t.Errorf("got %d vars, want 2 (no aux vars)", cv.CNF.NumVars)
	}
}

func TestAssertDisjunctionSingleClause(t *testing.T) {
	vo := NewVocabulary()
	a, b, c := V(vo.Get("a")), V(vo.Get("b")), V(vo.Get("c"))
	cv := &Converter{CNF: &CNF{NumVars: vo.Len()}}
	cv.Assert(Or(a, Not(b), c))
	if len(cv.CNF.Clauses) != 1 {
		t.Fatalf("flat disjunction should be one clause, got %d", len(cv.CNF.Clauses))
	}
}

func TestConverterCacheReuse(t *testing.T) {
	vo := NewVocabulary()
	a, b, c := V(vo.Get("a")), V(vo.Get("b")), V(vo.Get("c"))
	sub := And(a, b)
	cv := &Converter{CNF: &CNF{NumVars: vo.Len()}}
	cv.Assert(Or(sub, c))
	n1 := cv.CNF.NumVars
	cv.Assert(Or(sub, Not(c)))
	n2 := cv.CNF.NumVars
	if n2 != n1 {
		t.Errorf("repeated subformula must reuse its aux var: %d -> %d", n1, n2)
	}
}

func TestCNFEvalAndString(t *testing.T) {
	var c CNF
	c.AddClause(1, -2)
	c.AddClause(2)
	if c.NumVars != 2 {
		t.Errorf("NumVars: got %d, want 2", c.NumVars)
	}
	if !c.Eval(map[Var]bool{1: true, 2: true}) {
		t.Error("satisfying assignment rejected")
	}
	if c.Eval(map[Var]bool{1: false, 2: true}) {
		t.Error("falsifying assignment accepted")
	}
	if got := c.String(); got != "(x1 | !x2) & (x2)" {
		t.Errorf("String: got %q", got)
	}
}
