package logic

import (
	"fmt"
	"strings"

	"netarch/internal/sat"
)

// Clause is a disjunction of solver literals; literal +v or -v stands
// for variable v or its negation.
type Clause []sat.Lit

// String renders the clause as "(l1 | l2 | ...)".
func (c Clause) String() string {
	parts := make([]string, len(c))
	for i, l := range c {
		if l < 0 {
			parts[i] = fmt.Sprintf("!x%d", -l)
		} else {
			parts[i] = fmt.Sprintf("x%d", l)
		}
	}
	return "(" + strings.Join(parts, " | ") + ")"
}

// CNF is a conjunction of clauses over variables 1..NumVars.
type CNF struct {
	NumVars int
	Clauses []Clause
}

// AddClause appends a clause (copying the literals).
func (c *CNF) AddClause(lits ...sat.Lit) {
	c.add(append(make(Clause, 0, len(lits)), lits...))
}

// add appends cl without copying it; the CNF takes ownership.
func (c *CNF) add(cl Clause) {
	for _, l := range cl {
		c.NumVars = max(c.NumVars, l.Var())
	}
	c.Clauses = append(c.Clauses, cl)
}

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

// String renders the CNF as a conjunction of clauses.
func (c *CNF) String() string {
	parts := make([]string, len(c.Clauses))
	for i, cl := range c.Clauses {
		parts[i] = cl.String()
	}
	return strings.Join(parts, " & ")
}

// Converter turns formulas into CNF via the Tseitin transformation with
// Plaisted–Greenbaum polarity optimization: definitional clauses are only
// emitted for the polarities in which a subformula actually occurs.
// Auxiliary variables are numbered upward from CNF.NumVars, so every
// variable of an asserted formula must be at most the NumVars the CNF
// starts with; they then never collide with knowledge-base atoms.
type Converter struct {
	CNF *CNF

	// cache maps And/Or subformulas to their definition literal by
	// structural equality (hash, then Equal); nil until the first
	// definition. It avoids duplicate aux variables when the same rule
	// body is asserted repeatedly (common for generated knowledge bases).
	cache formulaMap
}

// freshAux allocates one auxiliary variable.
func (cv *Converter) freshAux() sat.Lit {
	cv.CNF.NumVars++
	return sat.Lit(cv.CNF.NumVars)
}

// Assert adds clauses equivalent (equisatisfiable) to f to the CNF.
// Asserting False adds the empty clause.
func (cv *Converter) Assert(f Formula) { cv.assert(Simplify(f)) }

// assert adds the clauses of a simplified formula. The conjuncts of a
// simplified And are themselves simplified, so they recurse as they are.
func (cv *Converter) assert(f Formula) {
	switch f.kind {
	case KindTrue:
		return
	case KindFalse:
		cv.CNF.AddClause() // empty clause: unsatisfiable
		return
	case KindAnd:
		for _, a := range f.args {
			cv.assert(a)
		}
		return
	}
	// Top-level disjunctions become a single clause over definition
	// literals, avoiding one aux var per assertion.
	if f.kind == KindOr {
		clause := make(Clause, 0, len(f.args))
		for _, a := range f.args {
			clause = append(clause, cv.lit(a))
		}
		cv.CNF.add(clause)
		return
	}
	cv.CNF.AddClause(cv.lit(f))
}

// lit returns a literal l such that l → f holds in every model of the CNF
// (Plaisted–Greenbaum, positive polarity context, which is sound for
// assertions).
func (cv *Converter) lit(f Formula) sat.Lit {
	switch f.kind {
	case KindVar:
		return sat.Lit(f.v)
	case KindNot:
		return cv.negLit(f.args[0])
	case KindTrue, KindFalse:
		// Handled by Simplify in Assert; still be defensive.
		d := cv.freshAux()
		if f.kind == KindTrue {
			cv.CNF.AddClause(d)
		} else {
			cv.CNF.AddClause(-d)
		}
		return d
	}
	if l, ok := cv.cache.get(f); ok {
		return sat.Lit(l)
	}
	d := cv.freshAux()
	switch f.kind {
	case KindAnd:
		// d → (a1 ∧ … ∧ an): clauses (¬d ∨ ai)
		for _, a := range f.args {
			cv.CNF.AddClause(-d, cv.lit(a))
		}
	case KindOr:
		// d → (a1 ∨ … ∨ an): clause (¬d ∨ a1 ∨ … ∨ an)
		clause := make(Clause, 0, len(f.args)+1)
		clause = append(clause, -d)
		for _, a := range f.args {
			clause = append(clause, cv.lit(a))
		}
		cv.CNF.add(clause)
	}
	if cv.cache == nil {
		cv.cache = formulaMap{}
	}
	cv.cache.put(f, int32(d))
	return d
}

// negLit returns a literal l such that l → ¬f.
func (cv *Converter) negLit(f Formula) sat.Lit {
	switch f.kind {
	case KindVar:
		return -sat.Lit(f.v)
	case KindNot:
		return cv.lit(f.args[0])
	}
	// l → ¬f  ≡  l → (¬a1 ∨ …) for And, via De Morgan; reuse lit on the
	// pushed-in form. NNF push is linear here because Simplify already
	// flattened the tree.
	return cv.lit(NNF(Not(f)))
}

// Convert converts a sequence of assertions to one CNF over variables
// 1..base plus the auxiliary variables it allocates. Every variable
// occurring in fs must be ≤ base. Each assertion gets its own Converter,
// and so its own Tseitin cache, appending into the shared CNF: its aux
// variables are numbered right after the previous assertion's, and a
// subformula repeated across assertions gets one definition per
// assertion.
func Convert(base int, fs []Formula) *CNF {
	cnf := &CNF{NumVars: base}
	for _, f := range fs {
		(&Converter{CNF: cnf}).Assert(f)
	}
	return cnf
}
