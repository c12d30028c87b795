package logic

import "netarch/internal/sat"

// converter appends the clauses of formulas to a clause stream via the
// Tseitin transformation with Plaisted–Greenbaum polarity optimization:
// definitional clauses are only emitted for the polarities in which a
// subformula actually occurs. Auxiliary variables are numbered upward
// from vars, so every variable of an asserted formula must be at most
// the vars the converter starts with; they then never collide with
// knowledge-base atoms.
type converter struct {
	out  *sat.Clauses
	vars int // variables in use: the atoms, then the auxiliaries so far

	// buf holds the literals of the disjunctions being built, as a
	// stack: a disjunction's operands may define subformulas, whose
	// clauses go to out first, above its own partial clause.
	buf []sat.Lit

	// cache maps And/Or subformulas to their definition literal by
	// structural equality (hash, then Equal); nil until the first
	// definition. It avoids duplicate aux variables when the same
	// subformula occurs twice in one assertion.
	cache formulaMap
}

// Convert appends to out clauses equisatisfiable with f, numbering the
// auxiliary variables it allocates from vars+1, and returns vars plus
// their count. Every variable occurring in f must be ≤ vars. Asserting
// True appends nothing and asserting False the empty clause. Each call
// has a Tseitin cache of its own: successive calls number their
// auxiliaries in successive blocks, and a subformula repeated across
// calls gets one definition per call.
func Convert(out *sat.Clauses, vars int, f Formula) int {
	cv := converter{out: out, vars: vars}
	cv.assert(Simplify(f))
	return cv.vars
}

// freshAux allocates one auxiliary variable.
func (cv *converter) freshAux() sat.Lit {
	cv.vars++
	return sat.Lit(cv.vars)
}

// assert adds the clauses of a simplified formula. The conjuncts of a
// simplified And are themselves simplified, so they recurse as they are.
func (cv *converter) assert(f Formula) {
	switch f.kind {
	case KindTrue:
		return
	case KindFalse:
		cv.out.Add() // empty clause: unsatisfiable
		return
	case KindAnd:
		for _, a := range f.args {
			cv.assert(a)
		}
		return
	case KindOr:
		// Top-level disjunctions become a single clause over definition
		// literals, avoiding one aux var per assertion.
		cv.clause(0, f.args)
		return
	}
	cv.out.Add(cv.lit(f))
}

// clause appends the clause (head ∨ lit(a1) ∨ … ∨ lit(an)), leaving out
// head when it is 0, after the definitions its operands need.
func (cv *converter) clause(head sat.Lit, args []Formula) {
	start := len(cv.buf)
	if head != 0 {
		cv.buf = append(cv.buf, head)
	}
	for _, a := range args {
		l := cv.lit(a)
		cv.buf = append(cv.buf, l)
	}
	cv.out.Add(cv.buf[start:]...)
	cv.buf = cv.buf[:start]
}

// lit returns a literal l such that l → f holds in every model of the
// clauses (Plaisted–Greenbaum, positive polarity context, which is sound
// for assertions).
func (cv *converter) lit(f Formula) sat.Lit {
	switch f.kind {
	case KindVar:
		return sat.Lit(f.v)
	case KindNot:
		return cv.negLit(f.args[0])
	case KindTrue, KindFalse:
		// Handled by Simplify in Convert; still be defensive.
		d := cv.freshAux()
		if f.kind == KindTrue {
			cv.out.Add(d)
		} else {
			cv.out.Add(-d)
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
			cv.out.Add(-d, cv.lit(a))
		}
	case KindOr:
		// d → (a1 ∨ … ∨ an): clause (¬d ∨ a1 ∨ … ∨ an)
		cv.clause(-d, f.args)
	}
	if cv.cache == nil {
		cv.cache = formulaMap{}
	}
	cv.cache.put(f, int32(d))
	return d
}

// negLit returns a literal l such that l → ¬f.
func (cv *converter) negLit(f Formula) sat.Lit {
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
