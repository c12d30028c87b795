package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Lit is a CNF literal: a variable with a sign. Positive literals are the
// variable itself; negative literals are its negation. The integer value is
// +int(v) or -int(v); 0 is invalid.
type Lit int32

// MkLit builds a literal from a variable and a sign (neg == true means ¬v).
func MkLit(v Var, neg bool) Lit {
	if neg {
		return -Lit(v)
	}
	return Lit(v)
}

// Var returns the literal's variable.
func (l Lit) Var() Var {
	if l < 0 {
		return Var(-l)
	}
	return Var(l)
}

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l < 0 }

// Flip returns the complementary literal.
func (l Lit) Flip() Lit { return -l }

// Clause is a disjunction of literals.
type Clause []Lit

// Clone returns a copy of the clause.
func (c Clause) Clone() Clause { return append(Clause(nil), c...) }

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
func (c *CNF) AddClause(lits ...Lit) {
	cl := make(Clause, len(lits))
	copy(cl, lits)
	for _, l := range lits {
		if int(l.Var()) > c.NumVars {
			c.NumVars = int(l.Var())
		}
	}
	c.Clauses = append(c.Clauses, cl)
}

// Eval evaluates the CNF under the assignment (vars absent are false).
func (c *CNF) Eval(assign map[Var]bool) bool {
	for _, cl := range c.Clauses {
		sat := false
		for _, l := range cl {
			if assign[l.Var()] != l.Neg() {
				sat = true
				break
			}
		}
		if !sat {
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
// Auxiliary variables are allocated from the supplied Vocabulary so that
// they never collide with knowledge-base atoms.
type Converter struct {
	Vocab *Vocabulary
	CNF   *CNF

	// cache maps And/Or subformulas to their definition literal by
	// structural equality (hash, then Equal); nil until the first
	// definition. It avoids duplicate aux variables when the same rule
	// body is asserted repeatedly (common for generated knowledge bases).
	cache formulaMap

	// fresh, when non-nil, replaces Vocab.Fresh("") as the auxiliary-
	// variable allocator. Shard converters (ConvertShards) use it to
	// number aux variables from a local counter so each assertion can be
	// converted independently of every other.
	fresh func() Var
}

// freshAux allocates one auxiliary variable.
func (cv *Converter) freshAux() Var {
	if cv.fresh != nil {
		return cv.fresh()
	}
	return cv.Vocab.Fresh("")
}

// NewConverter returns a Converter emitting into a fresh CNF.
func NewConverter(vocab *Vocabulary) *Converter {
	return &Converter{
		Vocab: vocab,
		CNF:   &CNF{NumVars: vocab.Len()},
	}
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
		cv.CNF.AddClause(clause...)
		return
	}
	cv.CNF.AddClause(cv.lit(f))
}

// AssertClause adds a raw clause.
func (cv *Converter) AssertClause(lits ...Lit) { cv.CNF.AddClause(lits...) }

// lit returns a literal l such that l → f holds in every model of the CNF
// (Plaisted–Greenbaum, positive polarity context, which is sound for
// assertions).
func (cv *Converter) lit(f Formula) Lit {
	switch f.kind {
	case KindVar:
		return Lit(f.v)
	case KindNot:
		return cv.negLit(f.args[0])
	case KindTrue, KindFalse:
		// Handled by Simplify in Assert; still be defensive.
		v := cv.freshAux()
		cv.growTo(v)
		if f.kind == KindTrue {
			cv.CNF.AddClause(Lit(v))
		} else {
			cv.CNF.AddClause(-Lit(v))
		}
		return Lit(v)
	}
	if l, ok := cv.cache.get(f); ok {
		return Lit(l)
	}
	v := cv.freshAux()
	cv.growTo(v)
	d := Lit(v)
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
		cv.CNF.AddClause(clause...)
	}
	if cv.cache == nil {
		cv.cache = formulaMap{}
	}
	cv.cache.put(f, int32(d))
	return d
}

// negLit returns a literal l such that l → ¬f.
func (cv *Converter) negLit(f Formula) Lit {
	switch f.kind {
	case KindVar:
		return -Lit(f.v)
	case KindNot:
		return cv.lit(f.args[0])
	}
	// l → ¬f  ≡  l → (¬a1 ∨ …) for And, via De Morgan; reuse lit on the
	// pushed-in form. NNF push is linear here because Simplify already
	// flattened the tree.
	return cv.lit(NNF(Not(f)))
}

// growTo ensures the CNF var count covers v.
func (cv *Converter) growTo(v Var) {
	if int(v) > cv.CNF.NumVars {
		cv.CNF.NumVars = int(v)
	}
}

// DirectCNF converts f to CNF by distribution, without auxiliary variables.
// The result is logically equivalent to f (not merely equisatisfiable) but
// can be exponentially large; it is intended for tests and for the tiny
// guard formulas attached to partial-order edges.
func DirectCNF(f Formula) []Clause {
	f = NNF(Simplify(f))
	return distribute(f)
}

func distribute(f Formula) []Clause {
	switch f.kind {
	case KindTrue:
		return nil
	case KindFalse:
		return []Clause{{}}
	case KindVar:
		return []Clause{{Lit(f.v)}}
	case KindNot:
		// NNF guarantees the argument is a variable.
		return []Clause{{-Lit(f.args[0].v)}}
	case KindAnd:
		var out []Clause
		for _, a := range f.args {
			out = append(out, distribute(a)...)
		}
		return out
	case KindOr:
		out := []Clause{{}}
		for _, a := range f.args {
			sub := distribute(a)
			next := make([]Clause, 0, len(out)*len(sub))
			for _, c1 := range out {
				for _, c2 := range sub {
					merged := make(Clause, 0, len(c1)+len(c2))
					merged = append(merged, c1...)
					merged = append(merged, c2...)
					next = append(next, normalizeClause(merged))
				}
			}
			out = compactClauses(next)
		}
		return out
	}
	panic("logic: invalid formula kind " + f.kind.String())
}

// normalizeClause sorts literals by variable (negative first within a
// variable) and deduplicates; a tautological clause (containing both l and
// ¬l) is returned as nil to be dropped by compactClauses.
func normalizeClause(c Clause) Clause {
	sort.Slice(c, func(i, j int) bool {
		vi, vj := c[i].Var(), c[j].Var()
		if vi != vj {
			return vi < vj
		}
		return c[i] < c[j]
	})
	out := c[:0]
	var prev Lit
	for i, l := range c {
		if i > 0 && l == prev {
			continue
		}
		out = append(out, l)
		prev = l
	}
	for i := 0; i+1 < len(out); i++ {
		if out[i].Var() == out[i+1].Var() {
			return nil // contains l and ¬l: tautology
		}
	}
	return out
}

func compactClauses(cs []Clause) []Clause {
	out := cs[:0]
	for _, c := range cs {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}
