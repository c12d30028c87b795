// Package cardinality provides CNF encodings of cardinality constraints
// ("at most k of these literals are true") over a SAT solver: the
// sequential (Sinz) counter and the totalizer, whose unary outputs
// support incrementally tightening bounds — the mechanism behind the
// lexicographic optimizer in the reasoning engine.
// The compiler's per-kind at-most-one is a ladder it emits itself
// (internal/core/compile.go).
package cardinality

import (
	"fmt"

	"netarch/internal/sat"
)

// AtMostKSeq encodes sum(lits) ≤ k with the sequential (Sinz) counter:
// O(n·k) clauses and auxiliary variables. k ≥ 0.
func AtMostKSeq(s *sat.Solver, lits []sat.Lit, k int) {
	n := len(lits)
	if k < 0 {
		s.AddClause()
		return
	}
	if k >= n {
		return // trivially satisfied
	}
	if k == 0 {
		for _, l := range lits {
			s.AddClause(l.Flip())
		}
		return
	}
	// r[i][j]: after the first i+1 literals, at least j+1 are true.
	r := make([][]sat.Lit, n)
	for i := range r {
		r[i] = make([]sat.Lit, k)
		for j := range r[i] {
			r[i][j] = sat.Lit(s.NewVar())
		}
	}
	// Base: l0 -> r[0][0].
	s.AddClause(lits[0].Flip(), r[0][0])
	for j := 1; j < k; j++ {
		s.AddClause(r[0][j].Flip()) // cannot have ≥2 after one literal
	}
	for i := 1; i < n; i++ {
		// li -> r[i][0]
		s.AddClause(lits[i].Flip(), r[i][0])
		// r[i-1][j] -> r[i][j]
		for j := 0; j < k; j++ {
			s.AddClause(r[i-1][j].Flip(), r[i][j])
		}
		// li ∧ r[i-1][j-1] -> r[i][j]
		for j := 1; j < k; j++ {
			s.AddClause(lits[i].Flip(), r[i-1][j-1].Flip(), r[i][j])
		}
		// Overflow: li ∧ r[i-1][k-1] -> ⊥
		s.AddClause(lits[i].Flip(), r[i-1][k-1].Flip())
	}
}

// Totalizer is a unary counting network over a set of input literals. Its
// outputs satisfy: output[j] is true iff at least j+1 inputs are true.
// Bounds are imposed per solve by assuming AtMostLit/AtLeastLit, which is
// what the lexicographic optimizer uses to tighten objectives without
// rebuilding the formula; adding one as a unit clause imposes it for good.
type Totalizer struct {
	s       *sat.Solver
	inputs  []sat.Lit
	outputs []sat.Lit
}

// NewTotalizer builds a totalizer tree over lits. It emits O(n log n)
// auxiliary variables and O(n²) clauses in the worst case, but supports
// arbitrary bound tightening afterwards.
func NewTotalizer(s *sat.Solver, lits []sat.Lit) *Totalizer {
	t := &Totalizer{s: s, inputs: append([]sat.Lit(nil), lits...)}
	t.outputs = t.build(t.inputs)
	return t
}

// build recursively merges halves of the input into sorted unary outputs.
func (t *Totalizer) build(lits []sat.Lit) []sat.Lit {
	n := len(lits)
	if n <= 1 {
		return append([]sat.Lit(nil), lits...)
	}
	mid := n / 2
	left := t.build(lits[:mid])
	right := t.build(lits[mid:])
	out := make([]sat.Lit, n)
	for i := range out {
		out[i] = sat.Lit(t.s.NewVar())
	}
	// Merge: for all a in 0..len(left), b in 0..len(right) with a+b ≥ 1:
	//   left[a-1] ∧ right[b-1] -> out[a+b-1]   (counts add)
	// and the dual for the upper bound direction:
	//   ¬left[a] ∧ ¬right[b] -> ¬out[a+b]      (counts cannot exceed)
	for a := 0; a <= len(left); a++ {
		for b := 0; b <= len(right); b++ {
			if a+b >= 1 && a+b <= n {
				clause := make([]sat.Lit, 0, 3)
				if a > 0 {
					clause = append(clause, left[a-1].Flip())
				}
				if b > 0 {
					clause = append(clause, right[b-1].Flip())
				}
				clause = append(clause, out[a+b-1])
				t.s.AddClause(clause...)
			}
			if a+b < n {
				clause := make([]sat.Lit, 0, 3)
				if a < len(left) {
					clause = append(clause, left[a])
				}
				if b < len(right) {
					clause = append(clause, right[b])
				}
				clause = append(clause, out[a+b].Flip())
				t.s.AddClause(clause...)
			}
		}
	}
	return out
}

// N returns the number of inputs.
func (t *Totalizer) N() int { return len(t.inputs) }

// AtMostLit returns a literal that, when assumed, imposes sum ≤ k.
// For k ≥ n it returns 0 (no assumption needed); the caller must skip it.
func (t *Totalizer) AtMostLit(k int) sat.Lit {
	if k < 0 {
		panic(fmt.Sprintf("cardinality: negative bound %d", k))
	}
	if k >= len(t.outputs) {
		return 0
	}
	return t.outputs[k].Flip() // ¬output[k]: fewer than k+1 inputs true
}

// AtLeastLit returns a literal that, when assumed, imposes sum ≥ k,
// or 0 when k ≤ 0.
func (t *Totalizer) AtLeastLit(k int) sat.Lit {
	if k <= 0 {
		return 0
	}
	if k > len(t.outputs) {
		panic(fmt.Sprintf("cardinality: bound %d exceeds %d inputs", k, len(t.outputs)))
	}
	return t.outputs[k-1]
}

// CountTrue returns the number of input literals true under the model
// (model[i] is the value of variable i+1), a convenience for optimizers
// reading off objective values.
func (t *Totalizer) CountTrue(model []bool) int {
	n := 0
	for _, l := range t.inputs {
		v := model[l.Var()-1]
		if v != l.Neg() {
			n++
		}
	}
	return n
}
