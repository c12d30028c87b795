package maxsat

import (
	"fmt"

	"netarch/internal/cardinality"
	"netarch/internal/intlin"
	"netarch/internal/sat"
)

// Objective is one minimization target: a non-negative integer function
// of the solver's variables whose upper bounds can be imposed per-solve
// through assumption literals. Implementations lower the function into
// the solver once, at construction. BoundLit afterwards looks a literal
// up (totalizer outputs) or builds one comparator against the already-
// built sum, memoized per bound — never a re-encoding of the function
// itself. The bit descent of an IntObjective assumes the sum's own
// bits and calls no BoundLit; lexicographic holds and Pareto boxes do.
type Objective interface {
	// BoundLit returns an assumption literal imposing value ≤ k, or 0
	// when the bound is vacuous (k at or above Max). k must be ≥ 0.
	BoundLit(k int64) sat.Lit
	// Eval reads the objective value off a model.
	Eval(model []bool) int64
	// Max is the largest value the objective can take.
	Max() int64
}

// CountObjective counts true literals through a cardinality totalizer:
// the canonical soft-constraint lowering for unit weights (deployed
// systems, violated preference edges). Bound literals are totalizer
// outputs — one tree serves every k, which is what makes descending
// bounds free of re-encoding.
type CountObjective struct {
	tot *cardinality.Totalizer
}

// NewCount lowers count(lits) into s and returns the objective. The
// totalizer clauses are emitted here, once.
func NewCount(s *sat.Solver, lits []sat.Lit) *CountObjective {
	return &CountObjective{tot: cardinality.NewTotalizer(s, lits)}
}

// BoundLit implements Objective via the totalizer's unary outputs.
func (o *CountObjective) BoundLit(k int64) sat.Lit {
	if k < 0 {
		panic(fmt.Sprintf("maxsat: negative bound %d", k))
	}
	if k >= int64(o.tot.N()) {
		return 0
	}
	return o.tot.AtMostLit(int(k))
}

// Eval implements Objective.
func (o *CountObjective) Eval(model []bool) int64 { return int64(o.tot.CountTrue(model)) }

// Max implements Objective.
func (o *CountObjective) Max() int64 { return int64(o.tot.N()) }

// IntObjective minimizes a bit-blasted arithmetic term (hardware cost,
// cores, watts, ports). The bit descent fixes the term's own output
// bits and builds nothing. BoundLit emits a reified ≤-comparator,
// memoized per bound, so a bound revisited by a Pareto box or a
// lexicographic hold costs nothing after the first emission.
type IntObjective struct {
	b      *intlin.Builder
	term   intlin.Int
	bounds map[int64]sat.Lit // nil until the first comparator
}

// NewInt wraps an already-built arithmetic term as an objective. b must
// be the builder attached to the solver being searched (for a clone,
// intlin.Attach over the clone).
func NewInt(b *intlin.Builder, term intlin.Int) *IntObjective {
	return &IntObjective{b: b, term: term}
}

// Width returns the number of output bits of the term: the binary
// descent solves at most once per bit.
func (o *IntObjective) Width() int { return o.term.Width() }

// BoundLit implements Objective with a memoized reified comparator.
func (o *IntObjective) BoundLit(k int64) sat.Lit {
	if k < 0 {
		panic(fmt.Sprintf("maxsat: negative bound %d", k))
	}
	if k >= o.term.Max() {
		return 0
	}
	if l, ok := o.bounds[k]; ok {
		return l
	}
	l := o.b.LeqConst(o.term, k)
	if o.bounds == nil {
		o.bounds = make(map[int64]sat.Lit)
	}
	o.bounds[k] = l
	return l
}

// Eval implements Objective.
func (o *IntObjective) Eval(model []bool) int64 { return intlin.ValueOf(o.term, model) }

// Max implements Objective.
func (o *IntObjective) Max() int64 { return o.term.Max() }

// NewWeighted lowers a weighted soft-clause set — pay weights[i] when
// lits[i] is true — into a sum circuit and returns the objective
// minimizing the total penalty. Non-positive weights contribute nothing
// and are skipped. This is the classic MaxSAT view: each lits[i] is the
// relaxation indicator of a soft clause with the given weight.
func NewWeighted(b *intlin.Builder, lits []sat.Lit, weights []int64) (*IntObjective, error) {
	if len(lits) != len(weights) {
		return nil, fmt.Errorf("maxsat: %d literals but %d weights", len(lits), len(weights))
	}
	terms := []intlin.Int{b.Const(0)}
	for i, l := range lits {
		if weights[i] > 0 {
			terms = append(terms, b.ScaledBool(l, weights[i]))
		}
	}
	return NewInt(b, b.Sum(terms...)), nil
}
