// Package maxsat implements assumption-based MaxSAT optimization over
// the arena SAT solver. Soft constraints are lowered into circuits once —
// cardinality totalizers for unit-weight counts, bit-blasted sums for
// weighted ones — and every bound travels as a per-solve assumption, so
// tightening an objective never re-encodes the formula. Single-objective
// minimization has one descent. On a weighted sum it fixes the sum's own
// output bits from the most significant down, assuming a prefix of them
// per solve, so it builds no comparator; on a count it bisects over the
// totalizer outputs. On top of it the package provides stratified
// lexicographic solving for multi-objective queries and Pareto-front
// enumeration via dominance-blocking clauses.
//
// Every search tracks a *proven lower bound* alongside the best
// witnessed value: when a resource budget interrupts the solver
// mid-search, the caller still gets a bounded-suboptimality result —
// the true optimum lies in [LowerBound, Value] — instead of a bare
// witness. DESIGN.md §15 documents the contract.
package maxsat

import (
	"errors"

	"netarch/internal/sat"
)

// ErrInfeasible reports that the hard assumptions are unsatisfiable:
// there is nothing to optimize. Callers that established feasibility
// beforehand treat it as an internal error.
var ErrInfeasible = errors.New("maxsat: hard assumptions unsatisfiable")

// Options tunes one minimization (or one lexicographic/Pareto run).
type Options struct {
	// Hard are assumption literals every solve runs under (query
	// selectors, earlier lexicographic bounds, cube assumptions).
	Hard []sat.Lit
	// Phase, when non-nil, is called before every solver invocation so
	// the caller can re-arm per-phase resource budgets.
	Phase func()
}

func (o *Options) phase() {
	if o.Phase != nil {
		o.Phase()
	}
}

// Result is the outcome of minimizing one objective.
type Result struct {
	// Value is the best witnessed objective value — an upper bound on
	// the optimum, and the optimum itself when Exact. Meaningless
	// unless Witnessed.
	Value int64
	// LowerBound is the proven lower bound on the optimum: every value
	// below it has been refuted by an Unsat verdict (or by the trivial
	// bound 0). Value == LowerBound iff Exact.
	LowerBound int64
	// Exact reports the optimum was certified. False means a resource
	// budget stopped the search early.
	Exact bool
	// Witnessed reports that at least one model was seen; when false
	// the budget tripped before the first Sat and Value/Model are unset.
	Witnessed bool
	// Model is a copy of the best model found (the one achieving Value).
	Model []bool
}

// Minimize finds the minimum of obj subject to opts.Hard. It never adds
// permanent clauses or asserts the optimum — bounds travel as
// assumptions — so the solver can be reused for further levels, Pareto
// pushes, or unrelated queries. An integer objective descends its
// output bits (descendBits), a count bisects its totalizer outputs
// (bisect); either way every Unsat raises the proven lower bound. On a
// resource trip the result carries the best witness and that lower
// bound (Exact=false); only a trip before any model yields
// Witnessed=false.
func Minimize(s *sat.Solver, obj Objective, opts Options) (*Result, error) {
	opts.phase()
	switch s.SolveAssuming(opts.Hard) {
	case sat.Sat:
	case sat.Unsat:
		return nil, ErrInfeasible
	default:
		return &Result{}, nil
	}
	r := &Result{
		Value:     obj.Eval(s.Model()),
		Witnessed: true,
		Model:     append([]bool(nil), s.Model()...),
	}
	if o, ok := obj.(*IntObjective); ok {
		descendBits(s, o, &opts, r)
	} else {
		bisect(s, obj, &opts, r)
	}
	return r, nil
}

// assume returns opts.Hard plus the bound literal (skipped when the
// bound is vacuous), reusing buf across trials.
func assume(hard []sat.Lit, bound sat.Lit, buf []sat.Lit) []sat.Lit {
	out := append(buf[:0], hard...)
	if bound != 0 {
		out = append(out, bound)
	}
	return out
}

// coreContains reports whether the bound literal appears in the final
// conflict. An Unsat whose core omits the bound was derived from the
// hard assumptions alone — the trial bound played no part — so no
// further relaxation of the bound can help: the search can certify the
// witnessed value immediately instead of scanning on. This is the
// assumption-based form of unsat-core-guided bound tightening.
func coreContains(core []sat.Lit, bound sat.Lit) bool {
	for _, l := range core {
		if l == bound {
			return true
		}
	}
	return false
}

// descendBits fixes the term's output bits from the most significant down
// (Nadel & Ryvchin, TACAS 2016). fixed holds, for every bit above i, the
// literal the optimum sets that bit to, and the best model agrees with
// it. If the best model's bit i is 0 no model agreeing with fixed can
// beat it with bit i set, so ¬b_i is fixed without a solve. Otherwise
// one solve under fixed ∪ {¬b_i} decides the bit: Sat brings a better
// model and fixes ¬b_i; Unsat proves the optimum sets b_i, which fixes
// b_i and raises LowerBound — always the value of the fixed prefix — by
// 2^i. After bit 0 the prefix is the whole optimum and the best model
// achieves it. The descent adds no clause, variable or comparator.
func descendBits(s *sat.Solver, obj *IntObjective, opts *Options, r *Result) {
	w := obj.Width()
	fixed := make([]sat.Lit, len(opts.Hard), len(opts.Hard)+w+1)
	copy(fixed, opts.Hard)
	for i := w - 1; i >= 0; i-- {
		b := obj.term.Bit(i)
		if r.Model[b.Var()-1] == b.Neg() { // bit i is 0 in the best model
			fixed = append(fixed, b.Flip())
			continue
		}
		opts.phase()
		switch s.SolveAssuming(append(fixed, b.Flip())) {
		case sat.Sat:
			r.Value = obj.Eval(s.Model())
			r.Model = append(r.Model[:0], s.Model()...)
			fixed = append(fixed, b.Flip())
		case sat.Unsat:
			r.LowerBound += 1 << i
			fixed = append(fixed, b)
		default:
			return // budget tripped: the optimum lies in [LowerBound, Value]
		}
	}
	r.Exact = true
}

// bisect halves [LowerBound, Value] over the objective's bound literals.
// Sat shrinks the upper bound to the model's value; Unsat raises the
// proven lower bound — to mid+1 normally, or all the way to the
// witnessed value when the core shows the hard assumptions conflict
// without the trial bound.
func bisect(s *sat.Solver, obj Objective, opts *Options, r *Result) {
	var buf []sat.Lit
	for r.LowerBound < r.Value {
		mid := r.LowerBound + (r.Value-r.LowerBound)/2
		bound := obj.BoundLit(mid)
		opts.phase()
		switch s.SolveAssuming(assume(opts.Hard, bound, buf)) {
		case sat.Sat:
			if v := obj.Eval(s.Model()); v < mid {
				r.Value = v // model read-back can only improve the bound
			} else {
				r.Value = mid
			}
			r.Model = append(r.Model[:0], s.Model()...)
		case sat.Unsat:
			if bound != 0 && !coreContains(s.FinalConflict(), bound) {
				// Core-guided tightening: the conflict did not use the
				// bound, so even the unbounded hard side refutes
				// anything below the witness.
				r.LowerBound = r.Value
				break
			}
			r.LowerBound = mid + 1
		default:
			return // budget tripped: [LowerBound, Value] is the answer
		}
	}
	r.Exact = true
}

// LexResult is the outcome of a stratified lexicographic optimization.
type LexResult struct {
	// Values[i] is the best witnessed value for level i, for every
	// level that established a witness (a trailing level the budget cut
	// before its first model is absent, as are all levels after it).
	Values []int64
	// LowerBounds[i] is the proven lower bound for level i, parallel to
	// Values. LowerBounds[i] == Values[i] for every certified level;
	// only the last present level can be loose, and only when !Exact.
	LowerBounds []int64
	// Exact reports every level was certified.
	Exact bool
	// Model is a copy of the best model: it achieves Values[i] on every
	// certified level (and the witnessed upper bound on a loose last
	// level).
	Model []bool
}

// Lexicographic minimizes the objectives in priority order: each level
// is minimized subject to every earlier level held at its optimum
// (carried as bound-literal assumptions, never permanent clauses; the
// last level needs no hold, so none is built). A budget trip finishes
// the run with the levels proven so far and Exact false — stratified
// degradation, not an error.
func Lexicographic(s *sat.Solver, objs []Objective, opts Options) (*LexResult, error) {
	res := &LexResult{Exact: true}
	hard := append([]sat.Lit(nil), opts.Hard...)
	if len(objs) == 0 {
		opts.phase()
		switch s.SolveAssuming(hard) {
		case sat.Sat:
			res.Model = append([]bool(nil), s.Model()...)
			return res, nil
		case sat.Unsat:
			return nil, ErrInfeasible
		default:
			res.Exact = false
			return res, nil
		}
	}
	for i, obj := range objs {
		lvl := opts
		lvl.Hard = hard
		r, err := Minimize(s, obj, lvl)
		if err != nil {
			return nil, err
		}
		if !r.Witnessed {
			res.Exact = false
			break
		}
		res.Values = append(res.Values, r.Value)
		res.LowerBounds = append(res.LowerBounds, r.LowerBound)
		res.Model = r.Model
		if !r.Exact {
			res.Exact = false
			break
		}
		if i == len(objs)-1 {
			break
		}
		if bl := obj.BoundLit(r.Value); bl != 0 {
			hard = append(hard, bl)
		}
	}
	return res, nil
}

// ParetoPoint is one non-dominated objective vector and a model
// achieving it.
type ParetoPoint struct {
	Values []int64
	Model  []bool
}

// ParetoResult is the outcome of a Pareto-front enumeration.
type ParetoResult struct {
	// Points holds the frontier in discovery order. Each point is
	// certified Pareto-optimal over the space reachable under
	// opts.Hard; when !Exact the budget tripped and further frontier
	// points may exist beyond Points.
	Points []ParetoPoint
	// Exact reports the frontier is provably complete.
	Exact bool
}

// Pareto enumerates the full non-dominated frontier of the objectives
// under opts.Hard. Each round finds any model, pushes it to a Pareto
// point by a stratified lexicographic descent inside the dominated box
// (bounds as assumptions), then adds a permanent dominance-blocking
// clause — "some objective strictly below this point" — and repeats
// until Unsat proves the frontier complete. The blocking clauses are
// the only permanent mutations; run Pareto on a dedicated clone.
func Pareto(s *sat.Solver, objs []Objective, opts Options) (*ParetoResult, error) {
	if len(objs) == 0 {
		return nil, errors.New("maxsat: pareto requires at least one objective")
	}
	res := &ParetoResult{}
	first := true
	for {
		opts.phase()
		switch s.SolveAssuming(opts.Hard) {
		case sat.Sat:
		case sat.Unsat:
			if first {
				return nil, ErrInfeasible
			}
			res.Exact = true
			return res, nil
		default:
			return res, nil
		}
		first = false
		// Push the model to a Pareto point: minimize each objective in
		// turn, holding every other objective at its current bound.
		cur := make([]int64, len(objs))
		for i, obj := range objs {
			cur[i] = obj.Eval(s.Model())
		}
		model := append([]bool(nil), s.Model()...)
		for j, obj := range objs {
			lvl := opts
			lvl.Hard = append(append([]sat.Lit(nil), opts.Hard...), boundAll(objs, cur, j)...)
			r, err := Minimize(s, obj, lvl)
			if err != nil {
				// The box contains the current model, so Unsat here is
				// impossible; surface solver poisoning loudly.
				return nil, err
			}
			if !r.Witnessed || !r.Exact {
				return res, nil // budget tripped mid-push
			}
			cur[j] = r.Value
			model = r.Model
			// The push model may have improved later coordinates too;
			// tightening their boxes is sound and deterministic.
			for i := j + 1; i < len(objs); i++ {
				if v := objs[i].Eval(model); v < cur[i] {
					cur[i] = v
				}
			}
		}
		res.Points = append(res.Points, ParetoPoint{Values: cur, Model: model})
		// Dominance block: any further model must beat this point on
		// some coordinate. An empty block means the point is the zero
		// vector — it dominates everything, so the frontier is done.
		var block []sat.Lit
		for i, obj := range objs {
			if cur[i] > 0 {
				if bl := obj.BoundLit(cur[i] - 1); bl != 0 {
					block = append(block, bl)
				}
			}
		}
		if len(block) == 0 {
			res.Exact = true
			return res, nil
		}
		s.AddClause(block...)
	}
}

// boundAll returns bound literals pinning every objective except skip to
// its current value, skipping vacuous bounds.
func boundAll(objs []Objective, cur []int64, skip int) []sat.Lit {
	var out []sat.Lit
	for i, obj := range objs {
		if i == skip {
			continue
		}
		if bl := obj.BoundLit(cur[i]); bl != 0 {
			out = append(out, bl)
		}
	}
	return out
}
