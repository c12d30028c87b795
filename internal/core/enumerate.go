package core

import (
	"context"
	"errors"
	"sort"

	"netarch/internal/sat"
)

// This file implements design-class enumeration (§6 "identify equivalence
// classes of system deployments") as one governed blocking-clause loop on
// the query's private solver: solve, report the model's system set as a
// class, block that set, repeat until Unsat. Blocking clauses follow the
// sorted system vocabulary, so the class sequence is a pure function of
// the compiled instance. DESIGN.md §8 documents the contract.

// EnumerateResult is the outcome of a governed enumeration: the design
// classes found, plus an explicit account of whether — and why — the
// enumeration stopped before provably exhausting the space.
//
// Except under a budget trip, the result is deterministic: Designs
// (content and order), Truncated, and Reason are a function of the
// knowledge base, the scenario, and max alone.
type EnumerateResult struct {
	Designs []*Design
	// Truncated reports that enumeration stopped while more classes may
	// exist: the class limit was hit or a resource budget tripped. A
	// false Truncated means Designs is provably the complete set.
	Truncated bool
	// Reason is "limit" when the class cap stopped the enumeration, or
	// the exhausted resource ("deadline", "conflict budget", ...).
	Reason string
	// Exhausted carries the typed resource error when a budget tripped
	// (nil for "limit" truncation and for complete enumerations).
	Exhausted *ErrResourceExhausted
	// Spent is the resource consumption of the one solver the
	// enumeration ran on.
	Spent BudgetSpent
}

// ErrSlicedEnumeration is returned by EnumerateCtx, and so by
// DisambiguateCtx, when the scenario resolves to a relevance-sliced
// base. A slice keeps every verdict, optimum and Pareto frontier of the
// full encoding, but not its design classes: out-of-cone systems that
// nothing observes form extra classes the slice omits (DESIGN.md §16).
// Enumeration is therefore refused rather than answered over a
// different class set; set SliceOff to enumerate.
var ErrSlicedEnumeration = errors.New("core: enumeration over a relevance-sliced base is refused: the slice omits the design classes of out-of-cone systems")

// Enumerate returns up to max distinct compliant designs, where designs
// are distinguished by their deployed system set (hardware variations of
// the same system set collapse into one equivalence class, per §6
// "identify equivalence classes of system deployments"). If the solver
// gives up mid-enumeration (only possible when a fault hook or budget is
// armed), the partial designs are returned together with the typed
// *ErrResourceExhausted — never silently.
func (e *Engine) Enumerate(sc Scenario, max int) ([]*Design, error) {
	res, err := e.EnumerateCtx(context.Background(), sc, max, Budget{})
	if err != nil {
		return nil, err
	}
	if res.Exhausted != nil {
		// Propagate the giving-up status: callers must be able to tell
		// "only these designs exist" from "the solver gave up".
		return res.Designs, res.Exhausted
	}
	return res.Designs, nil
}

// EnumerateCtx is Enumerate under a context and resource budget. Each
// class discovery gets a fresh phase allowance. Resource exhaustion is
// not an error here: the partial result is returned with Truncated,
// Reason, and Exhausted set, so callers can use what was found.
//
// After max classes, one more solve decides the result: a further model
// means Truncated with Reason "limit", Unsat means the max classes are
// the whole space. A non-positive max admits nothing and is a vacuous
// "limit" truncation.
//
// A scenario that resolves to a relevance-sliced base is refused with
// ErrSlicedEnumeration.
func (e *Engine) EnumerateCtx(ctx context.Context, sc Scenario, max int, b Budget) (*EnumerateResult, error) {
	c, err := e.instance(&sc)
	if err != nil {
		return nil, err
	}
	if c.sliceID != "" {
		return nil, ErrSlicedEnumeration
	}
	g := govern(ctx, "enumerate", b)
	defer g.done()
	g.adopt(c.solver)
	res := &EnumerateResult{}
	res.Designs, res.Truncated = c.enumerate(g, max)
	sort.Slice(res.Designs, func(i, j int) bool { return lessSystems(res.Designs[i].Systems, res.Designs[j].Systems) })
	if ex := g.exhausted(); ex != nil {
		res.Reason, res.Exhausted, res.Spent = ex.Cause, ex, ex.Spent
		return res, nil
	}
	if res.Truncated {
		res.Reason = "limit"
	}
	res.Spent = g.spent()
	return res, nil
}

// enumerate runs the blocking-clause loop on c's solver, returning the
// classes in discovery order and whether more may exist: a class beyond
// max was found, or a budget tripped (which g records).
func (c *compiled) enumerate(g *governor, max int) (designs []*Design, more bool) {
	if max <= 0 {
		return nil, true
	}
	assumps := c.assumptions()
	var block []sat.Lit // reused across the blocking clauses; AddClause copies
	for {
		g.phase()
		switch c.solver.SolveAssuming(assumps) {
		case sat.Sat:
		case sat.Unsat:
			return designs, false
		default:
			g.trip(c.solver.StopCause())
			return designs, true
		}
		if len(designs) == max {
			return designs, true
		}
		d := c.designFromModel()
		designs = append(designs, d)
		if len(c.sysNames) == 0 {
			// No system vocabulary: the one (empty) class is the whole
			// space, and its blocking clause would be the empty clause,
			// which poisons the solver.
			return designs, false
		}
		block = c.blockingClause(d.Systems, block)
		c.solver.AddClause(block...)
	}
}

// blockingClause appends, to buf, the clause forcing at least one
// system-set difference from the given class. Literals follow the sorted
// system vocabulary: clause literal order shapes the solver's watch
// setup and hence its search, so map-order iteration here would make
// repeated enumerations diverge. systems is sorted (designFromModel
// sorts it), so membership is a two-pointer merge against sysNames — no
// per-class set.
func (c *compiled) blockingClause(systems []string, buf []sat.Lit) []sat.Lit {
	block := buf[:0]
	j := 0
	for _, name := range c.sysNames {
		l := c.sysLit[name]
		for j < len(systems) && systems[j] < name {
			j++
		}
		if j < len(systems) && systems[j] == name {
			l = l.Flip()
		}
		block = append(block, l)
	}
	return block
}

// lessSystems orders system sets element-wise: lexicographic over the
// elements, shorter prefix first.
func lessSystems(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
