package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"netarch/internal/maxsat"
)

// This file implements multi-objective Pareto-front enumeration
// (DESIGN.md §15): the objective circuits are lowered onto the query's
// private solver and maxsat.Pareto walks the frontier on it —
// lexicographic push to a Pareto point, then a dominance-blocking
// clause, repeat until Unsat. Every point it reports is non-dominated
// over the whole space, so the frontier needs only sorting.

// ParetoPoint is one non-dominated objective vector with a witnessing
// design that achieves it.
type ParetoPoint struct {
	// Values[i] is the value of objectives[i] at this point.
	Values []int64
	Design *Design
}

// ParetoResult is the outcome of a governed Pareto-front enumeration.
type ParetoResult struct {
	// Points is the non-dominated frontier, sorted by objective vector.
	// On a complete run it is exactly the set of non-dominated value
	// vectors; under a budget trip it holds the frontier points found so
	// far, and further frontier points may exist.
	Points []ParetoPoint
	// Complete reports the frontier is provably the whole non-dominated
	// set. An infeasible scenario yields Complete with zero points.
	Complete bool
	// Exhausted carries the typed resource error when a budget tripped
	// (nil on complete runs).
	Exhausted *ErrResourceExhausted
	// Spent is the resource consumption of the one solver the frontier
	// was walked on.
	Spent BudgetSpent
}

// ParetoCtx enumerates the full Pareto frontier of the objectives over
// the scenario's design space, under a context and resource budget:
// every objective vector no design can improve on in one coordinate
// without worsening another, each with a witness. Resource exhaustion
// is not an error: the partial frontier is returned with Complete false
// and Exhausted set, mirroring EnumerateCtx.
func (e *Engine) ParetoCtx(ctx context.Context, sc Scenario, objectives []Objective, b Budget) (*ParetoResult, error) {
	if len(objectives) == 0 {
		return nil, fmt.Errorf("core: pareto requires at least one objective")
	}
	c, g, err := e.begin(ctx, "pareto", sc, b, nil)
	if err != nil {
		return nil, err
	}
	defer g.done()
	objs, err := c.objectives(objectives)
	if err != nil {
		return nil, err
	}
	front, err := maxsat.Pareto(c.solver, objs, maxsat.Options{Hard: c.assumptions(), Phase: g.phase})
	if errors.Is(err, maxsat.ErrInfeasible) {
		return &ParetoResult{Complete: true, Spent: g.spent()}, nil
	}
	if err != nil {
		// maxsat.Pareto minimizes only inside boxes that hold a model it
		// just found, so an error there is solver inconsistency.
		return nil, fmt.Errorf("core: pareto lost feasibility mid-search: %w", err)
	}
	res := &ParetoResult{Complete: front.Exact}
	for _, p := range front.Points {
		res.Points = append(res.Points, ParetoPoint{Values: p.Values, Design: c.designFrom(p.Model)})
	}
	sort.Slice(res.Points, func(i, j int) bool { return lessValues(res.Points[i].Values, res.Points[j].Values) })
	if !front.Exact {
		g.trip(c.solver.StopCause())
		res.Exhausted = g.exhausted()
		res.Spent = res.Exhausted.Spent
		return res, nil
	}
	res.Spent = g.spent()
	return res, nil
}

// lessValues orders objective vectors lexicographically.
func lessValues(a, b []int64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
