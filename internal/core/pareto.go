package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"netarch/internal/maxsat"
	"netarch/internal/sat"
)

// This file implements multi-objective Pareto-front enumeration on top
// of the parallel enumerator's machinery (DESIGN.md §15): the compiled
// instance is specialized once, the objective circuits are lowered onto
// the pristine template, the model space is split into the same fixed
// cube set enumeration uses, and each cube's local frontier is computed
// by maxsat.Pareto on a fresh clone — lexicographic push to a Pareto
// point, then a dominance-blocking clause, repeat until Unsat. The
// deterministic merge unions the cube frontiers, drops cross-cube
// dominated points, dedupes equal vectors (lowest cube wins, so the
// witness choice is schedule-independent), and sorts. A point that is
// Pareto-optimal globally is Pareto-optimal inside its own cube, and a
// cube-local point dominated globally is dominated by some other cube's
// local frontier point — so on a complete run the merged set is exactly
// the global non-dominated frontier, independent of the worker count.

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
	// vectors; under a budget trip it holds the mutually non-dominated
	// points found so far (further frontier points may exist, and an
	// un-searched region could in principle dominate a listed point).
	Points []ParetoPoint
	// Complete reports the frontier is provably the whole non-dominated
	// set. An infeasible scenario yields Complete with zero points.
	Complete bool
	// Exhausted carries the typed resource error when a budget tripped
	// (nil on complete runs).
	Exhausted *ErrResourceExhausted
	// Spent is the total resource consumption across all cube workers.
	Spent BudgetSpent
}

// Pareto enumerates the full Pareto frontier of the objectives over the
// scenario's design space: every objective vector no design can improve
// on in one coordinate without worsening another, each with a witness.
func (e *Engine) Pareto(sc Scenario, objectives []Objective) (*ParetoResult, error) {
	return e.ParetoCtx(context.Background(), sc, objectives, Budget{})
}

// ParetoCtx is Pareto under a context and resource budget. Resource
// exhaustion is not an error: the partial frontier is returned with
// Complete false and Exhausted set, mirroring EnumerateCtx.
func (e *Engine) ParetoCtx(ctx context.Context, sc Scenario, objectives []Objective, b Budget) (*ParetoResult, error) {
	if len(objectives) == 0 {
		return nil, fmt.Errorf("core: pareto requires at least one objective")
	}
	tpl, err := e.instance(&sc)
	if err != nil {
		return nil, err
	}
	g := govern(ctx, "pareto", b)
	defer g.done()
	// Lower the objective circuits onto the template BEFORE any clone is
	// taken: every cube worker inherits the same totalizers and penalty
	// literals, which is what makes cube results fork-independent.
	specs, err := tpl.objectiveSpecs(objectives)
	if err != nil {
		return nil, err
	}
	cubes := cubeAssumptions(tpl)
	r := &paretoRun{g: g, specs: specs, cubes: make([]paretoCube, len(cubes))}
	drainCubes(g, tpl, cubes, e.enumWorkers(), r.solveCube)
	return r.finish()
}

// paretoCube is one cube's outcome: its local frontier in discovery
// order, and whether it was drained to a certified-complete frontier.
type paretoCube struct {
	points []ParetoPoint
	exact  bool
}

// paretoRun is one Pareto query: governor, lowered objective specs, and
// per-cube results.
type paretoRun struct {
	g     *governor
	specs []objectiveSpec

	mu    sync.Mutex
	cubes []paretoCube
	fail  error // first non-budget solver error, surfaced to the caller
}

// solveCube computes one cube's local frontier on a fresh clone. The
// cube's point sequence is a pure function of the compiled instance —
// same purity argument as enumeration — so the merged result cannot
// depend on worker count or scheduling. Returns false when the whole
// query must stop (budget trip or solver failure).
func (r *paretoRun) solveCube(c *compiled, idx int, cube []sat.Lit) bool {
	objs := make([]maxsat.Objective, len(r.specs))
	for i := range r.specs {
		objs[i] = r.specs[i].instantiate(c)
	}
	hard := append(c.assumptions(), cube...)
	res, err := maxsat.Pareto(c.solver, objs, maxsat.Options{
		Hard:  hard,
		Phase: func() { r.g.phase(c.solver) },
	})
	if errors.Is(err, maxsat.ErrInfeasible) {
		// No design in this cube: an empty, certified-complete frontier.
		r.mu.Lock()
		r.cubes[idx].exact = true
		r.mu.Unlock()
		return true
	}
	if err != nil {
		r.mu.Lock()
		if r.fail == nil {
			r.fail = err
		}
		r.mu.Unlock()
		r.g.trip(c.solver.StopCause())
		return false
	}
	pts := make([]ParetoPoint, len(res.Points))
	for i, p := range res.Points {
		pts[i] = ParetoPoint{Values: p.Values, Design: c.designFrom(p.Model)}
	}
	r.mu.Lock()
	r.cubes[idx] = paretoCube{points: pts, exact: res.Exact}
	r.mu.Unlock()
	if !res.Exact {
		r.g.trip(c.solver.StopCause())
		return false
	}
	return true
}

// finish merges the cube frontiers deterministically: union, drop
// points dominated by any other cube's point, dedupe equal vectors in
// cube order, sort by objective vector. A solver failure in any cube
// fails the whole query.
func (r *paretoRun) finish() (*ParetoResult, error) {
	r.mu.Lock()
	cubes := r.cubes
	fail := r.fail
	r.mu.Unlock()
	if fail != nil {
		// maxsat.Pareto minimizes only inside boxes that hold a model it
		// just found, so an error there is solver inconsistency.
		return nil, fmt.Errorf("core: pareto lost feasibility mid-search: %w", fail)
	}

	res := &ParetoResult{Complete: true}
	var all []ParetoPoint
	for i := range cubes {
		if !cubes[i].exact {
			res.Complete = false
		}
		all = append(all, cubes[i].points...)
	}
	for i, p := range all {
		keep := true
		for j, q := range all {
			if i == j {
				continue
			}
			switch dominance(q.Values, p.Values) {
			case -1:
				keep = false // strictly dominated
			case 0:
				if j < i {
					keep = false // duplicate vector: earliest cube wins
				}
			}
			if !keep {
				break
			}
		}
		if keep {
			res.Points = append(res.Points, p)
		}
	}
	sort.Slice(res.Points, func(i, j int) bool {
		return lessValues(res.Points[i].Values, res.Points[j].Values)
	})
	if ex := r.g.exhausted(); ex != nil {
		res.Complete = false
		res.Exhausted = ex
		res.Spent = ex.Spent
		return res, nil
	}
	res.Spent = r.g.spent()
	return res, nil
}

// dominance compares objective vectors: -1 when a dominates b (a ≤ b
// componentwise, a ≠ b), 0 when equal, +1 otherwise.
func dominance(a, b []int64) int {
	leq, equal := true, true
	for i := range a {
		if a[i] > b[i] {
			leq = false
		}
		if a[i] != b[i] {
			equal = false
		}
	}
	switch {
	case equal:
		return 0
	case leq:
		return -1
	default:
		return 1
	}
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
