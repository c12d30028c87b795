package core

import (
	"context"
	"fmt"

	"netarch/internal/intlin"
	"netarch/internal/maxsat"
	"netarch/internal/sat"
)

// OptimizeResult extends a feasible report with the achieved objective
// values, in priority order.
type OptimizeResult struct {
	Report
	// ObjectiveValues[i] is the best witnessed value for objectives[i].
	// Every certified level's value is the exact optimum; when
	// Approximate, the tail of the list may be missing (levels the
	// budget never reached) and the last present value is an upper
	// bound on that level's optimum.
	ObjectiveValues []int64
	// LowerBounds[i] is the proven lower bound for objectives[i],
	// parallel to ObjectiveValues: every value below it was refuted by
	// an Unsat verdict (or is below the trivial floor 0). On a
	// certified level LowerBounds[i] == ObjectiveValues[i]; under a
	// budget trip the last level may be loose — the true optimum lies
	// in [LowerBounds[i], ObjectiveValues[i]]. That bracket is the
	// bounded-suboptimality contract: a degraded optimization is never
	// just "here is some design", it is "the optimum is in this box".
	LowerBounds []int64
	// Approximate reports that a resource budget tripped mid-
	// optimization: Design is the best witness found before the trip,
	// not a certified lexicographic optimum.
	Approximate bool
	// ApproxCause names the tripped budget when Approximate.
	ApproxCause string
}

// Optimize finds a design minimizing the objectives lexicographically
// (the paper's "Optimize(latency > Hardware cost > monitoring)", Listing
// 3). Earlier objectives dominate: each level is minimized subject to all
// previous levels being at their minima. The result is certified: every
// level's value is a MaxSAT optimum, not a heuristic.
func (e *Engine) Optimize(sc Scenario, objectives []Objective) (*OptimizeResult, error) {
	return e.OptimizeCtx(context.Background(), sc, objectives, Budget{})
}

// OptimizeCtx is Optimize under a context and resource budget. Each
// objective level runs as its own budget phase. If a budget trips after
// feasibility is established, the best design and bounds proven so far
// are returned with Approximate set — the optimizer degrades, it does
// not discard work. Only an exhaustion before any verdict yields
// *ErrResourceExhausted.
func (e *Engine) OptimizeCtx(ctx context.Context, sc Scenario, objectives []Objective, b Budget) (*OptimizeResult, error) {
	c, g, err := e.begin(ctx, "optimize", sc, b, nil)
	if err != nil {
		return nil, err
	}
	defer g.done()
	return e.optimize(c, g, objectives)
}

// optimize answers an optimization on the begun query's instance c,
// whose solver it owns, under its governor g.
func (e *Engine) optimize(c *compiled, g *governor, objectives []Objective) (*OptimizeResult, error) {
	assumps := c.assumptions()
	switch status := c.solver.SolveAssuming(assumps); status {
	case sat.Sat:
	case sat.Unsat:
		res := &OptimizeResult{Report: Report{
			Verdict:     Infeasible,
			Explanation: e.minimizeCore(c, g),
		}}
		res.Spent = g.spent()
		return res, nil
	default:
		g.trip(c.solver.StopCause())
		return nil, g.exhausted()
	}
	witness := c.designFromModel()

	objs, err := c.objectives(objectives)
	if err != nil {
		return nil, err
	}
	// The query's solver is its private clone of the base, so its
	// selectors can become level-0 units: every descent probe then starts
	// from their propagated consequences instead of replaying them as
	// assumptions. Only the objective bounds stay assumptions.
	for _, l := range assumps {
		c.solver.AddClause(l)
	}
	lex, err := maxsat.Lexicographic(c.solver, objs, maxsat.Options{Phase: g.phase})
	if err != nil {
		// Feasibility was just established on this solver, so the hard
		// side cannot be unsatisfiable; surface the inconsistency.
		return nil, fmt.Errorf("core: optimize lost feasibility mid-search: %w", err)
	}
	res := &OptimizeResult{Report: Report{Verdict: Feasible}}
	res.ObjectiveValues = lex.Values
	res.LowerBounds = lex.LowerBounds
	if !lex.Exact {
		res.Approximate = true
		res.ApproxCause = g.trip(c.solver.StopCause())
	}
	if lex.Model != nil {
		witness = c.designFrom(lex.Model)
	}
	res.Design = witness
	res.Spent = g.spent()
	return res, nil
}

// objectives lowers the objective list onto c, building whatever
// circuits the levels need: cost and cores read the base circuits, power
// and ports are summed on the instance on first use (at most once per
// call, so a repeated level reuses its circuit), and systems and order
// penalties get a fresh counting network.
func (c *compiled) objectives(levels []Objective) ([]maxsat.Objective, error) {
	objs := make([]maxsat.Objective, len(levels))
	var power, ports *intlin.Int
	for i, obj := range levels {
		switch obj.Kind {
		case MinimizeCost:
			objs[i] = maxsat.NewInt(c.arith, c.costTotal)
		case MinimizeCores:
			objs[i] = maxsat.NewInt(c.arith, c.coresUsed)
		case MinimizePower:
			if power == nil {
				t := c.powerModel()
				power = &t
			}
			objs[i] = maxsat.NewInt(c.arith, *power)
		case MinimizePorts:
			if ports == nil {
				t := c.portModel()
				ports = &t
			}
			objs[i] = maxsat.NewInt(c.arith, *ports)
		case MinimizeSystems:
			lits := make([]sat.Lit, 0, len(c.sysLit))
			for j := range c.kb.Systems {
				lits = append(lits, c.sysLit[c.kb.Systems[j].Name])
			}
			objs[i] = maxsat.NewCount(c.solver, lits)
		case PreferOrder:
			lits, err := c.orderPenaltyLits(obj.Dimension)
			if err != nil {
				return nil, err
			}
			objs[i] = maxsat.NewCount(c.solver, lits)
		default:
			return nil, fmt.Errorf("core: unknown objective kind %v", obj.Kind)
		}
	}
	return objs, nil
}

// ParseObjective parses the CLI/serve spelling of one objective level:
// "cost", "cores", "systems", "power", "ports", "latency" (shorthand
// for the tail_latency preference order), or "order:<dimension>".
func ParseObjective(name string) (Objective, error) {
	switch name {
	case "cost":
		return Objective{Kind: MinimizeCost}, nil
	case "cores":
		return Objective{Kind: MinimizeCores}, nil
	case "systems":
		return Objective{Kind: MinimizeSystems}, nil
	case "power":
		return Objective{Kind: MinimizePower}, nil
	case "ports":
		return Objective{Kind: MinimizePorts}, nil
	case "latency":
		// The latency rule of thumb: prefer designs maximal in the
		// tail_latency partial order (Figure 1's latency panel).
		return Objective{Kind: PreferOrder, Dimension: "tail_latency"}, nil
	}
	if len(name) > 6 && name[:6] == "order:" {
		return Objective{Kind: PreferOrder, Dimension: name[6:]}, nil
	}
	return Objective{}, fmt.Errorf("core: unknown objective %q (want cost, cores, systems, power, ports, latency, or order:<dimension>)", name)
}

// orderPenaltyLits builds one penalty literal per "dominated deployment":
// deploying system w while leaving undeployed some same-role system b that
// is strictly better than w in the resolved order. Minimizing the count
// steers the design toward the order's maximal elements.
func (c *compiled) orderPenaltyLits(dimension string) ([]sat.Lit, error) {
	resolved, err := c.resolveOrder(dimension)
	if err != nil {
		return nil, err
	}
	if resolved == nil {
		return nil, fmt.Errorf("core: unknown order dimension %q", dimension)
	}
	var lits []sat.Lit
	for i := range c.kb.Systems {
		worse := &c.kb.Systems[i]
		for j := range c.kb.Systems {
			better := &c.kb.Systems[j]
			if i == j || better.Role != worse.Role {
				continue
			}
			if !resolved.Better(better.Name, worse.Name) {
				continue
			}
			// penalty ≥ (worse ∧ ¬better)
			p := sat.Lit(c.solver.NewVar())
			c.solver.AddClause(c.sysLit[worse.Name].Flip(), c.sysLit[better.Name], p)
			lits = append(lits, p)
		}
	}
	return lits, nil
}
