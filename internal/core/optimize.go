package core

import (
	"context"
	"fmt"

	"netarch/internal/intlin"
	"netarch/internal/maxsat"
	"netarch/internal/sat"
)

// OptimizeStrategy selects the MaxSAT descent strategy for Optimize and
// Pareto queries; see the maxsat package for the trade-off.
type OptimizeStrategy = maxsat.Strategy

// Optimization strategies.
const (
	// StrategyBinary bisects the objective range (the default): budget
	// trips leave tight two-sided bounds.
	StrategyBinary = maxsat.BinarySearch
	// StrategyLinear descends SAT-UNSAT: every step improves the
	// witness, but the lower bound stays trivial until the final Unsat.
	StrategyLinear = maxsat.LinearSatUnsat
)

// SetOptimizeStrategy sets the engine-wide default MaxSAT strategy used
// by Optimize/OptimizeCtx and Pareto/ParetoCtx. Safe to call
// concurrently; queries in flight keep the strategy they started with.
// Per-query overrides go through OptimizeWithStrategyCtx.
func (e *Engine) SetOptimizeStrategy(s OptimizeStrategy) {
	e.optStrategy.Store(int32(s))
}

// OptimizeStrategy reports the engine-wide default MaxSAT strategy.
func (e *Engine) OptimizeStrategy() OptimizeStrategy {
	return OptimizeStrategy(e.optStrategy.Load())
}

// ParseOptimizeStrategy parses the CLI/serve strategy spelling: "binary"
// (or empty, the default) and "linear".
func ParseOptimizeStrategy(s string) (OptimizeStrategy, error) {
	return maxsat.ParseStrategy(s)
}

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

// OptimizeCtx is Optimize under a context and resource budget, using the
// engine's default strategy (SetOptimizeStrategy). Each objective level
// runs as its own budget phase. If a budget trips after feasibility is
// established, the best design and bounds proven so far are returned
// with Approximate set — the optimizer degrades, it does not discard
// work. Only an exhaustion before any verdict yields
// *ErrResourceExhausted.
func (e *Engine) OptimizeCtx(ctx context.Context, sc Scenario, objectives []Objective, b Budget) (*OptimizeResult, error) {
	return e.OptimizeWithStrategyCtx(ctx, sc, objectives, b, e.OptimizeStrategy())
}

// OptimizeWithStrategyCtx is OptimizeCtx with an explicit per-query
// strategy (the serve layer threads the request's strategy here so
// concurrent requests cannot race an engine-wide knob).
func (e *Engine) OptimizeWithStrategyCtx(ctx context.Context, sc Scenario, objectives []Objective, b Budget, strat OptimizeStrategy) (*OptimizeResult, error) {
	c, err := e.instance(&sc)
	if err != nil {
		return nil, err
	}
	g := govern(ctx, "optimize", b, c.solver)
	defer g.done()
	if e.warmStart.Load() {
		if p := c.warmProfile(); p != nil {
			c.solver.ApplyProfile(p)
		}
	}
	assumps := c.assumptions()
	switch status := c.solver.SolveAssuming(assumps); status {
	case sat.Sat:
	case sat.Unsat:
		res := &OptimizeResult{Report: Report{
			Verdict:     Infeasible,
			Explanation: e.minimizeCore(c, nil, g, false),
		}}
		res.Spent = g.spent()
		return res, nil
	default:
		return nil, g.exhausted()
	}
	witness := c.designFromModel()

	specs, err := c.objectiveSpecs(objectives)
	if err != nil {
		return nil, err
	}
	objs := make([]maxsat.Objective, len(specs))
	for i := range specs {
		objs[i] = specs[i].instantiate(c)
	}
	lex, err := maxsat.Lexicographic(c.solver, objs, maxsat.Options{
		Strategy: strat,
		Hard:     assumps,
		Phase:    g.phase,
	})
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
		res.ApproxCause, _ = g.cause()
	}
	if lex.Model != nil {
		witness = c.designFrom(lex.Model)
	}
	res.Design = witness
	if e.warmStart.Load() {
		c.storeWarmProfile()
	}
	res.Spent = g.spent()
	return res, nil
}

// objectiveSpec is one optimization level lowered onto a compiled
// instance: either an arithmetic term (cost and cores live in the base
// circuits; power and ports are summed on the instance on first use) or
// a freshly built counting network (systems, order penalties). Circuits
// are emitted into the instance the spec was built on; their bound
// literals are pure lookups afterwards, so a spec is safe to instantiate
// on any fork of that instance (the Pareto cube workers rely on this).
type objectiveSpec struct {
	term  intlin.Int             // int-backed objectives
	isInt bool                   // term valid
	count *maxsat.CountObjective // count-backed objectives
}

// instantiate binds the spec to a fork's solver: int-backed objectives
// get the fork's arithmetic builder (comparator gates must land in the
// fork, not the template), count-backed objectives are shared as-is.
func (sp objectiveSpec) instantiate(f *compiled) maxsat.Objective {
	if sp.isInt {
		return maxsat.NewInt(f.arith, sp.term)
	}
	return sp.count
}

// objectiveSpecs lowers the objective list onto c, building whatever
// circuits the levels need (power/port sums, totalizers, order-penalty
// literals). Call it on the instance whose clones will be searched —
// before cloning. The power and port sums are built at most once per
// call, so a repeated level reuses its circuit.
func (c *compiled) objectiveSpecs(objectives []Objective) ([]objectiveSpec, error) {
	specs := make([]objectiveSpec, len(objectives))
	var power, ports *intlin.Int
	for i, obj := range objectives {
		switch obj.Kind {
		case MinimizeCost:
			specs[i] = objectiveSpec{term: c.costTotal, isInt: true}
		case MinimizeCores:
			specs[i] = objectiveSpec{term: c.coresUsed, isInt: true}
		case MinimizePower:
			if power == nil {
				t := c.powerModel()
				power = &t
			}
			specs[i] = objectiveSpec{term: *power, isInt: true}
		case MinimizePorts:
			if ports == nil {
				t := c.portModel()
				ports = &t
			}
			specs[i] = objectiveSpec{term: *ports, isInt: true}
		case MinimizeSystems:
			lits := make([]sat.Lit, 0, len(c.sysLit))
			for j := range c.kb.Systems {
				lits = append(lits, c.sysLit[c.kb.Systems[j].Name])
			}
			specs[i] = objectiveSpec{count: maxsat.NewCount(c.solver, lits)}
		case PreferOrder:
			lits, err := c.orderPenaltyLits(obj.Dimension)
			if err != nil {
				return nil, err
			}
			specs[i] = objectiveSpec{count: maxsat.NewCount(c.solver, lits)}
		default:
			return nil, fmt.Errorf("core: unknown objective kind %v", obj.Kind)
		}
	}
	return specs, nil
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
