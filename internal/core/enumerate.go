package core

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"

	"netarch/internal/intlin"
	"netarch/internal/sat"
)

// This file implements design-class enumeration (§6 "identify equivalence
// classes of system deployments") as a governed, parallel blocking-clause
// loop. The class space is split into a fixed set of disjoint cubes
// (independent of the worker count), each cube is drained on a fresh
// clone of the pristine template with only its own blocking clauses — so
// every cube's class-and-model sequence is a pure function of the
// compiled instance — and the per-cube results are merged in cube order,
// cut at the class cap. That purity is the whole determinism argument:
// no per-class canonicalization re-solve is needed (PR 3 paid one clone
// + solve per class for it, back when workers shared blocking clauses
// and discovery models were scheduling-dependent), and capped results
// need no sequential replay. DESIGN.md §8 documents the contract.

// EnumerateResult is the outcome of a governed enumeration: the design
// classes found, plus an explicit account of whether — and why — the
// enumeration stopped before provably exhausting the space.
//
// Except under a budget trip, the result is deterministic: Designs
// (content and order), Truncated, and Reason are a function of the
// knowledge base, the scenario, and max alone — never of the worker
// count (SetWorkers) or goroutine scheduling. Spent aggregates every
// worker's consumption and is the one field that legitimately varies
// from run to run.
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
	// Spent is the total resource consumption of the enumeration,
	// summed across all worker, canonicalization, and probe solvers.
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

// SetWorkers sets how many cloned solvers EnumerateCtx (and the queries
// built on it, like DisambiguateCtx) may run concurrently. n <= 0
// restores the default, runtime.GOMAXPROCS(0). The determinism contract
// makes the result independent of this knob — it trades CPU for latency,
// nothing else. Safe to call concurrently; queries in flight keep the
// count they started with.
func (e *Engine) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	e.workers.Store(int32(n))
}

func (e *Engine) enumWorkers() int {
	if n := int(e.workers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

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
// solve — one class discovery, one canonicalization — gets a fresh phase
// allowance. Resource exhaustion is not an error here: the partial
// result is returned with Truncated, Reason, and Exhausted set, so
// callers can use what was found.
//
// Enumeration runs on a worker pool of solver clones (see SetWorkers):
// the compiled instance is specialized once into a pristine template,
// the class space is split into a fixed set of disjoint cubes, and
// workers drain cubes — each on a fresh clone of the template, so the
// cube's class sequence (models included) cannot depend on what any
// other cube (or worker) did. See EnumerateResult for the determinism
// contract.
//
// A scenario that resolves to a relevance-sliced base is refused with
// ErrSlicedEnumeration.
func (e *Engine) EnumerateCtx(ctx context.Context, sc Scenario, max int, b Budget) (*EnumerateResult, error) {
	tpl, err := e.instance(&sc)
	if err != nil {
		return nil, err
	}
	if tpl.sliceID != "" {
		return nil, ErrSlicedEnumeration
	}
	g := govern(ctx, "enumerate", b)
	defer g.done()
	r := &enumRun{g: g, tpl: tpl, co: &enumCoord{max: max}}
	return r.run(e.enumWorkers()), nil
}

// enumClass is one admitted equivalence class: its (sorted) system set
// and the design reported for it. The discovery model is already
// canonical — the cube's solver evolves deterministically from the
// pristine template, untouched by other cubes or workers.
type enumClass struct {
	systems []string
	design  *Design
}

// enumCoord collects per-cube results under one lock. Every cube's class
// sequence is a pure function of the compiled instance (fresh clone, own
// blocking clauses only — see drainCubes), so the merged, capped class list
// is deterministic for any worker count: capped runs no longer need a
// sequential replay.
type enumCoord struct {
	max int

	mu    sync.Mutex
	cubes []cubeResult
}

// cubeResult is one cube's outcome: the classes discovered in order, and
// whether the cube was drained to Unsat (its list provably complete). A
// cube stopped at the per-cube cap or by a budget trip stays
// inexhausted.
type cubeResult struct {
	classes   []*enumClass
	exhausted bool
}

func (co *enumCoord) append(cube int, cls *enumClass) {
	co.mu.Lock()
	co.cubes[cube].classes = append(co.cubes[cube].classes, cls)
	co.mu.Unlock()
}

func (co *enumCoord) markExhausted(cube int) {
	co.mu.Lock()
	co.cubes[cube].exhausted = true
	co.mu.Unlock()
}

// merge assembles the result list: cubes in index order, classes in
// within-cube discovery order, cut at max. complete reports that the
// list is provably the whole class space — every cube drained to Unsat
// and nothing was cut — which is what lets an exact-fit enumeration
// (space size == max) come back untruncated.
func (co *enumCoord) merge() (out []*enumClass, complete bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	complete = true
	total := 0
	for i := range co.cubes {
		total += len(co.cubes[i].classes)
		if !co.cubes[i].exhausted {
			complete = false
		}
	}
	if total > co.max {
		complete = false
	}
	for i := range co.cubes {
		for _, cls := range co.cubes[i].classes {
			if len(out) >= co.max {
				return out, complete
			}
			out = append(out, cls)
		}
	}
	return out, complete
}

// fork views the shared compilation artifacts over a private solver.
// Everything else on a specialized compiled is read-only, so forks of
// one template can solve concurrently.
func (c *compiled) fork(s *sat.Solver) *compiled {
	n := *c
	n.solver = s
	n.arith = intlin.Attach(s, c.arith.True())
	return &n
}

// blockingClause appends, to buf, the clause forcing at least one
// system-set difference from the given class. Literals follow the sorted
// system vocabulary: clause literal order shapes the solver's watch
// setup and hence its search, so map-order iteration here would make
// repeated enumerations diverge. systems is sorted (designFromModel
// sorts it), so membership is a two-pointer merge against sysNames — no
// per-class set, and callers reuse one buffer across a whole cube drain
// (AddClause copies the literals).
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

// cubeAssumptions splits the class space into 2^k disjoint cubes — the
// assignments of the first k sorted system variables. The split is a
// fixed function of the instance, NOT of the worker count: cube results
// feed the deterministic capped merge, so the same cubes must exist no
// matter how many workers drain them. k is capped at 3 (8 cubes): enough
// cubes to keep a typical pool busy, few enough that the per-cube
// overhead (one clone, one closing Unsat solve each) stays negligible.
// Every class satisfies exactly one cube, so cubes cannot re-derive each
// other's classes and cross-cube blocking clauses would be vacuous.
func cubeAssumptions(tpl *compiled) [][]sat.Lit {
	k := len(tpl.sysNames)
	if k > 3 {
		k = 3
	}
	cubes := make([][]sat.Lit, 1<<k)
	for m := range cubes {
		cube := make([]sat.Lit, k)
		for b := 0; b < k; b++ {
			l := tpl.sysLit[tpl.sysNames[b]]
			if m&(1<<b) == 0 {
				l = l.Flip()
			}
			cube[b] = l
		}
		cubes[m] = cube
	}
	return cubes
}

// enumRun is one enumeration query: the governor, the pristine template
// (never solved — every solve happens on a clone of it, which is what
// makes results worker-count-independent), and the coordinator.
type enumRun struct {
	g   *governor
	tpl *compiled
	co  *enumCoord
}

// run drives the enumeration: cube discovery (parallel when workers > 1),
// then the deterministic merge.
func (r *enumRun) run(workers int) *EnumerateResult {
	res := &EnumerateResult{}
	if r.co.max <= 0 {
		// A non-positive cap admits nothing: a vacuous limit truncation,
		// as the sequential loop always reported.
		res.Truncated = true
		res.Reason = "limit"
		res.Spent = r.g.spent()
		return res
	}
	cubes := cubeAssumptions(r.tpl)
	r.co.cubes = make([]cubeResult, len(cubes))
	drainCubes(r.g, r.tpl, cubes, workers, r.solveCube)
	return r.finish(res)
}

// drainCubes solves every cube on up to workers goroutines pulling cube
// indices from one channel, each cube on a FRESH fork of the pristine
// template — which worker solves which cube, and in what order, cannot
// leak into any cube's result. The template itself is never solved, so
// concurrent clones straight off it are safe. solve returns false when
// the whole query must stop (budget trip, context fired, solver
// failure); that worker then takes no further cube, and the others stop
// at their next g.stopped check.
func drainCubes(g *governor, tpl *compiled, cubes [][]sat.Lit, workers int, solve func(c *compiled, idx int, cube []sat.Lit) bool) {
	ch := make(chan int, len(cubes))
	for i := range cubes {
		ch <- i
	}
	close(ch)
	drain := func() {
		for i := range ch {
			if g.stopped() {
				return
			}
			c := tpl.fork(tpl.solver.Clone())
			g.adopt(c.solver)
			ok := solve(c, i, cubes[i])
			g.release(c.solver)
			if !ok {
				return
			}
		}
	}
	workers = min(workers, len(cubes))
	if workers <= 1 {
		drain()
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	wg.Wait()
}

// solveCube enumerates the classes inside one cube, delivering each to
// the coordinator as it is admitted. The reported design is the
// discovery model itself: the cube's solver is a fresh clone of the
// pristine template evolving only by its own (sorted, deterministic)
// blocking clauses, so the k-th model of cube i is a pure function of
// the compiled instance — no per-class canonicalization re-solve is
// needed, which saves one template clone and one from-scratch solve per
// class. The cube stops early — without being marked exhausted — after
// max classes: the merge never takes more than max classes from any
// cube prefix, so draining further is wasted work. Returns false when
// the whole discovery must stop: budget tripped or context fired.
func (r *enumRun) solveCube(c *compiled, idx int, cube []sat.Lit) bool {
	assumps := c.assumptions()
	assumps = append(assumps, cube...)
	var blockBuf []sat.Lit // reused across the cube's blocking clauses
	found := 0
	for {
		if r.g.stopped() {
			return false
		}
		r.g.phase(c.solver)
		switch c.solver.SolveAssuming(assumps) {
		case sat.Sat:
			d := c.designFromModel()
			r.co.append(idx, &enumClass{systems: d.Systems, design: d})
			found++
			if len(c.sysNames) == 0 {
				// No system vocabulary: the one (empty) class is the whole
				// space, and its blocking clause would be the empty clause,
				// which poisons the solver.
				r.co.markExhausted(idx)
				return true
			}
			if found >= r.co.max {
				return true // per-cube cap; cube stays inexhausted
			}
			blockBuf = c.blockingClause(d.Systems, blockBuf)
			c.solver.AddClause(blockBuf...)
		case sat.Unsat:
			r.co.markExhausted(idx)
			return true // cube provably drained; on to the next
		default:
			r.g.trip(c.solver.StopCause())
			return false
		}
	}
}

// finish assembles the deterministic result from the cube merge. Three
// outcomes:
//   - budget tripped: partial designs plus the typed Exhausted error,
//     exactly as the sequential path reported;
//   - the merge was cut at max, or some needed cube was not drained:
//     Truncated with Reason "limit" — more classes may exist;
//   - otherwise every cube ran dry and nothing was cut: Designs is
//     provably complete (an exact fit of space size == max included).
func (r *enumRun) finish(res *EnumerateResult) *EnumerateResult {
	classes, complete := r.co.merge()
	res.Designs = sortDesigns(classes)
	if ex := r.g.exhausted(); ex != nil {
		res.Truncated = true
		res.Exhausted = ex
		res.Reason = ex.Cause
		res.Spent = res.Exhausted.Spent
		return res
	}
	if !complete {
		// Stopped at the class cap: more classes may exist.
		res.Truncated = true
		res.Reason = "limit"
	}
	res.Spent = r.g.spent()
	return res
}

// sortDesigns returns the merged designs sorted element-wise by system
// set. (Comparing fmt.Sprint of the slices, as the pre-refactor sort
// did, is ambiguous — ["a b","c"] renders like ["a","b c"] — and
// allocates on every comparison.)
func sortDesigns(classes []*enumClass) []*Design {
	if len(classes) == 0 {
		return nil
	}
	out := make([]*Design, len(classes))
	for i, cls := range classes {
		out[i] = cls.design
	}
	sort.Slice(out, func(i, j int) bool { return lessSystems(out[i].Systems, out[j].Systems) })
	return out
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
