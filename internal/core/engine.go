package core

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"sync"

	"netarch/internal/kb"
	"netarch/internal/sat"
)

// Engine is the reasoning engine over one knowledge base. It is cheap to
// construct and safe for concurrent queries: compilation is amortized
// through a compiled-base cache (see cache.go), and every query solves
// against a private clone of the cached base, so goroutines never share
// mutable solver state. One mutex guards everything a query reads or
// counts; a warm query takes it twice, once to read the revision and
// once to look up its base and count the hit. Use CacheStats and
// SetCacheCapacity to observe and control the cache, and UpdateKB to
// change the knowledge base.
type Engine struct {
	// updateMu serializes UpdateKB calls (queries never take it). The
	// recompiles run under it but outside mu.
	updateMu sync.Mutex

	// mu guards every field below except sliceAbove.
	mu sync.Mutex
	// kbCur is the engine's current knowledge base; UpdateKB swaps it
	// live. A query reads it once, with kbGen, as its revision and uses
	// that KB throughout; the KBs themselves are immutable from the
	// engine's point of view.
	kbCur *kb.KB
	// kbGen counts UpdateKB's swaps. A query whose revision's generation
	// is no longer current neither takes nor inserts a cached base or
	// slice: it answers privately against the KB it read.
	kbGen uint64

	fault func(sat.FaultEvent, sat.Stats) bool

	// Compiled-base cache: scenario-shape fingerprint → frozen instance.
	// baseOrder tracks insertion for FIFO eviction at cacheCap entries.
	bases     map[string]*compiled
	baseOrder []string
	cacheCap  int

	// stats holds every cache and slice counter. Size and Capacity stay
	// zero here: CacheStats fills them in from bases and cacheCap.
	stats CacheStats

	// sliceMemo caches the current generation's relevance slices
	// (slice.go) per request, so the warm path never recomputes a cone.
	sliceMemo map[string]*kbSlice

	// sliceAbove is the catalog size (SKUs) above which queries slice
	// (see slices). Set at construction and never written after, so it
	// is read without mu.
	sliceAbove int
}

// New validates the knowledge base and returns an engine over it.
func New(k *kb.KB) (*Engine, error) {
	return newEngine(k, sliceThreshold)
}

// newEngine is New with the slicing threshold as a parameter: queries
// over a catalog of more than sliceAbove SKUs slice. Tests pass 0 to
// slice every catalog, or math.MaxInt to slice none.
func newEngine(k *kb.KB, sliceAbove int) (*Engine, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		kbCur:      k,
		bases:      make(map[string]*compiled),
		cacheCap:   DefaultCacheCapacity,
		sliceAbove: sliceAbove,
	}, nil
}

// revision is what a query reads of the engine's settings, in one
// critical section: the KB and its generation and the fault hook.
type revision struct {
	kb    *kb.KB
	gen   uint64
	fault func(sat.FaultEvent, sat.Stats) bool
}

// revision reads the engine's current revision.
func (e *Engine) revision() revision {
	e.mu.Lock()
	defer e.mu.Unlock()
	return revision{kb: e.kbCur, gen: e.kbGen, fault: e.fault}
}

// slices is the engine's one slicing rule: a query of the given kind
// over k compiles a relevance slice (DESIGN.md §16) when k has more
// than e.sliceAbove SKUs, unless it enumerates. A slice keeps every
// verdict, optimum and Pareto frontier of the full encoding but not its
// design classes, so enumeration, and Disambiguate through it, always
// compiles the full KB.
func (e *Engine) slices(query string, k *kb.KB) bool {
	return query != "enumerate" && len(k.Hardware) > e.sliceAbove
}

// begin is every query's entry: it reads the revision once and starts
// the query at it (see start).
func (e *Engine) begin(ctx context.Context, query string, sc Scenario, b Budget, bind func(*kb.KB, *Scenario) error) (*compiled, *governor, error) {
	return e.start(ctx, query, e.revision(), sc, b, bind)
}

// start governs the query from its entry, then builds its instance
// against rev and adopts the instance's solver, so Spent.Wall and
// Budget.Timeout cover the slice, the compile and the clone as well as
// the solves. A query whose context is already done is refused before
// it compiles anything. bind, when non-nil, first rewrites the scenario
// against rev's KB. On success the caller must defer g.done().
func (e *Engine) start(ctx context.Context, query string, rev revision, sc Scenario, b Budget, bind func(*kb.KB, *Scenario) error) (*compiled, *governor, error) {
	g := govern(ctx, query, b)
	var c *compiled
	err := g.refuse()
	if err == nil && bind != nil {
		err = bind(rev.kb, &sc)
	}
	if err == nil {
		c, err = e.instance(rev, query, &sc)
	}
	if err != nil {
		g.done()
		return nil, nil, err
	}
	g.adopt(c.solver)
	return c, g, nil
}

// SetFaultHook installs a fault-injection callback on the solver of
// every query that begins after it (see sat.Options.FaultHook): it fires
// at each solve entry and conflict boundary, and returning true
// interrupts the solve there. It makes every degraded path
// deterministically testable. Not meant for production use.
func (e *Engine) SetFaultHook(h func(sat.FaultEvent, sat.Stats) bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fault = h
}

// Synthesize answers the existential query: does a compliant design exist
// for the scenario? On success the report carries a witness design; on
// failure it carries a minimal explanation.
func (e *Engine) Synthesize(sc Scenario) (*Report, error) {
	return e.SynthesizeCtx(context.Background(), sc, Budget{})
}

// SynthesizeCtx is Synthesize under a context and resource budget. When
// the context is cancelled, its deadline (or b.Timeout) expires, or a
// work budget trips before a verdict, it returns *ErrResourceExhausted;
// when only the explanation-minimization phase is cut short, it returns
// the report with Explanation.Approximate set instead of failing.
func (e *Engine) SynthesizeCtx(ctx context.Context, sc Scenario, b Budget) (*Report, error) {
	return e.decide(ctx, "synthesize", sc, b, nil)
}

// Check verifies a concrete design against the scenario: exactly the
// design's systems deployed and its hardware selected. On violation the
// explanation names the facts the design breaks.
func (e *Engine) Check(design Design, sc Scenario) (*Report, error) {
	return e.CheckCtx(context.Background(), design, sc, Budget{})
}

// CheckCtx is Check under a context and resource budget; see
// SynthesizeCtx for the degradation contract.
func (e *Engine) CheckCtx(ctx context.Context, design Design, sc Scenario, b Budget) (*Report, error) {
	return e.decide(ctx, "check", sc, b, design.pin)
}

// pin rewrites sc to pin the design by construction against k: every
// system gets a pin or forbid selector, so explanations reference the
// design choices, and the design's hardware is pinned.
func (d *Design) pin(k *kb.KB, sc *Scenario) error {
	sc.PinnedSystems = append([]string(nil), sc.PinnedSystems...)
	sc.ForbiddenSystems = append([]string(nil), sc.ForbiddenSystems...)
	deployed := map[string]bool{}
	for _, s := range d.Systems {
		if k.SystemByName(s) == nil {
			return fmt.Errorf("core: design deploys unknown system %q", s)
		}
		deployed[s] = true
		sc.PinnedSystems = append(sc.PinnedSystems, s)
	}
	for i := range k.Systems {
		if !deployed[k.Systems[i].Name] {
			sc.ForbiddenSystems = append(sc.ForbiddenSystems, k.Systems[i].Name)
		}
	}
	for kind, name := range d.Hardware {
		if h := k.HardwareByName(name); h == nil || h.Kind != kind {
			return fmt.Errorf("core: design selects unknown %s %q", kind, name)
		}
	}
	if len(d.Hardware) > 0 {
		pinned := make(map[kb.HardwareKind]string, len(sc.PinnedHardware)+len(d.Hardware))
		maps.Copy(pinned, sc.PinnedHardware)
		maps.Copy(pinned, d.Hardware)
		sc.PinnedHardware = pinned
	}
	return nil
}

// decide answers a decision query: it solves under all selectors,
// producing a report with either a witness or a minimized explanation.
// An Unknown verdict on the main decision maps to *ErrResourceExhausted;
// Unknown during minimization degrades to an approximate explanation.
func (e *Engine) decide(ctx context.Context, query string, sc Scenario, b Budget, bind func(*kb.KB, *Scenario) error) (*Report, error) {
	c, g, err := e.begin(ctx, query, sc, b, bind)
	if err != nil {
		return nil, err
	}
	defer g.done()
	rep := &Report{}
	switch status := c.solver.SolveAssuming(c.assumptions()); status {
	case sat.Sat:
		rep.Verdict = Feasible
		rep.Design = c.designFromModel()
	case sat.Unsat:
		rep.Verdict = Infeasible
		rep.Explanation = e.minimizeCore(c, g)
	default:
		g.trip(c.solver.StopCause())
		return nil, g.exhausted()
	}
	rep.Spent = g.spent()
	return rep, nil
}

// minimizeCore shrinks an Unsat verdict to a minimal unsatisfiable
// subset of selectors (deletion-based MUS extraction), then maps selector
// names to notes. The deletion loop runs under its own phase budget:
// when it trips (or the query deadline fires mid-minimization), the
// current — correct but possibly unminimized — conflict is returned with
// Approximate set instead of spinning through O(n²) solver calls.
//
// The candidate set is seeded from the solver's FinalConflict and keeps
// intersecting with each trial's new core, so every Unsat trial can
// shrink the set by more than the one selector it dropped.
func (e *Engine) minimizeCore(c *compiled, g *governor) *Explanation {
	inCore := map[sat.Lit]bool{}
	for _, l := range c.solver.FinalConflict() {
		inCore[l] = true
	}
	// Candidate selectors.
	var kept []selector
	for _, s := range c.selectors {
		if inCore[s.lit] {
			kept = append(kept, s)
		}
	}
	// Minimization is its own phase: a fresh work allowance, so the main
	// decision cannot starve it, and it cannot spin unboundedly.
	g.phase()
	ex := &Explanation{}
	// Deletion loop: try dropping each candidate; keep dropped if still
	// unsat without it.
loop:
	for i := 0; i < len(kept); i++ {
		trial := make([]sat.Lit, 0, len(kept)-1)
		for j, s := range kept {
			if j != i {
				trial = append(trial, s.lit)
			}
		}
		switch c.solver.SolveAssuming(trial) {
		case sat.Unsat:
			// Still unsat without kept[i]: remove it. Additionally
			// intersect with the new (possibly smaller) core.
			newCore := map[sat.Lit]bool{}
			for _, l := range c.solver.FinalConflict() {
				newCore[l] = true
			}
			var next []selector
			for j, s := range kept {
				if j != i && newCore[s.lit] {
					next = append(next, s)
				}
			}
			kept = next
			i = -1 // restart scan over the smaller set
		case sat.Sat:
			// kept[i] is necessary; keep scanning.
		default:
			// Budget exhausted or interrupted mid-minimization: degrade
			// to the unminimized set rather than hang.
			ex.Approximate = true
			ex.ApproxCause = g.trip(c.solver.StopCause())
			break loop
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].name < kept[j].name })
	for _, s := range kept {
		ex.Conflicts = append(ex.Conflicts, ConflictItem{Name: s.name, Note: s.note})
	}
	return ex
}

// Explain runs Synthesize and returns only the explanation (nil when the
// scenario is feasible).
func (e *Engine) Explain(sc Scenario) (*Explanation, error) {
	return e.ExplainCtx(context.Background(), sc, Budget{})
}

// ExplainCtx is Explain under a context and resource budget; see
// SynthesizeCtx for the degradation contract.
func (e *Engine) ExplainCtx(ctx context.Context, sc Scenario, b Budget) (*Explanation, error) {
	rep, err := e.decide(ctx, "explain", sc, b, nil)
	if err != nil {
		return nil, err
	}
	return rep.Explanation, nil
}
