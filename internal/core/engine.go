package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"netarch/internal/kb"
	"netarch/internal/sat"
)

// Engine is the reasoning engine over one knowledge base. It is cheap to
// construct and safe for concurrent queries: compilation is amortized
// through a compiled-base cache (see cache.go) guarded by a RWMutex, and
// every query solves against a private clone of the cached base, so
// goroutines never share mutable solver state. Use CacheStats,
// SetCacheCapacity and InvalidateCache to observe and control the cache;
// the cache and slice counters are one CacheStats value under one
// mutex, so CacheStats never returns a torn snapshot.
type Engine struct {
	// kbCur is the engine's current knowledge base, guarded by mu —
	// UpdateKB swaps it live. Read it once per operation through
	// kbSnapshot() and use the captured pointer throughout; the KBs
	// themselves are immutable from the engine's point of view.
	kbCur *kb.KB
	// kbGen counts KB swaps (UpdateKB) and in-place invalidations
	// (InvalidateCache), guarded by mu. baseFor records the generation it
	// compiled against and discards the result instead of caching it when
	// the generation moved — a compile raced an update and would poison
	// the fresh cache with a previous-KB base.
	kbGen uint64
	// updateMu serializes UpdateKB calls (queries never take it).
	updateMu sync.Mutex

	fault func(sat.FaultEvent, sat.Stats) bool

	// Compiled-base cache: scenario-shape fingerprint → frozen instance.
	// baseOrder tracks insertion for FIFO eviction at cacheCap entries.
	mu        sync.RWMutex
	bases     map[string]*compiled
	baseOrder []string
	cacheCap  int

	// stats holds every cache and slice counter; each bump and each
	// CacheStats snapshot holds statsMu, so a snapshot is never torn.
	// Size and Capacity stay zero here: CacheStats reads them under mu.
	statsMu sync.Mutex
	stats   CacheStats

	// Relevance slicing (slice.go). sliceMode is the policy (SliceAuto /
	// SliceOff / SliceOn); sliceMemo caches computed slices per
	// (generation, request) under its own lock so the warm path never
	// recomputes a cone.
	sliceMode atomic.Int32
	sliceMu   sync.Mutex
	sliceMemo map[string]*kbSlice

	// names interns namespaced atom strings across compiles (intern.go):
	// with slicing, one engine runs many small compiles over the same
	// catalog vocabulary, and the canonical strings are shared by all of
	// them.
	names atomInterner
}

// New validates the knowledge base and returns an engine over it.
func New(k *kb.KB) (*Engine, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		kbCur:    k,
		bases:    make(map[string]*compiled),
		cacheCap: DefaultCacheCapacity,
	}, nil
}

// kbSnapshot captures the current KB pointer under the read lock. Every
// engine operation that reads the KB takes one snapshot up front and uses
// it throughout, so a concurrent UpdateKB can never hand one operation
// two different KB revisions.
func (e *Engine) kbSnapshot() *kb.KB {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.kbCur
}

// SetFaultHook installs a fault-injection callback on every solver the
// engine compiles from now on (see sat.Options.FaultHook): it fires at
// each solve entry and conflict boundary, and returning true interrupts
// the solve there. It makes every degraded path — interrupts, budget
// trips at the Nth conflict — deterministically testable. Not meant for
// production use; not safe to change while queries are in flight.
func (e *Engine) SetFaultHook(h func(sat.FaultEvent, sat.Stats) bool) { e.fault = h }

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
	return e.run(ctx, "synthesize", sc, b)
}

func (e *Engine) run(ctx context.Context, query string, sc Scenario, b Budget) (*Report, error) {
	c, err := e.instance(&sc)
	if err != nil {
		return nil, err
	}
	return e.decide(ctx, query, b, c, nil)
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
	// Pin the design by construction: every system var gets a
	// pin/forbid selector so explanations reference the design choices.
	k := e.kbSnapshot()
	sc2 := sc
	sc2.PinnedSystems = append([]string(nil), sc.PinnedSystems...)
	sc2.ForbiddenSystems = append([]string(nil), sc.ForbiddenSystems...)
	deployed := map[string]bool{}
	for _, s := range design.Systems {
		if k.SystemByName(s) == nil {
			return nil, fmt.Errorf("core: design deploys unknown system %q", s)
		}
		deployed[s] = true
		sc2.PinnedSystems = append(sc2.PinnedSystems, s)
	}
	for i := range k.Systems {
		if !deployed[k.Systems[i].Name] {
			sc2.ForbiddenSystems = append(sc2.ForbiddenSystems, k.Systems[i].Name)
		}
	}
	if len(design.Hardware) > 0 {
		sc2.PinnedHardware = map[kb.HardwareKind]string{}
		for kind, name := range sc.PinnedHardware {
			sc2.PinnedHardware[kind] = name
		}
		for kind, name := range design.Hardware {
			if h := k.HardwareByName(name); h == nil || h.Kind != kind {
				return nil, fmt.Errorf("core: design selects unknown %s %q", kind, name)
			}
			sc2.PinnedHardware[kind] = name
		}
	}
	return e.run(ctx, "check", sc2, b)
}

// decide solves under all selectors plus extra assumptions, producing a
// report with either a witness or a minimized explanation. An Unknown
// verdict on the main decision maps to *ErrResourceExhausted; Unknown
// during minimization degrades to an approximate explanation.
func (e *Engine) decide(ctx context.Context, query string, b Budget, c *compiled, extra []sat.Lit) (*Report, error) {
	g := govern(ctx, query, b)
	defer g.done()
	g.adopt(c.solver)
	assumps := append(c.assumptions(), extra...)
	rep := &Report{}
	switch status := c.solver.SolveAssuming(assumps); status {
	case sat.Sat:
		rep.Verdict = Feasible
		rep.Design = c.designFromModel()
	case sat.Unsat:
		rep.Verdict = Infeasible
		rep.Explanation = e.minimizeCore(c, extra, g)
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
func (e *Engine) minimizeCore(c *compiled, extra []sat.Lit, g *governor) *Explanation {
	inCore := map[sat.Lit]bool{}
	for _, l := range c.solver.FinalConflict() {
		inCore[l] = true
	}
	// Candidate selectors (extras are always kept: they are the query).
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
		trial := make([]sat.Lit, 0, len(kept)-1+len(extra))
		for j, s := range kept {
			if j != i {
				trial = append(trial, s.lit)
			}
		}
		trial = append(trial, extra...)
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
	rep, err := e.run(ctx, "explain", sc, b)
	if err != nil {
		return nil, err
	}
	return rep.Explanation, nil
}
