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
// SetCacheCapacity and InvalidateCache to observe and control the cache.
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
	// The hit/miss counters are atomic so the warm path (a read lock and
	// a counter bump) never serializes concurrent queries.
	mu        sync.RWMutex
	bases     map[string]*compiled
	baseOrder []string
	cacheCap  int
	hits      atomic.Int64
	misses    atomic.Int64

	// Disk tier (see diskcache.go): cacheDir enables persistence of
	// frozen bases across processes; kbHash keys the snapshots to the
	// exact knowledge-base content. diskMu serializes writes+eviction
	// (loads are lock-free). The disk counters are atomic for the same
	// reason hits/misses are.
	cacheDir      string
	kbHash        [32]byte
	diskMu        sync.Mutex
	diskMaxFiles  int
	diskMaxBytes  int64
	diskHits      atomic.Int64
	diskMisses    atomic.Int64
	diskWrites    atomic.Int64
	diskEvictions atomic.Int64
	diskCorrupt   atomic.Int64
	diskStale     atomic.Int64

	// workers is the enumeration worker-pool size; 0 means the default,
	// runtime.GOMAXPROCS(0) at query time. See SetWorkers.
	workers atomic.Int32

	// poolSize is the per-base pre-clone pool target (see SetClonePool);
	// 0 disables pooling. poolHits/poolMisses count queries served from a
	// pooled clone vs queries that cloned inline.
	poolSize   atomic.Int32
	poolHits   atomic.Int64
	poolMisses atomic.Int64

	// portfolio is the diversified race width for decision queries
	// (see SetPortfolio); <= 1 keeps the single-solver path. warmStart
	// toggles cross-query phase/activity profile reuse (SetWarmStart).
	portfolio atomic.Int32
	warmStart atomic.Bool
	// optStrategy is the engine-wide default MaxSAT descent strategy
	// for Optimize/Pareto queries (see SetOptimizeStrategy); the zero
	// value is StrategyBinary.
	optStrategy atomic.Int32
	// Lifetime clause-exchange totals across portfolio queries
	// (PortfolioStats).
	portExported atomic.Int64
	portImported atomic.Int64

	// Relevance slicing (slice.go). sliceMode is the policy (SliceAuto /
	// SliceOff / SliceOn); sliceMemo caches computed slices per
	// (generation, request) under its own lock so the warm path never
	// recomputes a cone. The counters feed CacheStats.
	sliceMode     atomic.Int32
	sliceMu       sync.Mutex
	sliceMemo     map[string]*kbSlice
	sliceComputed atomic.Int64
	sliceHits     atomic.Int64
	sliceSKUsIn   atomic.Int64
	sliceSKUsKept atomic.Int64

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

// KB returns the engine's current knowledge base. UpdateKB swaps the
// pointer live, so callers spanning multiple KB reads should capture the
// result once rather than calling KB() repeatedly.
func (e *Engine) KB() *kb.KB { return e.kbSnapshot() }

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
	g := govern(ctx, query, b, c.solver)
	defer g.done()
	if e.warmStart.Load() {
		if p := c.warmProfile(); p != nil {
			c.solver.ApplyProfile(p)
		}
	}
	assumps := append(c.assumptions(), extra...)
	rep := &Report{}
	if n := int(e.portfolio.Load()); n > 1 {
		// Diversified race: the query solver as deterministic reference
		// plus n-1 perturbed helpers sharing learnt clauses, minted once
		// and reused across the main race and every minimization trial.
		// The verdict is worker-count independent (see sat.RacePortfolio);
		// Unsat explanations are re-minimized from all selectors so they
		// do not depend on which worker's conflict ended the race.
		team := e.portfolioTeam(b, c, n)
		switch res := e.racePortfolio(g, team, assumps); res.Status {
		case sat.Sat:
			rep.Verdict = Feasible
			rep.Design = c.designFrom(res.Model)
		case sat.Unsat:
			rep.Verdict = Infeasible
			rep.Explanation = e.minimizeCore(c, extra, g, true)
		default:
			return nil, g.exhausted()
		}
		// Team solvers are minted per query, so their counters are this
		// query's clause-exchange volume.
		for _, s := range team {
			st := s.Stats()
			e.portExported.Add(st.Exported)
			e.portImported.Add(st.Imported)
		}
	} else {
		switch status := c.solver.SolveAssuming(assumps); status {
		case sat.Sat:
			rep.Verdict = Feasible
			rep.Design = c.designFromModel()
		case sat.Unsat:
			rep.Verdict = Infeasible
			rep.Explanation = e.minimizeCore(c, extra, g, false)
		default:
			return nil, g.exhausted()
		}
	}
	if e.warmStart.Load() {
		c.storeWarmProfile()
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
// Two modes, keyed on team. With team == nil (single-solver path) the
// candidate set is seeded from the solver's FinalConflict and keeps
// intersecting with each trial's new core — the fast path when one
// deterministic solver produced the conflict. The normalized mode
// (team != nil, portfolio races) starts from ALL selectors and runs a
// plain deletion scan: which worker's conflict ended a race is a
// scheduling accident, and the interrupted reference's conflict-clause
// state varies with timing, but trial *verdicts* are properties of the
// formula alone — so a verdict-driven scan yields one explanation for
// every worker count and schedule. The two modes can legitimately land
// on different (equally minimal) cores. Normalized trials run on the
// reference solver alone: after the main race its phases and activities
// already point at the conflict, so trials are short re-solves, and
// racing them would cost a team fan-out per trial for no verdict change.
func (e *Engine) minimizeCore(c *compiled, extra []sat.Lit, g *governor, normalized bool) *Explanation {
	var candidates []selector
	if normalized {
		candidates = append(candidates, c.selectors...)
	} else {
		inCore := map[sat.Lit]bool{}
		for _, l := range c.solver.FinalConflict() {
			inCore[l] = true
		}
		// Candidate selectors (extras are always kept: they are the query).
		for _, s := range c.selectors {
			if inCore[s.lit] {
				candidates = append(candidates, s)
			}
		}
	}
	// Minimization is its own phase: a fresh work allowance, so the main
	// decision cannot starve it, and it cannot spin unboundedly.
	g.phase()
	ex := &Explanation{}
	// Deletion loop: try dropping each candidate; keep dropped if still
	// unsat without it.
	kept := append([]selector(nil), candidates...)
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
			if normalized {
				// Verdict-driven removal only: core intersection would
				// reintroduce the solver's timing-dependent state.
				kept = append(kept[:i:i], kept[i+1:]...)
				i--
				continue
			}
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
			ex.ApproxCause, _ = g.cause()
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
