package core

import (
	"fmt"
	"sort"
	"strings"

	"netarch/internal/intlin"
	"netarch/internal/kb"
	"netarch/internal/sat"
)

// This file implements query amortization: compilation pays once per
// (KB, scenario shape) instead of once per query. A scenario is split
// into its structural "shape" (workloads, fleet size, hardware catalog
// restrictions, bounds, cost cap — everything that changes the CNF) and
// its query-side requirements (context pins, Require, pinned/forbidden
// systems — everything expressible as assumption-guarded selector
// clauses). Shapes compile to frozen bases keyed by
// Scenario.fingerprint(); each query clones the base solver and layers
// its own selectors on the private clone. Different contexts and
// requirements over the same workload set therefore share one base.

// DefaultCacheCapacity is the number of compiled bases an Engine retains
// by default. See Engine.SetCacheCapacity.
const DefaultCacheCapacity = 32

// CacheStats reports the state of an engine's compiled-base cache. The
// engine also stores its counters in this struct, under its mutex, and
// Engine.CacheStats copies it, so every snapshot is consistent.
type CacheStats struct {
	// Size is the number of compiled bases currently cached; Capacity is
	// the retention limit (0 retains none, so every query compiles).
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Hits and Misses count queries served from an in-memory base vs
	// queries that had to compile one, over the engine's lifetime
	// (UpdateKB does not reset them). Misses is exactly the
	// number of base compiles: Hits + Misses = queries.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Deprecated: PoolHits and PoolMisses always read 0. The engine
	// keeps no clone pool; every query clones its base inline.
	PoolHits   int64 `json:"-"`
	PoolMisses int64 `json:"-"`
	// Relevance-slicing counters (all zero unless a query sliced: only
	// non-enumeration queries over a catalog of more than 512 SKUs do).
	// SliceComputed: cone-of-influence slices computed; SliceHits:
	// slices served from the request memo.
	// SliceSKUsIn/SliceSKUsKept: cumulative catalog sizes entering and
	// surviving slicing, so SliceSKUsKept/SliceSKUsIn is the average
	// retention ratio.
	SliceComputed int64 `json:"slice_computed"`
	SliceHits     int64 `json:"slice_hits"`
	SliceSKUsIn   int64 `json:"slice_skus_in"`
	SliceSKUsKept int64 `json:"slice_skus_kept"`
}

// String renders the cache stats.
func (cs CacheStats) String() string {
	total := cs.Hits + cs.Misses
	rate := 0.0
	if total > 0 {
		rate = float64(cs.Hits) / float64(total) * 100
	}
	s := fmt.Sprintf("%d bases cached (cap %d), %d hits / %d misses (%.0f%% hit rate)",
		cs.Size, cs.Capacity, cs.Hits, cs.Misses, rate)
	if cs.SliceComputed+cs.SliceHits > 0 {
		s += fmt.Sprintf("; slice: %d computed / %d memo hits, avg %d→%d SKUs",
			cs.SliceComputed, cs.SliceHits,
			cs.SliceSKUsIn/max(cs.SliceComputed, 1),
			cs.SliceSKUsKept/max(cs.SliceComputed, 1))
	}
	return s
}

// CacheStats returns a snapshot of the compiled-base cache counters.
//
// Every counter, Size and Capacity are written and copied under the
// engine mutex, so no snapshot is torn: every query counts exactly one
// of Hits and Misses before it solves, so Hits+Misses is exactly the
// number of queries counted at the instant of the copy, and on an engine
// that is never updated Size ≤ Misses, since every cached base was a
// miss. TestCacheStatsSnapshotHammer pins the invariants under -race.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	cs := e.stats
	cs.Size, cs.Capacity = len(e.bases), e.cacheCap
	return cs
}

// SetCacheCapacity bounds how many compiled bases the engine retains
// (FIFO eviction). n <= 0 retains none: every query compiles its base,
// counts a miss and solves on a clone of it, exactly as a query that
// misses a retaining cache does. Safe to call concurrently with queries.
func (e *Engine) SetCacheCapacity(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 0 {
		n = 0
	}
	e.cacheCap = n
	for len(e.baseOrder) > n {
		e.evictOldestLocked()
	}
}

// evictOldestLocked removes the oldest cached base (FIFO); the cache
// must not be empty. The order slice is slid down in place and its
// vacated tail slot cleared, so no evicted key stays reachable from the
// backing array. Caller holds e.mu.
func (e *Engine) evictOldestLocked() {
	delete(e.bases, e.baseOrder[0])
	copy(e.baseOrder, e.baseOrder[1:])
	last := len(e.baseOrder) - 1
	e.baseOrder[last] = ""
	e.baseOrder = e.baseOrder[:last]
}

// baseShape strips a scenario to the fields that shape the compiled base.
// Context, Require, PinnedSystems and ForbiddenSystems are query-side:
// specialize() re-asserts them on each clone under fresh selectors. Two
// exceptions stay base-side: the cxl_pooling atom feeds the memory-
// capacity arithmetic structurally, and when performance Bounds are
// present the full Context does (order guards resolve against it at
// compile time).
func baseShape(sc *Scenario) Scenario {
	shape := Scenario{
		NumServers:  sc.NumServers,
		NumSwitches: sc.NumSwitches,
		Workloads:   append([]string(nil), sc.Workloads...),
		Bounds:      append([]PerformanceBound(nil), sc.Bounds...),
		MaxCostUSD:  sc.MaxCostUSD,
	}
	if sc.PinnedHardware != nil {
		shape.PinnedHardware = make(map[kb.HardwareKind]string, len(sc.PinnedHardware))
		for k, v := range sc.PinnedHardware {
			shape.PinnedHardware[k] = v
		}
	}
	if sc.AllowedHardware != nil {
		shape.AllowedHardware = make(map[kb.HardwareKind][]string, len(sc.AllowedHardware))
		for k, v := range sc.AllowedHardware {
			shape.AllowedHardware[k] = append([]string(nil), v...)
		}
	}
	if sc.RackServers != nil {
		shape.RackServers = make(map[string]int, len(sc.RackServers))
		for k, v := range sc.RackServers {
			shape.RackServers[k] = v
		}
	}
	if len(sc.Bounds) > 0 {
		if sc.Context != nil {
			shape.Context = make(map[string]bool, len(sc.Context))
			for a, v := range sc.Context {
				shape.Context[a] = v
			}
		}
	} else if v, ok := sc.Context["cxl_pooling"]; ok {
		shape.Context = map[string]bool{"cxl_pooling": v}
	}
	return shape
}

// baseFor resolves the frozen base for a scenario's shape at revision
// rev, sliced when slice is set (see Engine.slices): the cached base when
// rev is current and one is cached, otherwise a fresh compile, counted as
// a miss. A fresh base is cached unless the capacity is 0 or rev's
// generation is no longer current — cache keys do not carry the
// generation, so a stale revision's base belongs to another KB. Any base
// may be shared with other queries, so callers solve on a clone of
// base.solver, never the base solver itself. A warm query takes e.mu
// once here; computing a slice or compiling a base happens off the lock
// and takes it again to record the result.
func (e *Engine) baseFor(rev revision, sc *Scenario, slice bool) (*compiled, error) {
	shape := baseShape(sc)
	fp := shape.fingerprint()
	// Relevance slicing (slice.go), when slice is set and the request
	// derives: the slice's identity is part of the cache key, so a
	// sliced base can never alias a full one or another slice's.
	var req *sliceRequest
	var reqKey string
	if slice {
		req = deriveSliceRequest(rev.kb, sc, &shape)
	}
	if req != nil {
		reqKey = req.key()
	}

	e.mu.Lock()
	var sl *kbSlice
	if req != nil && rev.gen == e.kbGen {
		if sl = e.sliceMemo[reqKey]; sl != nil {
			e.stats.SliceHits++
		}
	}
	if req == nil || sl != nil {
		if base := e.cachedLocked(rev.gen, fp+sliceKeySuffix(sl)); base != nil {
			e.mu.Unlock()
			return base, nil
		}
	}
	e.mu.Unlock()

	if req != nil && sl == nil {
		// Compute off-lock: deterministic, so a racing duplicate is
		// merely redundant work, never an inconsistency.
		sl = computeSlice(rev.kb, req)
		e.mu.Lock()
		e.recordSliceLocked(reqKey, sl, rev.gen == e.kbGen)
		base := e.cachedLocked(rev.gen, fp+sliceKeySuffix(sl))
		e.mu.Unlock()
		if base != nil {
			return base, nil
		}
	}

	fresh, err := compile(rev.kb, &shape, sl)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Misses++
	if e.cacheCap == 0 || rev.gen != e.kbGen {
		// Retain nothing, or the KB moved (UpdateKB) after the query
		// read its revision: the query answers on this base privately,
		// against the KB it read, and caching it would poison the
		// current generation's cache.
		return fresh, nil
	}
	key := fp + sliceKeySuffix(sl)
	if existing := e.bases[key]; existing != nil {
		// Lost a compile race: adopt the stored base so every query over
		// this shape clones the same instance.
		return existing, nil
	}
	e.bases[key] = fresh
	e.baseOrder = append(e.baseOrder, key)
	if len(e.baseOrder) > e.cacheCap {
		e.evictOldestLocked()
	}
	return fresh, nil
}

// cachedLocked returns the cached base for key and counts the hit, or
// nil when gen is stale or key is absent. Caller holds e.mu.
func (e *Engine) cachedLocked(gen uint64, key string) *compiled {
	if gen != e.kbGen {
		return nil
	}
	base := e.bases[key]
	if base != nil {
		e.stats.Hits++
	}
	return base
}

// instance produces the per-query compiled instance at revision rev for
// a query of the given kind: the base baseFor resolves, sliced as
// Engine.slices decides, cloned, and the clone specialized with the
// query's own selectors. A clone searches exactly as its base does, so
// cached and uncached queries answer byte-identically. The engine keeps
// no clones: one that a query panics on, trips a budget in or abandons
// is left to the GC, so quarantine is structural — a dirtied solver has
// no path back to a later query.
func (e *Engine) instance(rev revision, query string, sc *Scenario) (*compiled, error) {
	base, err := e.baseFor(rev, sc, e.slices(query, rev.kb))
	if err != nil {
		return nil, err
	}
	s := base.solver.Clone()
	s.SetFaultHook(rev.fault)
	return base.specialize(sc, s), nil
}

// Prewarm compiles the base a synthesis of the scenario uses (sliced
// like one), so the first real query over that shape pays only its
// clone, not the compile. It counts as one query in the cache counters
// (a miss on a cold engine, a hit on a warm one). Serving processes
// call this per expected scenario shape before reporting ready.
func (e *Engine) Prewarm(sc Scenario) error {
	rev := e.revision()
	_, err := e.baseFor(rev, &sc, e.slices("synthesize", rev.kb))
	return err
}

// SetClonePool does nothing.
//
// Deprecated: the engine keeps no clone pool; every query over a cached
// base clones it inline, and CacheStats.PoolHits/PoolMisses read 0.
func (e *Engine) SetClonePool(n int) {}

// SetWorkers does nothing.
//
// Deprecated: a compile converts its assertions to CNF on one goroutine,
// so there is no worker count to set.
func (e *Engine) SetWorkers(n int) {}

// specialize layers one query's requirements onto the compiled base:
// context overrides and additions, Require groups, and pinned/forbidden
// systems all become assumption-guarded selector clauses on the given
// solver, the query's private clone of the base solver. The base is only
// read, never written — the returned compiled owns the solver and a
// fresh selector list, so concurrent queries over one base cannot
// interfere.
func (base *compiled) specialize(sc *Scenario, solver *sat.Solver) *compiled {
	c := &compiled{
		kb:          base.kb,
		sc:          sc,
		vocab:       base.vocab, // frozen: query-time access is Lookup-only
		solver:      solver,
		arith:       intlin.Attach(solver, base.arith.True()),
		sysLit:      base.sysLit,
		hwLit:       base.hwLit,
		sysNames:    base.sysNames,
		workloads:   base.workloads,
		derivedCtx:  base.derivedCtx,
		provides:    base.provides,
		frozen:      true,
		coresUsed:   base.coresUsed,
		coresTotal:  base.coresTotal,
		costTotal:   base.costTotal,
		totalKFlows: base.totalKFlows,
		maxPeakBW:   base.maxPeakBW,
	}

	// The query's pinned context: base pins overlaid with the scenario's.
	c.pinnedCtx = make(map[string]bool, len(base.pinnedCtx)+len(sc.Context))
	for a, v := range base.pinnedCtx {
		c.pinnedCtx[a] = v
	}
	for a, v := range sc.Context {
		c.pinnedCtx[a] = v
	}

	// Keep base selectors, dropping context pins the query overrides
	// (their asserted value disagrees with the query's); those atoms are
	// re-pinned below under fresh selectors.
	c.selectors = make([]selector, 0,
		len(base.selectors)+len(sc.Context)+len(sc.Require)+len(sc.PinnedSystems)+len(sc.ForbiddenSystems))
	c.selByName = make(map[string]int, cap(c.selectors))
	covered := make(map[string]bool)
	for _, s := range base.selectors {
		if atom, isCtx := strings.CutPrefix(s.name, "context:"); isCtx {
			if c.pinnedCtx[atom] != base.pinnedCtx[atom] {
				continue
			}
			covered[atom] = true
		}
		c.selByName[s.name] = len(c.selectors)
		c.selectors = append(c.selectors, s)
	}
	// add asserts one query-scope group, sel → implied (the unit ¬sel when
	// nothing can satisfy the group), under the selector addSelector
	// registers: a fresh solver variable, since c is frozen. A repeated
	// name re-asserts under the same selector, as in the base compiler.
	add := func(name, note string, implied ...sat.Lit) {
		sel := c.addSelector(name, note)
		c.solver.AddClause(append([]sat.Lit{sel.Flip()}, implied...)...)
	}

	// Context atoms the base does not assert: query additions + overrides.
	atoms := make([]string, 0, len(c.pinnedCtx))
	for a := range c.pinnedCtx {
		if !covered[a] {
			atoms = append(atoms, a)
		}
	}
	sort.Strings(atoms)
	for _, a := range atoms {
		f := c.ctxLit(a)
		if !c.pinnedCtx[a] {
			f = f.Flip()
		}
		add("context:"+a, fmt.Sprintf("environment fact: %s=%v", a, c.pinnedCtx[a]), f)
	}

	// Architect requirements. A property nothing in the KB provides gets
	// an unconditionally violated selector (the base asserted ¬prop for
	// workload needs; for query-only requires the unit ¬sel is equivalent
	// and keeps the MUS pointing at the require group).
	for _, p := range sc.Require {
		name := fmt.Sprintf("require:%s", p)
		note := fmt.Sprintf("architect requires %s", p)
		if c.provides[p] {
			add(name, note, sat.Lit(c.vocab.Lookup("prop:"+string(p))))
		} else {
			add(name, note)
		}
	}

	// Pinned and forbidden systems.
	for _, s := range sc.PinnedSystems {
		add("pin:system:"+s, fmt.Sprintf("architect pinned %s as deployed", s), c.systemLit(s))
	}
	for _, s := range sc.ForbiddenSystems {
		add("forbid:system:"+s, fmt.Sprintf("architect forbade %s", s), c.systemLit(s).Flip())
	}
	return c
}

// ctxLit returns the literal for a context atom, allocating a private
// solver variable for atoms absent from the frozen base vocabulary.
func (c *compiled) ctxLit(atom string) sat.Lit {
	if v := c.vocab.Lookup("ctx:" + atom); v != 0 {
		return sat.Lit(v)
	}
	if l, ok := c.extraCtx[atom]; ok {
		return l
	}
	l := sat.Lit(c.solver.NewVar())
	if c.extraCtx == nil {
		c.extraCtx = make(map[string]sat.Lit)
	}
	c.extraCtx[atom] = l
	return l
}

// systemLit returns the literal for a system name, allocating a private
// solver variable for names unknown to the KB (so pinning and forbidding
// the same unknown system still conflict, as they always did).
func (c *compiled) systemLit(name string) sat.Lit {
	if l, ok := c.sysLit[name]; ok {
		return l
	}
	if l, ok := c.extraSys[name]; ok {
		return l
	}
	l := sat.Lit(c.solver.NewVar())
	if c.extraSys == nil {
		c.extraSys = make(map[string]sat.Lit)
	}
	c.extraSys[name] = l
	return l
}
