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
// engine also stores its counters in this struct, under one mutex, and
// Engine.CacheStats copies it, so every snapshot is consistent.
type CacheStats struct {
	// Size is the number of compiled bases currently cached; Capacity is
	// the retention limit (0 means caching is disabled).
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Hits and Misses count queries served from an in-memory base vs
	// queries that had to compile one, over the engine's lifetime
	// (InvalidateCache does not reset them). A query revived from disk
	// counts as a DiskHit, not a Hit or a Miss, so Misses is exactly the
	// number of base compiles: Hits + DiskHits + Misses = queries.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Disk-tier counters (all zero unless SetCacheDir is active).
	// DiskHits: bases revived from a snapshot file. DiskMisses: lookups
	// with no usable file. DiskWrites: snapshot files persisted.
	// DiskEvictions: files removed by the size/count bound.
	// DiskCorrupt: files rejected (bad CRC/magic/version, fingerprint
	// mismatch) and quarantined. DiskStale: snapshots skipped because
	// they were written from a different KB revision — left on disk
	// untouched (the revision that wrote them may still be using them,
	// and a live UpdateKB rewrites them in place), not quarantined.
	DiskHits      int64 `json:"disk_hits"`
	DiskMisses    int64 `json:"disk_misses"`
	DiskWrites    int64 `json:"disk_writes"`
	DiskEvictions int64 `json:"disk_evictions"`
	DiskCorrupt   int64 `json:"disk_corrupt"`
	DiskStale     int64 `json:"disk_stale"`
	// Deprecated: PoolHits and PoolMisses always read 0. The engine
	// keeps no clone pool; every query clones its base inline.
	PoolHits   int64 `json:"-"`
	PoolMisses int64 `json:"-"`
	// Relevance-slicing counters (all zero unless slicing engaged — see
	// Engine.SetSliceMode). SliceComputed: cone-of-influence slices
	// computed; SliceHits: slices served from the request memo.
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
	total := cs.Hits + cs.DiskHits + cs.Misses
	rate := 0.0
	if total > 0 {
		rate = float64(cs.Hits+cs.DiskHits) / float64(total) * 100
	}
	s := fmt.Sprintf("%d bases cached (cap %d), %d hits / %d misses (%.0f%% hit rate)",
		cs.Size, cs.Capacity, cs.Hits, cs.Misses, rate)
	if cs.DiskHits+cs.DiskMisses+cs.DiskWrites+cs.DiskEvictions+cs.DiskCorrupt+cs.DiskStale > 0 {
		s += fmt.Sprintf("; disk: %d hits / %d misses, %d writes, %d evicted, %d corrupt, %d stale",
			cs.DiskHits, cs.DiskMisses, cs.DiskWrites, cs.DiskEvictions, cs.DiskCorrupt, cs.DiskStale)
	}
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
// The engine keeps every counter in one CacheStats value that is bumped
// and copied under one mutex, so no snapshot is torn: a cached query
// bumps exactly one of Hits, DiskHits and Misses before it solves, so
// Hits+DiskHits+Misses is exactly the number of queries counted at the
// instant of the copy. Size and Capacity are read under the cache lock.
// TestCacheStatsSnapshotHammer pins the invariants under the race
// detector.
func (e *Engine) CacheStats() CacheStats {
	e.statsMu.Lock()
	cs := e.stats
	e.statsMu.Unlock()
	e.mu.RLock()
	cs.Size, cs.Capacity = len(e.bases), e.cacheCap
	e.mu.RUnlock()
	return cs
}

// bump increments one counter of e.stats.
func (e *Engine) bump(counter *int64) {
	e.statsMu.Lock()
	*counter++
	e.statsMu.Unlock()
}

// InvalidateCache drops every cached compiled base. Call it after
// mutating the knowledge base in place; queries in flight keep their
// private clones and are unaffected. Hit/miss counters are lifetime
// counters and are not reset.
// InvalidateCache also re-fingerprints the knowledge base for the disk
// tier, so snapshots written before the mutation are rejected as stale
// (their KB hash no longer matches) rather than deleted — another process
// on the old KB can still use them.
func (e *Engine) InvalidateCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.bases = make(map[string]*compiled)
	e.baseOrder = nil
	// Bump the KB generation: a compile that started before the
	// invalidation must not insert its pre-mutation base into the emptied
	// cache (baseFor checks the generation at insert time).
	e.kbGen++
	if e.cacheDir != "" {
		e.kbHash = kbContentHash(e.kbCur)
	}
	// Memoized slices were computed from the previous KB content; the
	// generation in their memo key already fences them, but dropping them
	// keeps the memo from holding dead sub-KBs alive.
	e.invalidateSliceMemo()
}

// SetCacheCapacity bounds how many compiled bases the engine retains
// (FIFO eviction). n <= 0 disables caching entirely: every query
// compiles from scratch, restoring the pre-cache behavior. Safe to call
// concurrently with queries.
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

// evictOldestLocked removes the oldest cached base (FIFO). Caller holds
// the write lock. The order slice is slid down in place and its vacated
// tail slot cleared — the previous `baseOrder = baseOrder[1:]` reslice
// kept every evicted key alive in the backing array, pinning the strings
// (and, for code holding the slice, the illusion the entries were gone)
// until a much later append finally reallocated it.
func (e *Engine) evictOldestLocked() {
	if len(e.baseOrder) == 0 {
		return
	}
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

// baseFor resolves the compiled base for a scenario's shape: a cached
// (or freshly cached) frozen base when caching is enabled, a private
// compile when it is disabled. shared reports whether other queries may
// reference the base concurrently — callers must then solve against a
// clone of base.solver, never the base solver itself.
func (e *Engine) baseFor(sc *Scenario) (base *compiled, shared bool, err error) {
	shape := baseShape(sc)
	e.mu.RLock()
	enabled := e.cacheCap > 0
	gen := e.kbGen
	k := e.kbCur
	e.mu.RUnlock()

	// Relevance slicing (slice.go): resolve the scenario's cone-of-
	// influence slice up front so the cache key names the slice identity
	// — a sliced base can never alias a full one or another slice's.
	sl := e.sliceFor(k, gen, sc, &shape)
	var key string
	if enabled {
		key = shape.fingerprint() + sliceKeySuffix(sl)
		e.mu.RLock()
		base = e.bases[key]
		e.mu.RUnlock()
	}

	if !enabled {
		base, err = e.compileSliced(k, &shape, sl)
		if err != nil {
			return nil, false, err
		}
		return base, false, nil
	}
	if base != nil {
		e.bump(&e.stats.Hits)
		return base, true, nil
	}
	// Memory miss: try the disk tier before paying the compile. A revived
	// base bumps DiskHits only — Misses stays the compile count.
	var fresh *compiled
	fromDisk := false
	if fresh = e.loadDiskBase(&shape, key, sl); fresh != nil {
		e.bump(&e.stats.DiskHits)
		fromDisk = true
	} else {
		fresh, err = e.compileSliced(k, &shape, sl)
		if err != nil {
			return nil, false, err
		}
		e.bump(&e.stats.Misses)
	}
	e.mu.Lock()
	if e.kbGen != gen {
		// The KB moved (UpdateKB or InvalidateCache) while this base was
		// compiling or loading: it belongs to the previous generation.
		// Hand it to this query privately — it answers against the KB the
		// query started under — but never cache or persist it, which
		// would poison the fresh generation's cache.
		e.mu.Unlock()
		return fresh, false, nil
	}
	if existing := e.bases[key]; existing != nil {
		// Lost a compile race: adopt the stored base so every query over
		// this shape clones the same instance.
		base = existing
	} else {
		base = fresh
		e.bases[key] = base
		e.baseOrder = append(e.baseOrder, key)
		if len(e.baseOrder) > e.cacheCap {
			e.evictOldestLocked()
		}
	}
	e.mu.Unlock()
	if base == fresh && !fromDisk {
		// Persist freshly compiled bases so the next process skips the
		// compile too. Best-effort: a failed write only costs warmth.
		e.writeDiskBase(base, key)
	}
	return base, true, nil
}

// instance produces the per-query compiled instance: a cached (or fresh)
// base specialized with the query's own selectors. With caching enabled
// the query gets a private clone of the base solver; with it disabled the
// freshly compiled base is used directly. Both paths flow through
// compileBaseWith + specialize, so cached and cold queries are byte-identical.
// The engine keeps no clones: one that a query panics on, trips a budget
// in or abandons is left to the GC, so quarantine is structural — a
// dirtied solver has no path back to a later query.
func (e *Engine) instance(sc *Scenario) (*compiled, error) {
	base, shared, err := e.baseFor(sc)
	if err != nil {
		return nil, err
	}
	s := base.solver
	if shared {
		s = base.solver.Clone()
	}
	return e.specialize(base, sc, s), nil
}

// Prewarm compiles (or revives from the disk tier) the base for the
// scenario's shape, so the first real query over that shape pays only
// its clone, not the compile. It counts as one query in the cache
// counters (a miss on a cold engine, a hit on a warm one). Serving
// processes call this per expected scenario shape before reporting
// ready.
func (e *Engine) Prewarm(sc Scenario) error {
	_, _, err := e.baseFor(&sc)
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

// specialize layers one query's requirements onto a compiled base:
// context overrides and additions, Require groups, and pinned/forbidden
// systems all become assumption-guarded selector clauses on the given
// solver (a private clone, or the base solver itself on the cache-off
// path). The base is only read, never written — the returned compiled
// owns the solver and a fresh selector list, so concurrent queries over
// one base cannot interfere.
func (e *Engine) specialize(base *compiled, sc *Scenario, solver *sat.Solver) *compiled {
	solver.SetFaultHook(e.fault)
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
		sliceID:     base.sliceID,
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
	covered := make(map[string]bool)
	for _, s := range base.selectors {
		if atom, isCtx := strings.CutPrefix(s.name, "context:"); isCtx {
			if c.pinnedCtx[atom] != base.pinnedCtx[atom] {
				continue
			}
			covered[atom] = true
		}
		c.selectors = append(c.selectors, s)
	}
	names := make(map[string]bool, len(c.selectors))
	for _, s := range c.selectors {
		names[s.name] = true
	}
	// add registers one query-scope selector: a fresh solver variable sel
	// with the clause sel → implied (or the unit ¬sel when nothing can
	// satisfy the group). Duplicate names collapse, matching the base
	// compiler's addSelector behavior.
	add := func(name, note string, implied ...sat.Lit) {
		if names[name] {
			return
		}
		names[name] = true
		sel := sat.Lit(c.solver.NewVar())
		c.selectors = append(c.selectors, selector{name: name, note: note, lit: sel})
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
