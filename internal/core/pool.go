package core

import (
	"sync"

	"netarch/internal/sat"
)

// The clone pool moves the per-query Clone off the request's critical
// path. Every query over a cached base solves on a private clone of the
// frozen base solver (cache.go); the clone is near-memcpy since the
// arena rewrite, but under a latency-sensitive server even that copy is
// better paid in the background. With a pool configured (SetClonePool),
// each cached base keeps up to N pristine pre-made clones: a query pops
// one and a background refiller tops the pool back up.
//
// Safety model: the pool only ever holds pristine clones of the frozen
// base — a clone that has been handed out is never re-admitted, so a
// query that panics, trips a budget, or is abandoned mid-solve simply
// strands its clone for the GC. Quarantine is therefore structural:
// there is no path by which a dirtied solver can serve a later query.

// clonePool holds pristine pre-made clones of one compiled base's
// solver. The zero value is ready to use (and empty).
type clonePool struct {
	mu      sync.Mutex
	free    []*sat.Solver
	filling bool
}

// take pops a pristine clone, or returns nil when the pool is empty.
func (p *clonePool) take() *sat.Solver {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	s := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return s
}

// refill tops the pool up to target clones of src. At most one refiller
// runs per pool at a time; extra callers return immediately, so a burst
// of queries costs one background cloning loop, not one goroutine each.
// Cloning happens outside the lock — concurrent Clone of a frozen base
// is the same pattern queries themselves use.
func (p *clonePool) refill(src *sat.Solver, target int) {
	p.mu.Lock()
	if p.filling {
		p.mu.Unlock()
		return
	}
	p.filling = true
	p.mu.Unlock()
	for {
		p.mu.Lock()
		if len(p.free) >= target {
			p.filling = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		c := src.Clone()
		p.mu.Lock()
		p.free = append(p.free, c)
		p.mu.Unlock()
	}
}

// size reports the current number of pooled clones.
func (p *clonePool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// SetClonePool configures per-base pre-cloning: each cached base keeps
// up to n pristine solver clones so queries pop one instead of cloning
// inline (see takeClone). n <= 0 disables pooling (the default), which
// restores the clone-per-query behavior exactly. Pool effectiveness is
// visible in CacheStats.PoolHits / PoolMisses. Safe to call
// concurrently with queries.
func (e *Engine) SetClonePool(n int) {
	if n < 0 {
		n = 0
	}
	e.poolSize.Store(int32(n))
}

// takeClone produces the private solver for one query over a shared
// base: a pooled pristine clone when available, an inline clone
// otherwise. Either way a background refill is kicked so the next query
// finds the pool warm.
func (e *Engine) takeClone(base *compiled) *sat.Solver {
	n := int(e.poolSize.Load())
	if n <= 0 {
		return base.solver.Clone()
	}
	if s := base.pool.take(); s != nil {
		e.poolHits.Add(1)
		go base.pool.refill(base.solver, n)
		return s
	}
	e.poolMisses.Add(1)
	go base.pool.refill(base.solver, n)
	return base.solver.Clone()
}

// Prewarm compiles (or revives from the disk tier) the base for the
// scenario's shape and, when a clone pool is configured, fills it
// synchronously — so the first real query over that shape pays neither
// the compile nor the clone. It counts as one query in the cache
// counters (a miss on a cold engine, a hit on a warm one). Serving
// processes call this per expected scenario shape before reporting
// ready.
func (e *Engine) Prewarm(sc Scenario) error {
	base, shared, err := e.baseFor(&sc)
	if err != nil {
		return err
	}
	if n := int(e.poolSize.Load()); shared && n > 0 {
		base.pool.refill(base.solver, n)
	}
	return nil
}
