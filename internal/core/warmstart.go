package core

import (
	"sync/atomic"

	"netarch/internal/sat"
)

// This file holds the warm-start profile plumbing that lets one solve
// seed the next over the same scenario family (see warmstart.go in
// internal/sat).

// warmSlot holds a compiled base's warm-start profile. It is a separate
// heap object (not an inline field on compiled) so specialized query
// instances can alias the base's slot, and so compiled values stay
// copyable — atomic.Pointer must not be copied after first use.
type warmSlot struct {
	p atomic.Pointer[sat.WarmProfile]
}

// SetWarmStart toggles warm-start reuse: after each decision query the
// engine snapshots the query solver's phases and quantized VSIDS
// activities against the compiled base, and later queries over the same
// scenario family apply that profile before solving. Profiles persist in
// the snapshot envelope (SetCacheDir), so warmth survives restarts.
//
// Off by default: a profile makes the search depend on query history, so
// repeating one query need not replay an identical search (results are
// still correct, but byte-level reproducibility across a sequence of
// queries is lost).
func (e *Engine) SetWarmStart(on bool) { e.warmStart.Store(on) }

// warmProfile returns the instance's stored warm-start profile, nil when
// none has been recorded yet.
func (c *compiled) warmProfile() *sat.WarmProfile {
	if c.warm == nil {
		return nil
	}
	return c.warm.p.Load()
}

// storeWarmProfile snapshots the query solver's current phases and
// activities into the base's warm slot, truncated to the base vocabulary
// when the instance is a specialized clone (selector variables are
// query-scoped and meaningless to the next query).
func (c *compiled) storeWarmProfile() {
	if c.warm == nil {
		return
	}
	p := c.solver.ExtractProfile()
	if c.base != nil {
		p.Truncate(c.base.solver.NumVars())
	}
	c.warm.p.Store(p)
}
