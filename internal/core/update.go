package core

import (
	"errors"
	"fmt"

	"netarch/internal/kb"
)

// Live knowledge-base updates. Production catalogs churn — one new SKU,
// one edited rule — and before UpdateKB any mutation meant dropping every
// compiled base and paying cold-start compiles on the next queries.
// UpdateKB instead revalidates the cache in place: each cached base is
// recompiled against the incoming KB exactly as a cold query would
// compile it (compile-time probe included). In-flight queries are never
// disturbed: they solve on private clones of the old bases, which stay
// frozen and valid until the last query referencing them finishes.

// KBUpdate reports what one UpdateKB call did.
type KBUpdate struct {
	// Diff is the section-level difference between the outgoing and
	// incoming KBs (see kb.Diff).
	Diff []kb.DiffEntry
	// BasesUpdated counts the bases recompiled against the new KB and
	// installed in the cache. Cached bases whose keys coincide under the
	// new KB (sliced bases whose slices became equal) are installed once.
	// BasesDropped counts bases whose shape no longer compiles under it
	// (e.g. their workload was removed) and were evicted instead.
	BasesUpdated int
	BasesDropped int
}

// String renders the update summary.
func (u *KBUpdate) String() string {
	return fmt.Sprintf("%d KB changes; %d bases updated (%d dropped)",
		len(u.Diff), u.BasesUpdated, u.BasesDropped)
}

// UpdateKB swaps the engine's knowledge base for newKB, recompiling every
// cached base in place of dropping it. Safe to call concurrently with
// queries: in-flight queries finish on clones of the outgoing bases,
// queries admitted after the swap see only the new ones, and a compile
// racing the update is detected by the KB generation counter and never
// cached (see baseFor). Concurrent UpdateKB calls serialize on the
// engine's update lock, so callers need no lock of their own. UpdateKB
// is the only way the engine's KB changes.
//
// The incoming KB is validated first; on error the engine is unchanged.
// newKB must not be mutated after the call (the engine holds it by
// reference — to edit further, Save/Load a copy or build a new KB).
//
// Every updated base is compiled the way a cold query over newKB compiles
// it, so it is byte-identical to that compile and answers never depend on
// the update history.
func (e *Engine) UpdateKB(newKB *kb.KB) (*KBUpdate, error) {
	if newKB == nil {
		return nil, errors.New("core: UpdateKB: nil knowledge base")
	}
	if err := newKB.Validate(); err != nil {
		return nil, err
	}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()

	// Snapshot the KB and the cached bases in insertion order. Only
	// UpdateKB writes kbCur, so old stays current until the swap below.
	e.mu.Lock()
	old := e.kbCur
	outgoing := make([]*compiled, len(e.baseOrder))
	for i, key := range e.baseOrder {
		outgoing[i] = e.bases[key]
	}
	e.mu.Unlock()

	up := &KBUpdate{Diff: kb.Diff(old, newKB)}
	if len(up.Diff) == 0 {
		// Content-identical KB: adopt the new pointer (callers may hold
		// it) but keep every base and the generation — bases
		// compiled against the old pointer answer identically.
		e.mu.Lock()
		e.kbCur = newKB
		e.mu.Unlock()
		return up, nil
	}

	// Recompile each base outside the lock: outgoing bases are frozen and
	// read-only, so queries keep cloning them while we build their
	// successors.
	type rebuilt struct {
		key  string
		base *compiled
	}
	fresh := make([]rebuilt, 0, len(outgoing))
	seen := make(map[string]bool, len(outgoing))
	for _, ob := range outgoing {
		// Sliced bases recompute their cone under the incoming KB:
		// computeSlice expands the stored request's workloads against
		// newKB, so a SKU, rule or workload edit that changes slice
		// membership changes the sub-KB (and the cache key — slice
		// identity is part of it) exactly as it does for a fresh query
		// over newKB.
		var sl *kbSlice
		newKey := ob.sc.fingerprint()
		if ob.sliceReq != nil {
			sl = computeSlice(newKB, ob.sliceReq)
			newKey += sliceKeySuffix(sl)
		}
		if seen[newKey] {
			// An earlier base already rebuilt to this key: its slice
			// and this one coincide under newKB.
			continue
		}
		seen[newKey] = true
		nb, err := compile(newKB, ob.sc, sl)
		if err != nil {
			// The shape no longer compiles under the new KB (its
			// workload or pinned hardware was removed): evict it rather
			// than failing the whole update.
			up.BasesDropped++
			continue
		}
		fresh = append(fresh, rebuilt{newKey, nb})
		up.BasesUpdated++
	}

	// The swap: new KB, new generation, rebuilt cache, empty slice
	// memo. Queries admitted from here on see only new-KB state.
	e.mu.Lock()
	defer e.mu.Unlock()
	e.kbCur = newKB
	e.kbGen++
	e.bases = make(map[string]*compiled, len(fresh))
	e.baseOrder = e.baseOrder[:0]
	for _, rb := range fresh {
		e.bases[rb.key] = rb.base
		e.baseOrder = append(e.baseOrder, rb.key)
	}
	e.sliceMemo = nil
	return up, nil
}
