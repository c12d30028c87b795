package sat

// Clone returns a deep copy of the solver that shares no mutable state
// with the original: the clause database (problem and learnt clauses),
// watch lists, trail, and heuristic state (VSIDS activities, order heap,
// saved phases, clause activities) are all copied verbatim, so a clone
// continues exactly where the original stands and two clones of the same
// solver run identical searches. Cloning is the mechanism behind compiled-
// base caching: compile once, then hand every query its own private
// snapshot.
//
// Clone is a near-memcpy: the clause arena and the watcher slab are
// each one flat, pointer-free copy, and clause references (crefs) mean
// the same clause in source and copy, so the clause lists, the watch
// table's spans and the reason array copy verbatim with no per-clause or
// per-list work. Binary clauses, most of a compiled base, are not copied
// at all: a frozen solver (see ResetRun) keeps its problem binaries in a
// read-only implication table that Clone shares by pointer, so a clone
// copies no memory proportional to them. The watch table Clone copies
// holds only the long-clause watchers, the learnt binaries and what was
// added after the freeze. The arena is copied, not shared: propagate
// swaps the watched literals inside arena clauses, so their words are
// search state; an original clause carries a one-word header. Each slice
// is copied once, at its final capacity, with headroom for what a query
// adds: the arena gets queryArenaWords for selector and learnt clauses,
// the clause lists a sixteenth of their length plus 1024 elements, and
// the watcher slab half its length plus 1024 watchers for watch lists
// moving to its tail (see watchTable.clone). The bytes a copy overwrites
// are not zero-filled first. Clone is read-only on the source; any
// number of goroutines may clone one frozen solver concurrently and
// search the clones over the one shared table (the compiled-base cache
// does exactly that).
//
// Clone may only be called at decision level 0 (i.e. not from inside a
// Solve callback); it panics otherwise. The copy deliberately resets
// per-run state rather than inheriting it:
//
//   - Stats are zeroed: a clone accounts for its own work only.
//   - Work budgets (SetBudget) and the last StopCause are cleared.
//   - A pending Interrupt is NOT inherited — the clone is runnable even
//     if the original was stopped, and an interrupt delivered to the
//     original later (say, by its governing context) does not reach it.
//   - An attached DRAT proof is NOT cloned: proofs record one solver's
//     derivation history and would be unsound spliced onto another.
//     Call AttachProof on the clone before its first Solve if needed.
//   - The fault hook (SetFaultHook) IS carried over, like the
//     Options; use SetFaultHook on the clone to change it.
func (s *Solver) Clone() *Solver {
	if s.decisionLevel() != 0 {
		panic("sat: Clone called above decision level 0")
	}
	n := &Solver{
		opts:         s.opts,
		fault:        s.fault,
		nVars:        s.nVars,
		nBinary:      s.nBinary,
		nLearntBin:   s.nLearntBin,
		qhead:        s.qhead,
		varInc:       s.varInc,
		claInc:       s.claInc,
		okay:         s.okay,
		maxLearnts:   s.maxLearnts,
		learntGrowth: s.learntGrowth,
		bins:         s.bins,
	}
	// Per-variable slices carry slack for a query's selector variables,
	// so its first NewVar does not copy them all again.
	const slack = 32
	n.ca = arena{data: grown(s.ca.data, queryArenaWords), wasted: s.ca.wasted}
	n.clauses = grown(s.clauses, headroom(len(s.clauses)))
	n.learnts = grown(s.learnts, headroom(len(s.learnts)))

	// Watch lists are copied verbatim rather than re-attached: their order
	// determines propagation order, and a clone must search identically.
	n.watches = s.watches.clone(2 * slack)

	n.vals = grown(s.vals, 2*slack)
	n.level = grown(s.level, slack)
	n.reason = grown(s.reason, slack)
	n.polarity = grown(s.polarity, slack)
	// The trail grows toward nVars during search; size it once.
	n.trail = grown(s.trail, s.nVars+slack-len(s.trail))
	n.activity = grown(s.activity, slack)
	n.order = s.order.clone(&n.activity, s.nVars+slack)
	n.seen = make([]byte, len(s.seen), s.nVars+slack)
	return n
}

// queryArenaWords is the arena headroom Clone gives: room for what one
// query adds to a cached base, sized by that and not by the base. A
// synthesis adds almost nothing, since its selector clauses are mostly
// binary; the learnt clauses of the §5.1 cost and lexicographic
// optimizations take up to ~5.6k words.
const queryArenaWords = 6 << 10

// headroom is the spare capacity Clone gives a slab of n elements: a
// sixteenth of it plus 1024, enough for what one query adds to a cached
// base without the slab being copied again.
func headroom(n int) int { return n/16 + 1024 }

// grown returns a copy of src with capacity for extra more elements. The
// make and copy are separate statements on purpose: the compiler fuses
// them into one allocation that zero-fills only the extra tail
// (runtime.makeslicecopy), so the bytes about to be overwritten are not
// cleared first.
func grown[T any](src []T, extra int) []T {
	out := make([]T, len(src)+extra)
	copy(out, src)
	return out[:len(src)]
}
