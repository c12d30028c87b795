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
// With the arena clause database, Clone is a near-memcpy: the whole
// clause DB is one slab copy, and clause references (crefs) mean the same
// clause in source and copy, so the clause lists, watch lists, and reason
// array copy verbatim with no per-clause work. Clone is read-only on the
// source; any number of goroutines may clone one frozen solver
// concurrently (the compiled-base cache does exactly that).
//
// Clone may only be called at decision level 0 (i.e. not from inside a
// Solve callback); it panics otherwise. The copy deliberately resets
// per-run state rather than inheriting it:
//
//   - Stats are zeroed: a clone accounts for its own work only.
//   - Work budgets (SetBudget) and the last StopCause are cleared.
//   - A pending Interrupt is NOT inherited — the clone is runnable even
//     if the original was stopped; likewise any Watch watchdog keeps
//     targeting the original only.
//   - An attached DRAT proof is NOT cloned: proofs record one solver's
//     derivation history and would be unsound spliced onto another.
//     Call AttachProof on the clone before its first Solve if needed.
//   - The fault hook (Options.FaultHook) IS carried over, like every
//     other option; use SetFaultHook on the clone to change it.
func (s *Solver) Clone() *Solver {
	if s.decisionLevel() != 0 {
		panic("sat: Clone called above decision level 0")
	}
	n := &Solver{
		opts:         s.opts,
		nVars:        s.nVars,
		qhead:        s.qhead,
		varInc:       s.varInc,
		claInc:       s.claInc,
		okay:         s.okay,
		maxLearnts:   s.maxLearnts,
		learntGrowth: s.learntGrowth,
	}
	n.ca = s.ca.clone()
	n.clauses = append([]cref(nil), s.clauses...)
	n.learnts = append([]cref(nil), s.learnts...)
	n.reason = make([]cref, len(s.reason), s.nVars+32)
	copy(n.reason, s.reason)

	// Watch lists are copied verbatim rather than re-attached: their order
	// determines propagation order, and a clone must search identically.
	// One watcher slab backs every list; full-slice caps keep runtime
	// appends (watch moves) from bleeding across lists.
	nWatchers := 0
	for _, ws := range s.watches {
		nWatchers += len(ws)
	}
	watcherSlab := make([]watcher, 0, nWatchers)
	n.watches = make([][]watcher, len(s.watches), 2*(s.nVars+32))
	for i, ws := range s.watches {
		if len(ws) == 0 {
			continue
		}
		off := len(watcherSlab)
		watcherSlab = append(watcherSlab, ws...)
		n.watches[i] = watcherSlab[off:len(watcherSlab):len(watcherSlab)]
	}

	// Per-variable slices carry a little slack capacity: queries layer a
	// handful of selector variables onto each clone (NewVar), and exact-
	// capacity slices would make the first of those reallocate every
	// per-variable array at full size.
	const slack = 32
	nv := s.nVars + slack
	n.vals = make([]lbool, len(s.vals), 2*nv)
	copy(n.vals, s.vals)
	n.level = make([]int32, len(s.level), nv)
	copy(n.level, s.level)
	n.polarity = make([]bool, len(s.polarity), nv)
	copy(n.polarity, s.polarity)
	// The trail grows toward nVars during search; size it once.
	n.trail = make([]lit, len(s.trail), nv)
	copy(n.trail, s.trail)
	n.trailLim = append([]int(nil), s.trailLim...)
	n.activity = make([]float64, len(s.activity), nv)
	copy(n.activity, s.activity)
	n.order = s.order.clone(&n.activity)
	n.order.grow(nv)
	n.seen = make([]byte, len(s.seen), nv)
	return n
}
