package sat

// propagate performs unit propagation over all enqueued literals using
// two-watched literals. It returns the conflicting clause — an arena
// cref, or crefBinary with the clause's literals in binConfl — or
// crefUndef if the queue drained without conflict. A literal's shared
// implications (see implTable) are visited before its watch list.
func (s *Solver) propagate() cref {
	bins := s.bins
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true; visit watchers of p (stored under p)
		s.qhead++
		s.stats.Propagations++

		// p's shared binaries (¬p ∨ q) behave exactly like binary
		// watchers: q true is skipped, q false is the conflict [q, ¬p],
		// and an unassigned q is implied with reason ¬p.
		for _, q := range bins.of(p) {
			switch s.value(q) {
			case lTrue:
				continue
			case lFalse:
				s.binConfl = [2]lit{q, p.flip()}
				s.qhead = len(s.trail)
				return crefBinary
			}
			s.uncheckedEnqueue(q, reasonBinary(p.flip()))
		}

		// The watch list is compacted in place with a lagging write index;
		// while no watcher has been dropped or rewritten (n == i, the
		// common case: blockers true), entries are not rewritten at all.
		sp := s.watches.spans[p]
		ws := s.watches.slab[sp.off : sp.off+sp.n]
		n := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Fast path: blocker already true. A deleted clause's watcher
			// is kept here and dropped on a later slow-path visit (or by
			// compaction): the blocker test needs no clause read.
			bv := s.value(w.blocker)
			if bv == lTrue {
				if n != i {
					ws[n] = w
				}
				n++
				continue
			}
			c := w.c
			if c.binary() {
				// A binary clause (¬p ∨ blocker) is decided by its
				// blocker alone, with no arena read. It keeps its
				// watcher, and its literals are [blocker, ¬p], the order
				// an arena clause has after the swap below.
				if n != i {
					ws[n] = w
				}
				n++
				if bv == lFalse {
					s.binConfl = [2]lit{w.blocker, p.flip()}
					n += copy(ws[n:], ws[i+1:])
					s.watches.spans[p].n = uint32(n)
					s.qhead = len(s.trail)
					return crefBinary
				}
				s.uncheckedEnqueue(w.blocker, reasonBinary(p.flip()))
				continue
			}
			if s.ca.deleted(c) {
				continue // lazily drop deleted clauses
			}
			cl := s.ca.lits(c)
			// Ensure the false literal (¬p) is at position 1.
			falseLit := p.flip()
			if cl[0] == falseLit {
				cl[0], cl[1] = cl[1], cl[0]
			}
			first := cl[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[n] = watcher{c, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(cl); k++ {
				if s.value(cl[k]) != lFalse {
					cl[1], cl[k] = cl[k], cl[1]
					s.watches.push(cl[1].flip(), watcher{c, first})
					// The push may have moved the slab, or p's list
					// within it, keeping all of the list's sp.n
					// watchers; re-slice it.
					sp = s.watches.spans[p]
					ws = s.watches.slab[sp.off : sp.off+sp.n]
					found = true
					break
				}
			}
			if found {
				continue // watcher moved elsewhere
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{c, first}
			n++
			if s.value(first) == lFalse {
				// Conflict: keep remaining watchers, restore list.
				n += copy(ws[n:], ws[i+1:])
				s.watches.spans[p].n = uint32(n)
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		if n != len(ws) {
			s.watches.spans[p].n = uint32(n)
		}
	}
	return crefUndef
}
