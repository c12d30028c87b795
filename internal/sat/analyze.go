package sat

import "sort"

// analyze derives a first-UIP learnt clause from a conflict, minimizes it,
// and returns the clause (asserting literal first), the backjump level, and
// the clause's LBD (number of distinct decision levels).
//
// A binary conflict or reason is visited in the order an arena clause
// would give its literals: [other, ¬p] for a conflict (binConfl) and
// [implied, other] for a reason, so the learnt clause and the activity
// bumps do not depend on where a binary clause is stored.
func (s *Solver) analyze(confl cref) (learnt []lit, backLevel, lbd int) {
	// learnt grows in the recycled learntBuf; callers (recordLearnt,
	// logLearnt) copy before storing, so the buffer is free again by the
	// next conflict.
	learnt = append(s.learntBuf[:0], 0) // placeholder for the asserting literal
	counter := 0
	var p lit
	havePath := false
	idx := len(s.trail) - 1
	var pair [2]lit
	for {
		// Bump and scan the conflict/reason clause.
		var cl []lit
		switch {
		case !confl.binary():
			if s.ca.learnt(confl) {
				s.bumpClause(confl)
			}
			cl = s.ca.lits(confl)
		case havePath:
			pair = [2]lit{p, confl.other()}
			cl = pair[:]
		default:
			cl = s.binConfl[:]
		}
		start := 0
		if havePath {
			start = 1 // lits[0] is the literal we just resolved on
		}
		for _, q := range cl[start:] {
			v := q.v()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			s.bumpVar(int(v))
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select the next literal on the current level to resolve.
		for s.seen[s.trail[idx].v()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.v()] = 0
		counter--
		if counter == 0 {
			break // p is the first UIP
		}
		confl = s.reason[p.v()]
		havePath = true
		// Invariant: a reason clause has its implied literal first. While
		// a clause is locked as a reason its first literal stays true, so
		// propagation never reorders it.
		if !confl.binary() && s.ca.lits(confl)[0] != p {
			panic("sat: reason clause invariant violated")
		}
	}
	learnt[0] = p.flip()

	// Recursive clause minimization: drop literals implied by the rest.
	s.minimize(&learnt)

	// Compute backjump level: highest level among learnt[1:].
	if len(learnt) == 1 {
		backLevel = 0
	} else {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].v()] > s.level[learnt[maxI].v()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		backLevel = int(s.level[learnt[1].v()])
	}

	// LBD: distinct decision levels among the learnt literals, counted
	// with a generation-stamped per-level scratch slice (no map).
	s.lbdGen++
	lbd = 0
	for _, q := range learnt {
		lv := int(s.level[q.v()])
		if lv >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, make([]uint64, lv+1-len(s.lbdStamp))...)
		}
		if s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			lbd++
		}
	}

	// Clear seen flags for the literals we kept.
	for _, q := range learnt {
		s.seen[q.v()] = 0
	}
	s.learntBuf = learnt // retain the (possibly grown) backing array
	return learnt, backLevel, lbd
}

// minimize removes learnt[1:] literals whose negation is implied by the
// remaining literals, via the standard recursive reason-walk test.
// The seen[] flags of kept literals remain set for the caller.
func (s *Solver) minimize(learnt *[]lit) {
	ls := *learnt
	// Mark all literals (learnt[0]'s var flag was cleared in analyze; set
	// it so redundant() can rely on membership marks).
	for _, q := range ls {
		s.seen[q.v()] = 1
	}
	out := ls[:1]
	for _, q := range ls[1:] {
		if s.reason[q.v()] == crefUndef || !s.redundant(q, 0) {
			out = append(out, q)
		} else {
			s.seen[q.v()] = 0 // dropped
		}
	}
	*learnt = out
}

// redundant reports whether literal q is implied by literals already marked
// seen, by walking reasons depth-first. depth guards pathological recursion.
func (s *Solver) redundant(q lit, depth int) bool {
	if depth > 30 {
		return false
	}
	r := s.reason[q.v()]
	if r == crefUndef {
		return false
	}
	if r.binary() {
		// [q, other]: other is the one literal to check.
		return s.impliedBySeen(r.other(), depth)
	}
	for _, p := range s.ca.lits(r) {
		if p.v() != q.v() && !s.impliedBySeen(p, depth) {
			return false
		}
	}
	return true
}

// impliedBySeen reports whether p, a literal of a reason redundant is
// walking at depth, is fixed at level 0, already marked, or redundant
// itself.
func (s *Solver) impliedBySeen(p lit, depth int) bool {
	if s.level[p.v()] == 0 || s.seen[p.v()] != 0 {
		return true
	}
	if s.reason[p.v()] == crefUndef || !s.redundant(p, depth+1) {
		return false
	}
	// p proved redundant: mark so repeated walks shortcut. We must
	// remember to clear it, but since it is genuinely implied by seen
	// literals, leaving the mark only over-approximates the clause's
	// implied set during this single analyze call, and clearTransient
	// clears all such marks once the conflict is handled.
	s.transient = append(s.transient, p.v())
	s.seen[p.v()] = 1
	return true
}

// analyzeFinal computes the final conflict clause (assumption core) when
// assumption p is falsified under the current trail.
func (s *Solver) analyzeFinal(p lit) {
	s.conflict = s.conflict[:0]
	s.conflict = append(s.conflict, toExternal(p.flip()))
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.v()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].v()
		if s.seen[v] == 0 {
			continue
		}
		switch r := s.reason[v]; {
		case r == crefUndef:
			// A decision above level 0 while assumptions are pending is
			// itself an assumption; report it as assumed.
			s.conflict = append(s.conflict, toExternal(s.trail[i]))
		case r.binary():
			if q := r.other(); s.level[q.v()] > 0 {
				s.seen[q.v()] = 1
			}
		default:
			for _, q := range s.ca.lits(r) {
				if q.v() != v && s.level[q.v()] > 0 {
					s.seen[q.v()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.v()] = 0
	// Deduplicate (p itself may also appear via the trail walk).
	sort.Slice(s.conflict, func(i, j int) bool { return s.conflict[i] < s.conflict[j] })
	out := s.conflict[:0]
	var prev Lit
	for i, l := range s.conflict {
		if i > 0 && l == prev {
			continue
		}
		out = append(out, l)
		prev = l
	}
	s.conflict = out
}

// bumpVar increases a variable's VSIDS activity.
func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if !s.opts.StaticOrder {
		s.order.update(v)
	}
}

// bumpClause increases a learnt clause's activity.
func (s *Solver) bumpClause(c cref) {
	act := s.ca.activity(c) + s.claInc
	s.ca.setActivity(c, act)
	if act > 1e20 {
		for _, lc := range s.learnts {
			s.ca.setActivity(lc, s.ca.activity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// decayActivities applies the per-conflict activity decay.
func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
	s.clearTransient()
}

// clearTransient resets seen marks set by redundant().
func (s *Solver) clearTransient() {
	for _, v := range s.transient {
		s.seen[v] = 0
	}
	s.transient = s.transient[:0]
}

// reduceDB deletes roughly half the learnt clauses, keeping glue clauses
// (LBD ≤ 2), reasons of current assignments, and the most active rest.
// Learnt binaries are always kept and are not in s.learnts; they count
// as glue clauses sorted ahead of the rest, so the cut falls nLearntBin
// places earlier in the list that holds only arena clauses.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		a, b := s.learnts[i], s.learnts[j]
		aGlue, bGlue := s.ca.lbd(a) <= 2, s.ca.lbd(b) <= 2
		if aGlue != bGlue {
			return aGlue // glue clauses first (kept)
		}
		return s.ca.activity(a) > s.ca.activity(b)
	})
	keep := s.learnts[:0]
	locked := func(c cref) bool {
		v := s.ca.lits(c)[0].v()
		return s.assigned(v) && s.reason[v] == c
	}
	limit := s.NumLearnts()/2 - s.nLearntBin
	for i, c := range s.learnts {
		if i < limit || s.ca.lbd(c) <= 2 || locked(c) {
			keep = append(keep, c)
		} else {
			s.detachAll(c)
			s.logDelete(s.ca.lits(c))
			s.stats.Deleted++
		}
	}
	s.learnts = keep
	s.maybeCompact()
}
