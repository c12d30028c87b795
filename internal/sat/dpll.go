package sat

// solveDPLL decides the instance without clause learning: plain DPLL with
// unit propagation, chronological backtracking, and (optionally) the same
// branching heuristics. Used by the "no learning" ablation benchmark.
func (s *Solver) solveDPLL() Status {
	// flippedAt[d] reports whether the decision opening level d+1 has
	// already been tried in both phases.
	s.flipped = s.flipped[:0]
	for {
		if s.interrupted() || s.decisionsExhausted() {
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.stats.Conflicts++
			if s.fireFault(EventConflict) {
				s.Interrupt()
			}
			// Backtrack chronologically to the deepest unflipped decision.
			level := s.decisionLevel()
			for level > 0 && s.flipped[level-1] {
				level--
			}
			if level == 0 {
				s.okay = false
				return Unsat
			}
			// The decision literal opening `level`.
			dec := s.trail[s.trailLim[level-1]]
			s.cancelUntil(level - 1)
			s.flipped = s.flipped[:level-1]
			// Re-open the level with the flipped phase.
			s.trailLim = append(s.trailLim, len(s.trail))
			s.flipped = append(s.flipped, true)
			s.uncheckedEnqueue(dec.flip(), crefUndef)
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			s.extractModel()
			return Sat
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.flipped = append(s.flipped, false)
		s.uncheckedEnqueue(s.decisionLit(v), crefUndef)
		if s.conflictsExhausted() {
			return Unknown
		}
	}
}
