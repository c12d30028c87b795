package sat

// Test-only accessors to solver state that no production caller needs.

// Okay reports whether the instance is still possibly satisfiable at the
// top level (false once an empty clause was derived).
func (s *Solver) Okay() bool { return s.okay }

// clearInterrupt re-arms a solver that was stopped with Interrupt.
func (s *Solver) clearInterrupt() { s.stop.Store(false) }

// Value returns the model value of variable v after a Sat result.
// It panics if the last Solve did not return Sat.
func (s *Solver) Value(v int) bool {
	if s.model == nil {
		panic("sat: Value called without a model")
	}
	if v < 1 || v > len(s.model) {
		panic("sat: Value out of range")
	}
	return s.model[v-1]
}
