package sat

import "testing"

// TestPropagateAllocFree pins the hot-loop allocation budget at zero:
// once the trail, watch lists, and heap have reached steady-state
// capacity, a decision followed by unit propagation across a long
// implication chain and a backtrack must not touch the allocator at
// all. The clause arena is what makes this possible — watchers are
// pointer-free {cref, blocker} pairs and clause literals live in the
// flat slab — so any future allocation on this path is a regression
// against the DESIGN.md §11 layout. The same holds once the solver is
// frozen and propagation walks the shared implication table.
func TestPropagateAllocFree(t *testing.T) {
	s := NewSolver()
	const n = 256
	s.EnsureVars(n)
	// v_i -> v_{i+1}: one decision at the chain head propagates n-1 units.
	for i := 1; i < n; i++ {
		if !s.AddClause(Lit(-i), Lit(i+1)) {
			t.Fatal("chain clause rejected")
		}
	}
	run := func() {
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(lit(0), crefUndef) // decide v1 = true
		if confl := s.propagate(); confl != crefUndef {
			t.Fatal("unexpected conflict in implication chain")
		}
		if len(s.trail) != n {
			t.Fatalf("chain propagated %d of %d vars", len(s.trail), n)
		}
		s.cancelUntil(0)
	}
	run() // warm-up: grow trail/trailLim to steady-state capacity
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("decide+propagate+backtrack allocated %.1f allocs/run; budget is 0", allocs)
	}
	// Frozen, the chain lives in the shared implication table.
	s.ResetRun()
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("frozen decide+propagate+backtrack allocated %.1f allocs/run; budget is 0", allocs)
	}
}
