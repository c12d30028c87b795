package core

import (
	"errors"
	"testing"

	"netarch/internal/maxsat"
	"netarch/internal/sat"
)

// FuzzMaxSATBounds throws random soft-clause weight vectors at the
// MaxSAT engine on the small fixed miniKB catalog and checks the two
// halves of the optimality contract on every input:
//
//   - achievable: the returned model really evaluates to the claimed
//     optimum (re-checked through Objective.Eval, not the search state);
//   - unbeatable: assuming the bound circuit at optimum−1 is Unsat —
//     the decrement is refuted by the solver itself, a certificate
//     independent of the descent that produced the value.
//
// Wired into `make fuzz-smoke` so every verify gate shakes it briefly.
func FuzzMaxSATBounds(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 1, 255, 1, 255, 1, 255, 1})
	f.Add([]byte{13})
	f.Add([]byte{7, 7, 7, 200, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		e, err := New(miniKB())
		if err != nil {
			t.Fatal(err)
		}
		sc := Scenario{}
		c, err := e.instance(e.revision(), "optimize", &sc)
		if err != nil {
			t.Fatal(err)
		}
		// One weight per system, driven by the fuzz input. Weights are
		// clamped to a small range so the bound circuits stay shallow;
		// zero weights are legal and must be ignored by the encoding.
		lits := make([]sat.Lit, len(c.sysNames))
		weights := make([]int64, len(c.sysNames))
		for i, name := range c.sysNames {
			lits[i] = c.sysLit[name]
			weights[i] = int64(data[i%len(data)]) % 29
		}
		obj, err := maxsat.NewWeighted(c.arith, lits, weights)
		if err != nil {
			t.Fatal(err)
		}
		hard := c.assumptions()
		res, err := maxsat.Minimize(c.solver, obj, maxsat.Options{Hard: hard})
		if errors.Is(err, maxsat.ErrInfeasible) {
			t.Fatal("empty scenario must be feasible regardless of weights")
		}
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || !res.Witnessed {
			t.Fatalf("unbudgeted minimize must certify: %+v", res)
		}
		if res.LowerBound != res.Value {
			t.Fatalf("certified bracket must be tight: [%d, %d]", res.LowerBound, res.Value)
		}
		// Achievable: the model evaluates to the claimed optimum.
		if got := obj.Eval(res.Model); got != res.Value {
			t.Fatalf("model evaluates to %d, claimed optimum %d (weights %v)",
				got, res.Value, weights)
		}
		// Unbeatable: one less is refutable.
		if res.Value > 0 {
			bound := obj.BoundLit(res.Value - 1)
			if bound == 0 {
				t.Fatalf("bound circuit vanished at %d", res.Value-1)
			}
			if st := c.solver.SolveAssuming(append(hard, bound)); st != sat.Unsat {
				t.Fatalf("optimum %d is beatable: bound %d solved %v (weights %v)",
					res.Value, res.Value-1, st, weights)
			}
		}
	})
}
