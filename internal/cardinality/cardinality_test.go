package cardinality

import (
	"fmt"
	"math/rand"
	"testing"

	"netarch/internal/sat"
)

// countModels counts satisfying assignments of the solver restricted to the
// first nVars variables by enumeration over those variables: for each
// assignment of the first nVars vars we ask the solver whether it extends
// to a full model (auxiliary encoding variables are existentially
// projected).
func countModels(t *testing.T, s *sat.Solver, nVars int) int {
	t.Helper()
	count := 0
	assumps := make([]sat.Lit, nVars)
	for mask := 0; mask < 1<<nVars; mask++ {
		for v := 1; v <= nVars; v++ {
			if mask&(1<<(v-1)) != 0 {
				assumps[v-1] = sat.Lit(v)
			} else {
				assumps[v-1] = sat.Lit(-v)
			}
		}
		if s.SolveAssuming(assumps) == sat.Sat {
			count++
		}
	}
	return count
}

// choose computes the binomial coefficient C(n,k).
func choose(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// modelsAtMostK is the number of 0/1 vectors of length n with ≤ k ones.
func modelsAtMostK(n, k int) int {
	total := 0
	for i := 0; i <= k && i <= n; i++ {
		total += choose(n, i)
	}
	return total
}

func freshLits(s *sat.Solver, n int) []sat.Lit {
	lits := make([]sat.Lit, n)
	for i := range lits {
		lits[i] = sat.Lit(s.NewVar())
	}
	return lits
}

func TestAtMostKSeq(t *testing.T) {
	for n := 1; n <= 7; n++ {
		for k := 0; k <= n; k++ {
			s := sat.NewSolver()
			lits := freshLits(s, n)
			AtMostKSeq(s, lits, k)
			want := modelsAtMostK(n, k)
			if got := countModels(t, s, n); got != want {
				t.Errorf("n=%d k=%d: got %d models, want %d", n, k, got, want)
			}
		}
	}
}

func TestAtMostKSeqNegativeBound(t *testing.T) {
	s := sat.NewSolver()
	lits := freshLits(s, 3)
	AtMostKSeq(s, lits, -1)
	if s.Solve() != sat.Unsat {
		t.Error("negative bound must be UNSAT")
	}
}

// TestAtLeastK checks the sequential counter's at-least dual: sum(lits) ≥ k
// is sum(¬lits) ≤ n-k, and k > n leaves a negative bound, so no model.
func TestAtLeastK(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for k := 0; k <= n+1; k++ {
			s := sat.NewSolver()
			lits := freshLits(s, n)
			neg := make([]sat.Lit, n)
			for i, l := range lits {
				neg[i] = l.Flip()
			}
			AtMostKSeq(s, neg, n-k)
			want := 0
			for i := k; i <= n; i++ {
				want += choose(n, i)
			}
			if got := countModels(t, s, n); got != want {
				t.Errorf("n=%d k=%d: got %d models, want %d", n, k, got, want)
			}
		}
	}
}

func TestAtMostKOverNegatedLiterals(t *testing.T) {
	// Encodings must work over arbitrary literals, not just positive ones.
	s := sat.NewSolver()
	vs := freshLits(s, 4)
	lits := []sat.Lit{vs[0].Flip(), vs[1], vs[2].Flip(), vs[3]}
	AtMostKSeq(s, lits, 1)
	// Count assignments with ≤1 of {!x1, x2, !x3, x4} true.
	want := 0
	for mask := 0; mask < 16; mask++ {
		cnt := 0
		if mask&1 == 0 {
			cnt++
		}
		if mask&2 != 0 {
			cnt++
		}
		if mask&4 == 0 {
			cnt++
		}
		if mask&8 != 0 {
			cnt++
		}
		if cnt <= 1 {
			want++
		}
	}
	if got := countModels(t, s, 4); got != want {
		t.Errorf("got %d models, want %d", got, want)
	}
}

func TestTotalizerConstrain(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for k := 0; k <= n; k++ {
			s := sat.NewSolver()
			lits := freshLits(s, n)
			tot := NewTotalizer(s, lits)
			if l := tot.AtMostLit(k); l != 0 {
				s.AddClause(l)
			}
			want := modelsAtMostK(n, k)
			if got := countModels(t, s, n); got != want {
				t.Errorf("AtMost n=%d k=%d: got %d, want %d", n, k, got, want)
			}
		}
	}
}

func TestTotalizerAtLeast(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for k := 0; k <= n; k++ {
			s := sat.NewSolver()
			lits := freshLits(s, n)
			tot := NewTotalizer(s, lits)
			if l := tot.AtLeastLit(k); l != 0 {
				s.AddClause(l)
			}
			want := 0
			for i := k; i <= n; i++ {
				want += choose(n, i)
			}
			if got := countModels(t, s, n); got != want {
				t.Errorf("AtLeast n=%d k=%d: got %d, want %d", n, k, got, want)
			}
		}
	}
}

func TestTotalizerAssumptionBounds(t *testing.T) {
	// The same totalizer must support successively tighter bounds via
	// assumptions without rebuilding — the optimizer's workhorse.
	s := sat.NewSolver()
	n := 6
	lits := freshLits(s, n)
	tot := NewTotalizer(s, lits)
	// Require at least 3 true via a unit clause.
	s.AddClause(tot.AtLeastLit(3))
	for k := n; k >= 0; k-- {
		var assumps []sat.Lit
		if l := tot.AtMostLit(k); l != 0 {
			assumps = append(assumps, l)
		}
		got := s.SolveAssuming(assumps)
		wantSat := k >= 3
		if (got == sat.Sat) != wantSat {
			t.Fatalf("bound k=%d: got %v, want sat=%v", k, got, wantSat)
		}
		if got == sat.Sat {
			if c := tot.CountTrue(s.Model()); c > k {
				t.Fatalf("bound k=%d violated: %d true", k, c)
			}
		}
	}
}

func TestTotalizerOutputsSemantics(t *testing.T) {
	// Property: in every model, output[j] is true iff ≥ j+1 inputs true.
	// (Totalizer clauses enforce both directions.)
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		s := sat.NewSolver()
		n := 2 + r.Intn(5)
		lits := freshLits(s, n)
		tot := NewTotalizer(s, lits)
		// Pin a random subset of inputs.
		wantCount := 0
		for _, l := range lits {
			if r.Intn(2) == 0 {
				s.AddClause(l)
				wantCount++
			} else {
				s.AddClause(l.Flip())
			}
		}
		if s.Solve() != sat.Sat {
			t.Fatal("pinned instance must be SAT")
		}
		model := s.Model()
		for j := 0; j < n; j++ {
			out := tot.AtLeastLit(j + 1)
			outVal := model[out.Var()-1] != out.Neg()
			if outVal != (wantCount >= j+1) {
				t.Fatalf("n=%d count=%d: output[%d]=%v", n, wantCount, j, outVal)
			}
		}
	}
}

func TestAtMostLitEdgeCases(t *testing.T) {
	s := sat.NewSolver()
	lits := freshLits(s, 3)
	tot := NewTotalizer(s, lits)
	if tot.AtMostLit(3) != 0 || tot.AtMostLit(10) != 0 {
		t.Error("bound ≥ n needs no assumption")
	}
	if tot.AtLeastLit(0) != 0 {
		t.Error("bound ≤ 0 needs no assumption")
	}
	if tot.N() != 3 {
		t.Errorf("N: got %d, want 3", tot.N())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative AtMostLit must panic")
		}
	}()
	tot.AtMostLit(-1)
}

func BenchmarkEncodings(b *testing.B) {
	for _, n := range []int{20, 60} {
		k := n / 3
		b.Run(fmt.Sprintf("seq/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sat.NewSolver()
				AtMostKSeq(s, freshLits(s, n), k)
			}
		})
		b.Run(fmt.Sprintf("totalizer/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sat.NewSolver()
				s.AddClause(NewTotalizer(s, freshLits(s, n)).AtMostLit(k))
			}
		})
	}
}

// TestTotalizerAllocs bounds the allocations of building a totalizer
// over n fresh inputs at 4n. The encoder emits its clauses straight into
// the solver, which copies them, so a clause costs no heap slice; one
// allocated per clause cost 123 and 1,380 allocations over 8 and 32
// inputs.
func TestTotalizerAllocs(t *testing.T) {
	for _, n := range []int{8, 32} {
		s := sat.NewSolver()
		allocs := testing.AllocsPerRun(20, func() {
			NewTotalizer(s, freshLits(s, n))
		})
		t.Logf("NewTotalizer over %d inputs: %.0f allocs/run", n, allocs)
		if allocs > float64(4*n) {
			t.Errorf("NewTotalizer over %d inputs: %.0f allocs/run; budget is %d", n, allocs, 4*n)
		}
	}
}
