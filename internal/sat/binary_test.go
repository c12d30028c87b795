package sat

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// binaryHeavyInstance builds a random 3-SAT core over core variables in
// which every variable has copies chained to it by equivalences, so most
// clauses are binary, as in a compiled base: a core literal in a 3-clause
// is replaced by one of its copies at random. It also returns a literal
// picker over the core variables and their copies, for assumptions.
func binaryHeavyInstance(r *rand.Rand, core, copies int, ratio float64) (nVars int, clauses [][]Lit, pick func() Lit) {
	copyOf := func(v, c int) Lit { return Lit(core + (v-1)*copies + c) }
	for v := 1; v <= core; v++ {
		prev := Lit(v)
		for c := 1; c <= copies; c++ {
			a := copyOf(v, c)
			clauses = append(clauses, []Lit{-a, prev}, []Lit{a, -prev})
			prev = a
		}
	}
	pick = func() Lit {
		v, c := r.Intn(core)+1, r.Intn(copies+1)
		l := Lit(v)
		if c > 0 {
			l = copyOf(v, c)
		}
		if r.Intn(2) == 0 {
			l = -l
		}
		return l
	}
	for i := 0; i < int(float64(core)*ratio); i++ {
		clauses = append(clauses, []Lit{pick(), pick(), pick()})
	}
	r.Shuffle(len(clauses), func(i, j int) { clauses[i], clauses[j] = clauses[j], clauses[i] })
	return core * (1 + copies), clauses, pick
}

// TestBinaryHeavyDifferential checks the solver on instances where at
// least 70% of the clauses are binary, so most clauses live only in the
// watch lists or, once frozen, in the shared implication table. A fresh
// solver's Unsat runs must leave DRAT proofs that CheckRUP accepts, and
// a WriteDIMACS/ParseDIMACS round trip must keep its clause count and
// verdict. The frozen arm runs a budgeted probe solve, then ResetRun,
// which must only move the problem binaries into the table, keeping the
// rest of the search state and every other watcher in order (see
// freezeKeepsSearchState); the Clone must share the table by pointer.
// Over a sequence of assumption queries that learns
// binary clauses and adds a problem binary after the freeze, the frozen
// solver and its Clone must run the same searches
// — equal statuses, Stats, models and final conflicts — and a
// WriteDIMACS/ParseDIMACS round trip of the frozen solver must agree
// with them on the clause count and every verdict. A second ResetRun
// halfway through folds the added binary into a new table after the old
// table's implications, under the same check. Assumption
// cores must be Unsat subsets of the assumptions.
func TestBinaryHeavyDifferential(t *testing.T) {
	learntBinaries, unsatProofs, cores := 0, 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		core := 30 + r.Intn(50)
		nVars, clauses, pick := binaryHeavyInstance(r, core, 6+int(seed%3), 3.8+0.8*r.Float64())
		load := func() *Solver {
			s := NewSolver()
			s.EnsureVars(nVars)
			loadClauses(s, clauses)
			return s
		}

		src := load()
		if src.nBinary*10 < 7*src.NumClauses() {
			t.Fatalf("seed %d: %d of %d clauses binary, want at least 70%%", seed, src.nBinary, src.NumClauses())
		}

		// A DIMACS round trip keeps the clause count and the verdict.
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, src); err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseDIMACS(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if parsed.NumClauses() != src.NumClauses() {
			t.Fatalf("seed %d: DIMACS round trip has %d clauses, want %d", seed, parsed.NumClauses(), src.NumClauses())
		}
		verdict := load().Solve()
		if st := parsed.Solve(); st != verdict {
			t.Fatalf("seed %d: DIMACS round trip answers %v, want %v", seed, st, verdict)
		}

		// An Unsat run's proof checks.
		if proof, st, _ := solveWithProof(clauses, nVars); st == Unsat {
			if err := CheckRUP(clauses, proof); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			unsatProofs++
		}

		// The frozen arm. A short first search leaves learnt clauses,
		// binary ones among them, on the source before it is frozen and
		// cloned.
		src.SetBudget(30, 0)
		src.Solve()
		src.SetBudget(0, 0)
		var probed bytes.Buffer
		if err := WriteDIMACS(&probed, src); err != nil {
			t.Fatal(err)
		}
		freezeKeepsSearchState(t, src, fmt.Sprintf("seed %d", seed))
		if src.bins == nil {
			t.Fatalf("seed %d: ResetRun left no implication table", seed)
		}
		clone := src.Clone(LearntRoom, nil)
		if clone.bins != src.bins {
			t.Fatalf("seed %d: the clone copied the implication table instead of sharing it", seed)
		}
		var frozenCNF bytes.Buffer
		if err := WriteDIMACS(&frozenCNF, src); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frozenCNF.Bytes(), probed.Bytes()) {
			t.Fatalf("seed %d: ResetRun changed the DIMACS output", seed)
		}
		// Every problem clause is written, the shared binaries included,
		// after one unit clause per root-level fact.
		if n, want := bytes.Count(frozenCNF.Bytes(), []byte(" 0\n")), src.NumClauses()+len(src.trail); n != want {
			t.Fatalf("seed %d: the frozen solver's DIMACS has %d clauses, want %d", seed, n, want)
		}
		roundTrip, err := ParseDIMACS(&frozenCNF)
		if err != nil {
			t.Fatal(err)
		}
		runs := []*Solver{src, clone}
		var added []Lit
		for q := 0; q < 8; q++ {
			switch q {
			case 3:
				// A query adds a problem binary after the freeze; it
				// stays in the watch lists.
				added = []Lit{pick(), pick()}
				for _, s := range append(runs, roundTrip) {
					s.AddClause(added...)
				}
			case 5:
				// The re-freeze keeps the old table's order and appends
				// the added binary after it.
				freezeKeepsSearchState(t, src, fmt.Sprintf("seed %d query %d", seed, q))
				for _, s := range runs[1:] {
					s.ResetRun()
				}
			}
			if q == 0 || q == 5 {
				if n := len(src.bins.imp); n != 2*src.nBinary {
					t.Fatalf("seed %d query %d: the frozen table holds %d implications for %d problem binaries", seed, q, n, src.nBinary)
				}
			}
			assumps := make([]Lit, 1+r.Intn(4))
			for i := range assumps {
				assumps[i] = pick()
			}
			var want Status
			for i, s := range runs {
				st := s.SolveAssuming(assumps)
				if i == 0 {
					want = st
					continue
				}
				if st != want || s.Stats() != src.Stats() ||
					!reflect.DeepEqual(s.Model(), src.Model()) ||
					!reflect.DeepEqual(s.FinalConflict(), src.FinalConflict()) {
					t.Fatalf("seed %d query %d: solver %d answered %v %+v, the source %v %+v",
						seed, q, i, st, s.Stats(), want, src.Stats())
				}
				if s.NumClauses() != src.NumClauses() {
					t.Fatalf("seed %d query %d: solver %d has %d clauses, the source %d",
						seed, q, i, s.NumClauses(), src.NumClauses())
				}
			}
			if st := roundTrip.SolveAssuming(assumps); st != want {
				t.Fatalf("seed %d query %d: the DIMACS round trip answered %v, the source %v", seed, q, st, want)
			}
			if want != Unsat {
				continue
			}
			// The core is a subset of the assumptions and Unsat alone.
			fc := src.FinalConflict()
			for _, l := range fc {
				if !slices.Contains(assumps, l) {
					t.Fatalf("seed %d query %d: core literal %d is not an assumption %v", seed, q, l, assumps)
				}
			}
			alone := load()
			if added != nil {
				alone.AddClause(added...)
			}
			if st := alone.SolveAssuming(fc); st != Unsat {
				t.Fatalf("seed %d query %d: core %v alone answers %v", seed, q, fc, st)
			}
			cores++
		}
		learntBinaries += src.nLearntBin
	}
	if learntBinaries == 0 || unsatProofs == 0 || cores == 0 {
		t.Fatalf("%d learnt binaries, %d checked proofs and %d checked cores; want some of each", learntBinaries, unsatProofs, cores)
	}
}
