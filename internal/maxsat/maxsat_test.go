package maxsat

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"netarch/internal/intlin"
	"netarch/internal/sat"
)

// fixture is a small formula over n decision variables plus a
// brute-force evaluator: every test in this file checks the engine
// against exhaustive enumeration of the decision-variable assignments
// (auxiliary encoding variables are existentially projected by the
// solver itself).
type fixture struct {
	s       *sat.Solver
	n       int
	decided []sat.Lit // one positive literal per decision variable
}

func newFixture(t *testing.T, n int, clauses [][]int) *fixture {
	t.Helper()
	s := sat.NewSolver()
	f := &fixture{s: s, n: n}
	for v := 1; v <= n; v++ {
		if s.NewVar() != v {
			t.Fatalf("variable numbering drifted")
		}
		f.decided = append(f.decided, sat.Lit(v))
	}
	for _, cl := range clauses {
		lits := make([]sat.Lit, len(cl))
		for i, v := range cl {
			lits[i] = sat.Lit(v)
		}
		if !s.AddClause(lits...) {
			t.Fatalf("clause %v poisoned the solver", cl)
		}
	}
	return f
}

// assignments calls fn for every assignment of the decision variables
// that extends to a model of the formula.
func (f *fixture) assignments(fn func(bits []bool)) {
	assumps := make([]sat.Lit, f.n)
	bits := make([]bool, f.n)
	for mask := 0; mask < 1<<f.n; mask++ {
		for v := 1; v <= f.n; v++ {
			if mask&(1<<(v-1)) != 0 {
				assumps[v-1] = sat.Lit(v)
				bits[v-1] = true
			} else {
				assumps[v-1] = sat.Lit(-v)
				bits[v-1] = false
			}
		}
		if f.s.SolveAssuming(assumps) == sat.Sat {
			fn(bits)
		}
	}
}

func countTrue(bits []bool) int64 {
	var n int64
	for _, b := range bits {
		if b {
			n++
		}
	}
	return n
}

func TestMinimizeCountMatchesBruteForce(t *testing.T) {
	// (x1∨x2) ∧ (x2∨x3) ∧ (x4∨x5∨x6) ∧ (¬x2∨x6): brute-force minimum
	// computed below, engine must certify exactly it.
	clauses := [][]int{{1, 2}, {2, 3}, {4, 5, 6}, {-2, 6}}
	t.Run("binary", func(t *testing.T) {
		f := newFixture(t, 6, clauses)
		want := int64(1 << 30)
		f.assignments(func(bits []bool) {
			if v := countTrue(bits); v < want {
				want = v
			}
		})
		obj := NewCount(f.s, f.decided)
		res, err := Minimize(f.s, obj, Options{})
		if err != nil {
			t.Fatalf("Minimize: %v", err)
		}
		if !res.Exact || !res.Witnessed {
			t.Fatalf("expected exact witnessed result, got %+v", res)
		}
		if res.Value != want || res.LowerBound != want {
			t.Fatalf("optimum = %d (lb %d), brute force says %d", res.Value, res.LowerBound, want)
		}
		if got := obj.Eval(res.Model); got != want {
			t.Fatalf("model re-check: achieves %d, claimed %d", got, want)
		}
	})
}

func TestMinimizeWeightedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		clauses := [][]int{{1, 2, 3}, {-1, 4}, {2, 5}, {-3, -5, 1}}
		weights := make([]int64, 5)
		for i := range weights {
			weights[i] = rng.Int63n(50)
		}
		f := newFixture(t, 5, clauses)
		weigh := func(bits []bool) int64 {
			var v int64
			for i, b := range bits {
				if b && weights[i] > 0 {
					v += weights[i]
				}
			}
			return v
		}
		want := int64(1 << 40)
		f.assignments(func(bits []bool) {
			if v := weigh(bits); v < want {
				want = v
			}
		})
		arith := intlin.New(f.s)
		obj, err := NewWeighted(arith, f.decided, weights)
		if err != nil {
			t.Fatalf("NewWeighted: %v", err)
		}
		res, err := Minimize(f.s, obj, Options{})
		if err != nil {
			t.Fatalf("Minimize: %v", err)
		}
		if !res.Exact || res.Value != want {
			t.Fatalf("trial %d: optimum %d (exact %v), brute force %d, weights %v",
				trial, res.Value, res.Exact, want, weights)
		}
		if got := obj.Eval(res.Model); got != res.Value {
			t.Fatalf("model achieves %d, claimed %d", got, res.Value)
		}
	}
}

func TestMinimizeRespectsHardAssumptions(t *testing.T) {
	f := newFixture(t, 4, [][]int{{1, 2}, {3, 4}})
	obj := NewCount(f.s, f.decided)
	// Unconstrained minimum is 2; forcing x1 and x3 false pushes the
	// minimum onto x2 and x4 — still 2 — while forcing x1 true makes 2
	// achievable only with x1 counted.
	res, err := Minimize(f.s, obj, Options{Hard: []sat.Lit{sat.Lit(1), sat.Lit(2)}})
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if !res.Exact || res.Value != 3 {
		t.Fatalf("hard-assumption minimum = %d (exact %v), want 3", res.Value, res.Exact)
	}
	if !res.Model[0] || !res.Model[1] {
		t.Fatalf("model violates hard assumptions: %v", res.Model[:4])
	}
}

func TestMinimizeInfeasibleHard(t *testing.T) {
	f := newFixture(t, 2, [][]int{{1, 2}})
	obj := NewCount(f.s, f.decided)
	_, err := Minimize(f.s, obj, Options{Hard: []sat.Lit{sat.Lit(-1), sat.Lit(-2)}})
	if err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestMinimizeBudgetTripKeepsBounds interrupts the descent at every
// probe in turn — the first trip right after the initial model, the
// last one after the final probe — on a count and a weighted objective. Every tripped result must bracket the
// brute-force optimum with a real witness, and the proven lower bound
// must not fall as the trip point moves later.
func TestMinimizeBudgetTripKeepsBounds(t *testing.T) {
	clauses := [][]int{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {-1, -3}}
	weights := []int64{13, 7, 22, 9, 5, 31, 17, 17}
	objectives := []struct {
		name string
		make func(f *fixture) Objective
		eval func(bits []bool) int64
	}{
		{"count", func(f *fixture) Objective { return NewCount(f.s, f.decided) }, countTrue},
		{"weighted", func(f *fixture) Objective {
			obj, err := NewWeighted(intlin.New(f.s), f.decided, weights)
			if err != nil {
				t.Fatal(err)
			}
			return obj
		}, func(bits []bool) int64 {
			var v int64
			for i, b := range bits {
				if b {
					v += weights[i]
				}
			}
			return v
		}},
	}
	t.Run("binary", func(t *testing.T) {
		for _, o := range objectives {
			opt := int64(1 << 40)
			newFixture(t, 8, clauses).assignments(func(bits []bool) {
				if v := o.eval(bits); v < opt {
					opt = v
				}
			})
			var prevLB int64
			tripped := 0
			for allowed := 1; ; allowed++ {
				f := newFixture(t, 8, clauses)
				obj := o.make(f)
				// Let the first allowed solves through, then interrupt
				// (the interrupt is sticky: every later solve refuses).
				solves := 0
				f.s.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
					if ev != sat.EventSolve {
						return false
					}
					solves++
					return solves > allowed
				})
				res, err := Minimize(f.s, obj, Options{})
				if err != nil {
					t.Fatalf("Minimize: %v", err)
				}
				if !res.Witnessed {
					t.Fatalf("%s: trip after %d solves: no witness survived", o.name, allowed)
				}
				if got := obj.Eval(res.Model); got != res.Value {
					t.Fatalf("%s: trip after %d solves: witness achieves %d, claimed %d", o.name, allowed, got, res.Value)
				}
				if res.LowerBound > opt || res.Value < opt {
					t.Fatalf("%s: trip after %d solves: bounds [%d, %d] exclude the optimum %d",
						o.name, allowed, res.LowerBound, res.Value, opt)
				}
				if res.LowerBound < prevLB {
					t.Fatalf("%s: trip after %d solves: lower bound fell from %d to %d", o.name, allowed, prevLB, res.LowerBound)
				}
				prevLB = res.LowerBound
				if res.Exact {
					if res.Value != opt || res.LowerBound != opt {
						t.Fatalf("%s: exact result [%d, %d], brute force %d", o.name, res.LowerBound, res.Value, opt)
					}
					break
				}
				tripped++
			}
			if tripped == 0 {
				t.Fatalf("%s: no trip point left the descent unfinished", o.name)
			}
		}
	})
}

// TestBitDescentAddsNoClauses: the bit descent of a weighted sum
// assumes the sum's own output bits, so minimizing it leaves the
// solver's variable and clause counts untouched, solves at most once
// per bit after the initial model, and still certifies the brute-force
// optimum.
func TestBitDescentAddsNoClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	clauses := [][]int{{1, 2, 3}, {-1, 4}, {2, 5}, {-3, -5, 1}, {5, 6}, {-4, -6}}
	for trial := 0; trial < 20; trial++ {
		weights := make([]int64, 6)
		for i := range weights {
			weights[i] = rng.Int63n(1000)
		}
		f := newFixture(t, 6, clauses)
		want := int64(1 << 40)
		f.assignments(func(bits []bool) {
			var v int64
			for i, b := range bits {
				if b {
					v += weights[i]
				}
			}
			if v < want {
				want = v
			}
		})
		obj, err := NewWeighted(intlin.New(f.s), f.decided, weights)
		if err != nil {
			t.Fatal(err)
		}
		vars, cls := f.s.NumVars(), f.s.NumClauses()
		solves := 0
		f.s.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
			if ev == sat.EventSolve {
				solves++
			}
			return false
		})
		res, err := Minimize(f.s, obj, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || res.Value != want || res.LowerBound != want {
			t.Fatalf("trial %d: [%d, %d] exact=%v, brute force %d, weights %v",
				trial, res.LowerBound, res.Value, res.Exact, want, weights)
		}
		if v, c := f.s.NumVars(), f.s.NumClauses(); v != vars || c != cls {
			t.Fatalf("trial %d: descent grew the solver from %d vars / %d clauses to %d / %d",
				trial, vars, cls, v, c)
		}
		if solves > obj.Width()+1 {
			t.Fatalf("trial %d: %d solves for a %d-bit sum", trial, solves, obj.Width())
		}
	}
}

func TestLexicographicMatchesBruteForce(t *testing.T) {
	// Level 1: minimize x1..x3 count; level 2: minimize x4..x6 count
	// subject to level 1's optimum.
	clauses := [][]int{{1, 2, 3}, {4, 5, 6}, {-1, 5}, {-2, 6}}
	f := newFixture(t, 6, clauses)
	type vec struct{ a, b int64 }
	best := vec{1 << 30, 1 << 30}
	f.assignments(func(bits []bool) {
		v := vec{countTrue(bits[:3]), countTrue(bits[3:])}
		if v.a < best.a || (v.a == best.a && v.b < best.b) {
			best = v
		}
	})
	o1 := NewCount(f.s, f.decided[:3])
	o2 := NewCount(f.s, f.decided[3:])
	res, err := Lexicographic(f.s, []Objective{o1, o2}, Options{})
	if err != nil {
		t.Fatalf("Lexicographic: %v", err)
	}
	if !res.Exact {
		t.Fatalf("expected exact result")
	}
	if len(res.Values) != 2 || res.Values[0] != best.a || res.Values[1] != best.b {
		t.Fatalf("lex optimum %v, brute force (%d, %d)", res.Values, best.a, best.b)
	}
	for i, lb := range res.LowerBounds {
		if lb != res.Values[i] {
			t.Fatalf("exact level %d has loose lower bound %d != %d", i, lb, res.Values[i])
		}
	}
	if o1.Eval(res.Model) != best.a || o2.Eval(res.Model) != best.b {
		t.Fatalf("model does not achieve the lex optimum")
	}
}

// bruteFrontier computes the non-dominated set of (a, b) count vectors
// by exhaustive enumeration.
func bruteFrontier(f *fixture, split int) [][]int64 {
	seen := map[[2]int64]bool{}
	f.assignments(func(bits []bool) {
		seen[[2]int64{countTrue(bits[:split]), countTrue(bits[split:])}] = true
	})
	var pts [][2]int64
	for p := range seen {
		pts = append(pts, p)
	}
	var frontier [][]int64
	for _, p := range pts {
		dominated := false
		for _, q := range pts {
			if q != p && q[0] <= p[0] && q[1] <= p[1] {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, []int64{p[0], p[1]})
		}
	}
	sort.Slice(frontier, func(i, j int) bool {
		if frontier[i][0] != frontier[j][0] {
			return frontier[i][0] < frontier[j][0]
		}
		return frontier[i][1] < frontier[j][1]
	})
	return frontier
}

func TestParetoMatchesBruteForce(t *testing.T) {
	// Conflicting pulls: deploying few of x1..x3 forces many of x4..x6
	// and vice versa, so the frontier has several points.
	clauses := [][]int{
		{1, 4}, {2, 5}, {3, 6}, // each pair needs one side
		{1, 2, 3, 4}, {-1, -4}, // a little asymmetry
	}
	f := newFixture(t, 6, clauses)
	want := bruteFrontier(f, 3)
	o1 := NewCount(f.s, f.decided[:3])
	o2 := NewCount(f.s, f.decided[3:])
	res, err := Pareto(f.s, []Objective{o1, o2}, Options{})
	if err != nil {
		t.Fatalf("Pareto: %v", err)
	}
	if !res.Exact {
		t.Fatalf("frontier not certified complete")
	}
	got := make([][]int64, 0, len(res.Points))
	for _, p := range res.Points {
		got = append(got, p.Values)
		if o1.Eval(p.Model) != p.Values[0] || o2.Eval(p.Model) != p.Values[1] {
			t.Fatalf("point %v not achieved by its model", p.Values)
		}
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i][0] != got[j][0] {
			return got[i][0] < got[j][0]
		}
		return got[i][1] < got[j][1]
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("frontier %v, brute force %v", got, want)
	}
}

func TestParetoZeroPointTerminates(t *testing.T) {
	// Unconstrained variables: the all-false model evaluates both
	// objectives to 0, which dominates everything — one point, done.
	f := newFixture(t, 4, nil)
	o1 := NewCount(f.s, f.decided[:2])
	o2 := NewCount(f.s, f.decided[2:])
	res, err := Pareto(f.s, []Objective{o1, o2}, Options{})
	if err != nil {
		t.Fatalf("Pareto: %v", err)
	}
	if !res.Exact || len(res.Points) != 1 {
		t.Fatalf("want exactly the zero point, got %+v", res)
	}
	if res.Points[0].Values[0] != 0 || res.Points[0].Values[1] != 0 {
		t.Fatalf("frontier %v, want [0 0]", res.Points[0].Values)
	}
}
