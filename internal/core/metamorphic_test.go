package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"netarch/internal/kb"
)

// Metamorphic properties of the optimizer over diffKB (the oracle
// catalog of differential_test.go): objective scaling and translation
// invariance, dominated-SKU frontier no-ops, and bound-tightening
// monotonicity; and of the whole engine over the §5.1 catalog: rules
// written redundantly answer as the plain rules do.

// TestMetamorphicCostScaling: multiplying every SKU price by a constant
// scales the cost optimum by the same constant and leaves the power
// optimum untouched.
func TestMetamorphicCostScaling(t *testing.T) {
	const k = 7
	objs := []Objective{{Kind: MinimizeCost}, {Kind: MinimizePower}}
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	base, err := mustEngine(t, diffKB()).Optimize(sc, objs)
	if err != nil {
		t.Fatal(err)
	}
	scaled := diffKB()
	for i := range scaled.Hardware {
		scaled.Hardware[i].CostUSD *= k
	}
	got, err := mustEngine(t, scaled).Optimize(sc, objs)
	if err != nil {
		t.Fatal(err)
	}
	if got.ObjectiveValues[0] != k*base.ObjectiveValues[0] {
		t.Errorf("cost optimum must scale ×%d: base %d, scaled %d",
			k, base.ObjectiveValues[0], got.ObjectiveValues[0])
	}
	if got.ObjectiveValues[1] != base.ObjectiveValues[1] {
		t.Errorf("power optimum must be invariant under cost scaling: %d vs %d",
			base.ObjectiveValues[1], got.ObjectiveValues[1])
	}
}

// TestMetamorphicCostTranslation: adding Δ to every switch SKU shifts
// any design's total cost by exactly Δ×numSwitches, so the optimum
// translates by that amount and the optimal witness class is unchanged.
func TestMetamorphicCostTranslation(t *testing.T) {
	const delta = 1234
	objs := []Objective{{Kind: MinimizeCost}}
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	base, err := mustEngine(t, diffKB()).Optimize(sc, objs)
	if err != nil {
		t.Fatal(err)
	}
	shifted := diffKB()
	nsw := int64(sc.numSwitches())
	for i := range shifted.Hardware {
		if shifted.Hardware[i].Kind == kb.KindSwitch {
			shifted.Hardware[i].CostUSD += delta
		}
	}
	got, err := mustEngine(t, shifted).Optimize(sc, objs)
	if err != nil {
		t.Fatal(err)
	}
	if want := base.ObjectiveValues[0] + delta*nsw; got.ObjectiveValues[0] != want {
		t.Errorf("cost optimum must translate by Δ×nsw: got %d, want %d",
			got.ObjectiveValues[0], want)
	}
}

// TestMetamorphicDominatedSKU: adding a switch strictly worse than an
// existing one on every axis (same caps, higher cost, higher power,
// fewer ports) must not change the Pareto frontier.
func TestMetamorphicDominatedSKU(t *testing.T) {
	objs := []Objective{{Kind: MinimizeCost}, {Kind: MinimizePower}}
	sc := Scenario{}
	base, err := mustEngine(t, diffKB()).ParetoCtx(context.Background(), sc, objs, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	worse := diffKB()
	worse.Hardware = append(worse.Hardware, kb.Hardware{
		// Dominated by sw-fixed: no extra caps, costs more, burns more.
		Name: "sw-lemon", Kind: kb.KindSwitch,
		Quant: map[kb.Resource]int64{
			kb.ResBandwidthGbps: 100, kb.ResPowerW: 999, kb.ResPortCount: 8,
		},
		CostUSD: 50000,
	})
	got, err := mustEngine(t, worse).ParetoCtx(context.Background(), sc, objs, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	bv := make([][]int64, len(base.Points))
	for i, p := range base.Points {
		bv[i] = p.Values
	}
	gv := make([][]int64, len(got.Points))
	for i, p := range got.Points {
		gv[i] = p.Values
	}
	if fmt.Sprint(gv) != fmt.Sprint(bv) {
		t.Errorf("dominated SKU changed the frontier: %v vs %v", gv, bv)
	}
}

// TestMetamorphicBoundTightening: shrinking MaxCostUSD can only worsen
// (never improve) the optimum of any other objective.
func TestMetamorphicBoundTightening(t *testing.T) {
	e := mustEngine(t, diffKB())
	objs := []Objective{{Kind: MinimizePower}}
	sc := Scenario{Require: []kb.Property{"detect_queue_length"}}
	prev := int64(-1)
	// Descending cost caps, loosest first; 0 means unlimited.
	for _, cap := range []int64{0, 2000000, 1000000, 700000} {
		sc.MaxCostUSD = cap
		res, err := e.Optimize(sc, objs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Feasible {
			// A cap can price the scenario out entirely; that ends the chain.
			break
		}
		if res.ObjectiveValues[0] < prev {
			t.Errorf("cap %d improved the power optimum: %d < %d",
				cap, res.ObjectiveValues[0], prev)
		}
		prev = res.ObjectiveValues[0]
	}
	if prev < 0 {
		t.Fatal("no cap in the chain was feasible")
	}
}

// TestMetamorphicRedundantRule: every rule of the §5.1 catalog written
// redundantly, each rule E as (E ∨ E) ∧ (x ∨ ¬x) ∧ E with x an atom of
// E, so a disjunction repeats its operands, a conjunction holds a
// tautology and a subformula occurs three times. The CNF converter
// rewrites none of it, so the bases grow, but no verdict, explanation or
// optimum on the §5.1 queries may change, and every witness must pass
// Check on the plain catalog.
func TestMetamorphicRedundantRule(t *testing.T) {
	plain := mustEngine(t, caseStudyKB())
	k := caseStudyKB()
	for i := range k.Rules {
		e := k.Rules[i].Expr
		x := kb.Atom(e.Atoms(nil)[0])
		k.Rules[i].Expr = kb.And(kb.Or(e, e), kb.Or(x, kb.Not(x)), e)
	}
	redundant := mustEngine(t, k)

	sc := section51Scenarios()["inference_app"]
	shape := baseShape(&sc)
	pb, err := compile(plain.revision().kb, &shape, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := compile(redundant.revision().kb, &shape, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pv, rv := pb.solver.NumVars(), rb.solver.NumVars(); rv <= pv {
		t.Fatalf("redundant rules compile to %d variables, plain ones to %d; want more", rv, pv)
	}

	for _, r := range queryRows(t, plain, sec51Scenarios(t, plain), "synthesize", "explain", "optimize") {
		want, got := answer(plain, r), answer(redundant, r)
		if want.err != nil || got.err != nil {
			t.Fatalf("%s: plain %v, redundant %v", r.name, want.err, got.err)
		}
		var design *Design
		switch w := want.res.(type) {
		case *Report:
			g := got.res.(*Report)
			if g.Verdict != w.Verdict || !slices.Equal(conflictNames(g.Explanation), conflictNames(w.Explanation)) {
				t.Errorf("%s: %v %v, plain rules give %v %v", r.name,
					g.Verdict, conflictNames(g.Explanation), w.Verdict, conflictNames(w.Explanation))
			}
			design = g.Design
		case *Explanation:
			if g := conflictNames(got.res.(*Explanation)); !slices.Equal(g, conflictNames(w)) {
				t.Errorf("%s: explanation %v, plain rules give %v", r.name, g, conflictNames(w))
			}
		case *OptimizeResult:
			g := got.res.(*OptimizeResult)
			if g.Verdict != w.Verdict || !slices.Equal(g.ObjectiveValues, w.ObjectiveValues) {
				t.Errorf("%s: optimum %v %v, plain rules give %v %v", r.name,
					g.Verdict, g.ObjectiveValues, w.Verdict, w.ObjectiveValues)
			}
			design = g.Design
		}
		if design == nil {
			continue
		}
		if rep, err := plain.Check(*design, r.sc); err != nil || rep.Verdict != Feasible {
			t.Errorf("%s: witness %v rejected under the plain rules: %v", r.name, design, err)
		}
	}
}
