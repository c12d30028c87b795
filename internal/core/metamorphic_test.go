package core

import (
	"context"
	"fmt"
	"testing"

	"netarch/internal/kb"
)

// Metamorphic properties of the optimizer over diffKB (the oracle
// catalog of differential_test.go): objective scaling and translation
// invariance, dominated-SKU frontier no-ops, and bound-tightening
// monotonicity.

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
