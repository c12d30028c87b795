package core

import (
	"context"
	"fmt"
	"testing"

	"netarch/internal/kb"
)

// optimize_diff_test.go is the §5.1-style optimality differential for
// the MaxSAT optimizer: every certified answer is checked against the
// brute-force oracle (oracle.go), which searches by exhaustive
// projected-model enumeration and evaluates objectives by plain KB
// arithmetic — two independent search algorithms AND two independent
// evaluation paths. The sweep covers worker counts 1/2/8 (the Pareto
// cube merge must be schedule-independent) and fresh engines vs engines
// with a query history. Metamorphic
// properties follow: objective scaling/translation invariance,
// dominated-SKU frontier no-ops, and bound-tightening monotonicity.

const oracleLimit = 200000

// diffKB extends miniKB with power-draw and port-count quantities so
// the power and ports objectives have signal, deliberately arranged so
// the cheapest hardware is NOT the most power-frugal (cost/power trade
// off, giving the Pareto tests a multi-point frontier).
func diffKB() *kb.KB {
	k := miniKB()
	quants := map[string]map[kb.Resource]int64{
		"sw-fixed":  {kb.ResPowerW: 400, kb.ResPortCount: 64},
		"sw-ecn":    {kb.ResPowerW: 250, kb.ResPortCount: 48},
		"sw-p4":     {kb.ResPowerW: 800, kb.ResPortCount: 32},
		"sw-p4-big": {kb.ResPowerW: 550, kb.ResPortCount: 64},
		"nic-basic": {kb.ResPowerW: 15},
		"nic-poll":  {kb.ResPowerW: 40},
		"srv-small": {kb.ResPowerW: 300},
		"srv-big":   {kb.ResPowerW: 900},
	}
	for i := range k.Hardware {
		for r, v := range quants[k.Hardware[i].Name] {
			k.Hardware[i].Quant[r] = v
		}
	}
	return k
}

// diffCase is one scenario × objective-list differential row.
type diffCase struct {
	name string
	sc   Scenario
	objs []Objective
}

func diffCases() []diffCase {
	return []diffCase{
		{name: "cost", sc: Scenario{},
			objs: []Objective{{Kind: MinimizeCost}}},
		{name: "power-then-cost",
			sc:   Scenario{Require: []kb.Property{"congestion_control"}},
			objs: []Objective{{Kind: MinimizePower}, {Kind: MinimizeCost}}},
		{name: "systems-cost-ports",
			sc:   Scenario{Require: []kb.Property{"detect_queue_length"}},
			objs: []Objective{{Kind: MinimizeSystems}, {Kind: MinimizeCost}, {Kind: MinimizePorts}}},
		{name: "order-then-power",
			sc:   Scenario{Require: []kb.Property{"flow_telemetry"}},
			objs: []Objective{{Kind: PreferOrder, Dimension: "monitoring"}, {Kind: MinimizePower}}},
		{name: "cores-under-cost-cap",
			sc:   Scenario{Require: []kb.Property{"congestion_control"}, MaxCostUSD: 500000},
			objs: []Objective{{Kind: MinimizeCores}, {Kind: MinimizeCost}}},
	}
}

// TestOptimizeDifferential sweeps workers × fresh/with-history
// and demands the MaxSAT optimum equal the brute-force argmin exactly,
// with every level certified (LowerBounds == ObjectiveValues). The fresh
// arm answers each checked run on a new engine; the with-history arm
// keeps one engine and answers every other case before each checked
// run. The two arms must return the same result, search effort
// included: a query's search depends on its base, not on history.
func TestOptimizeDifferential(t *testing.T) {
	oracleEng := mustEngine(t, diffKB())
	history := mustEngine(t, diffKB())
	cases := diffCases()
	for _, tc := range cases {
		want, err := oracleEng.BruteOptimize(tc.sc, tc.objs, oracleLimit)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		if !want.Feasible {
			t.Fatalf("%s: oracle says infeasible; differential rows must be feasible", tc.name)
		}
		for _, workers := range []int{1, 2, 8} {
			optimize := func(e *Engine, sc Scenario, objs []Objective) *OptimizeResult {
				e.SetWorkers(workers)
				res, err := e.OptimizeCtx(context.Background(), sc, objs, Budget{})
				if err != nil {
					t.Fatalf("%s/w%d: %v", tc.name, workers, err)
				}
				return res
			}
			fresh := mustEngine(t, diffKB())
			freshRes := optimize(fresh, tc.sc, tc.objs)
			for _, other := range cases {
				if other.name != tc.name {
					optimize(history, other.sc, other.objs)
				}
			}
			histRes := optimize(history, tc.sc, tc.objs)
			for _, arm := range []struct {
				name string
				e    *Engine
				res  *OptimizeResult
			}{{"fresh", fresh, freshRes}, {"with-history", history, histRes}} {
				name := fmt.Sprintf("%s/w%d/%s", tc.name, workers, arm.name)
				res := arm.res
				if res.Verdict != Feasible || res.Approximate {
					t.Fatalf("%s: want certified feasible, got verdict=%v approx=%v",
						name, res.Verdict, res.Approximate)
				}
				if !eqVec(res.ObjectiveValues, want.Values) {
					t.Errorf("%s: optimum %v, oracle argmin %v", name, res.ObjectiveValues, want.Values)
				}
				if !eqVec(res.LowerBounds, res.ObjectiveValues) {
					t.Errorf("%s: certified run must have tight bounds: lb %v, values %v",
						name, res.LowerBounds, res.ObjectiveValues)
				}
				// The witness must actually achieve the claimed vector:
				// re-check it through the independent evaluators.
				if chk, err := arm.e.Check(*res.Design, tc.sc); err != nil || chk.Verdict != Feasible {
					t.Errorf("%s: optimal witness fails Check: %v %v", name, err, chk)
				}
			}
			if got, want := renderOptimize(histRes), renderOptimize(freshRes); got != want {
				t.Errorf("%s/w%d: with-history answer differs from fresh:\n got %s\nwant %s",
					tc.name, workers, got, want)
			}
		}
	}
}

// TestParetoDifferential demands the Pareto query return exactly the
// oracle's non-dominated vector set, for worker counts 1/2/8 — the same sorted frontier regardless of scheduling.
func TestParetoDifferential(t *testing.T) {
	oracleEng := mustEngine(t, diffKB())
	e := mustEngine(t, diffKB())
	cases := []diffCase{
		{name: "cost-power", sc: Scenario{},
			objs: []Objective{{Kind: MinimizeCost}, {Kind: MinimizePower}}},
		{name: "cost-power-cc",
			sc:   Scenario{Require: []kb.Property{"congestion_control"}},
			objs: []Objective{{Kind: MinimizeCost}, {Kind: MinimizePower}}},
		{name: "systems-power-mon",
			sc:   Scenario{Require: []kb.Property{"detect_queue_length"}},
			objs: []Objective{{Kind: MinimizeSystems}, {Kind: MinimizePower}, {Kind: MinimizeCost}}},
	}
	for _, tc := range cases {
		want, err := oracleEng.BruteOptimize(tc.sc, tc.objs, oracleLimit)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		if len(want.Frontier) < 2 {
			t.Fatalf("%s: degenerate oracle frontier %v — pick a scenario with a real trade-off",
				tc.name, want.Frontier)
		}
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("%s/w%d", tc.name, workers)
			e.SetWorkers(workers)
			res, err := e.ParetoCtx(context.Background(), tc.sc, tc.objs, Budget{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Complete {
				t.Fatalf("%s: unbudgeted pareto must be complete", name)
			}
			got := make([][]int64, len(res.Points))
			for i, p := range res.Points {
				got[i] = p.Values
				// Every frontier witness must be compliant.
				if chk, err := e.Check(*p.Design, tc.sc); err != nil || chk.Verdict != Feasible {
					t.Errorf("%s: frontier witness %v fails Check", name, p.Values)
				}
			}
			if !eqFrontier(got, want.Frontier) {
				t.Errorf("%s: frontier %v, oracle %v", name, got, want.Frontier)
			}
		}
	}
}

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
	base, err := mustEngine(t, diffKB()).Pareto(sc, objs)
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
	got, err := mustEngine(t, worse).Pareto(sc, objs)
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
	if !eqFrontier(gv, bv) {
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

func eqVec(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqFrontier(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eqVec(a[i], b[i]) {
			return false
		}
	}
	return true
}
