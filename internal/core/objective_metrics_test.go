package core

import "testing"

// objectiveMetrics pairs each lazily built objective circuit with the
// design metric that reports the same quantity by catalog arithmetic.
var objectiveMetrics = []struct {
	kind   ObjectiveKind
	metric string
}{
	{MinimizePower, "power_w"},
	{MinimizePorts, "switch_ports"},
}

// checkObjectiveMetrics optimizes power and ports on sc and demands the
// certified optimum — read off the circuit — equal both want (power,
// ports) and the witness design's arithmetic metric.
func checkObjectiveMetrics(t *testing.T, e *Engine, name string, sc Scenario, want [2]int64) {
	t.Helper()
	for i, om := range objectiveMetrics {
		res, err := e.Optimize(sc, []Objective{{Kind: om.kind}})
		if err != nil {
			t.Fatalf("%s/%v: %v", name, om.kind, err)
		}
		if res.Verdict != Feasible || res.Approximate {
			t.Fatalf("%s/%v: want a certified optimum, got %v (approximate=%v)",
				name, om.kind, res.Verdict, res.Approximate)
		}
		opt := res.ObjectiveValues[0]
		if opt != want[i] {
			t.Errorf("%s/%v: certified optimum = %d, want %d", name, om.kind, opt, want[i])
		}
		if got := res.Design.Metrics[om.metric]; got != opt {
			t.Errorf("%s/%v: design %s = %d, certified optimum = %d",
				name, om.kind, om.metric, got, opt)
		}
	}
}

// TestObjectiveMetricsMatchCircuits cross-checks the two evaluation
// paths for power and ports: MinimizePower/MinimizePorts descend over
// sum circuits built on the query instance, while the power_w and
// switch_ports design metrics are plain catalog arithmetic. At every
// certified optimum the two must agree, sliced and unsliced. The
// optima themselves are pinned to the values certified when both
// circuits still lived on every base.
func TestObjectiveMetricsMatchCircuits(t *testing.T) {
	k := caseStudyKB()
	scs := section51Scenarios()
	optima := map[string][2]int64{ // {power_w, switch_ports}
		"inference_app": {29512, 96},
		"q3-no-pooling": {63800, 96},
		"q3-pooling":    {51512, 96},
	}
	for _, mode := range slicings {
		e := slicingEngine(t, k, mode.above)
		for _, n := range []string{"inference_app", "q3-no-pooling", "q3-pooling"} {
			checkObjectiveMetrics(t, e, mode.name+"/"+n, scs[n], optima[n])
		}
	}
}

// TestObjectiveCircuitsBuiltOncePerInstance pins the lazy lowering: the
// first level that needs the power or port circuit builds it on the
// query instance, and a repeated level reuses it. The cost level adds
// nothing at all — its circuit lives on the base.
func TestObjectiveCircuitsBuiltOncePerInstance(t *testing.T) {
	k := caseStudyKB()
	e := mustEngine(t, k)
	sc := section51Scenarios()["inference_app"]
	size := func(objs ...Objective) [2]int {
		t.Helper()
		c, err := e.instance(e.revision(), "optimize", &sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.objectives(objs); err != nil {
			t.Fatal(err)
		}
		return [2]int{c.solver.NumVars(), c.solver.NumClauses()}
	}
	power := Objective{Kind: MinimizePower}
	ports := Objective{Kind: MinimizePorts}
	cost := Objective{Kind: MinimizeCost}

	plain := size()
	for _, tc := range []struct {
		name       string
		once, lots []Objective
	}{
		{"power", []Objective{power}, []Objective{power, power}},
		{"ports", []Objective{ports}, []Objective{ports, cost, ports}},
	} {
		once, lots := size(tc.once...), size(tc.lots...)
		if once[1] <= plain[1] {
			t.Errorf("%s: lowering added no clauses (%v vs %v): circuit not built on the instance",
				tc.name, once, plain)
		}
		if lots != once {
			t.Errorf("%s: repeated levels lowered to %v vars/clauses, single level to %v",
				tc.name, lots, once)
		}
	}
}
