package core

import (
	"testing"

	"netarch/internal/kb"
)

// section51Scenarios returns §5.1 query shapes over the caseStudyQueries
// KB: Q1's baseline (inference_app alone) and its grown fleet on the
// frozen baseline server, and Q3's memory-bound mix with CXL pooling off
// and on.
func section51Scenarios() map[string]Scenario {
	all := []string{"inference_app", "batch_analytics", "storage_backend"}
	return map[string]Scenario{
		"inference_app": {Workloads: []string{"inference_app"}},
		"q1-grown": {
			Workloads:      all,
			NumServers:     112,
			PinnedHardware: map[kb.HardwareKind]string{kb.KindServer: "Suprima CXL-64c"},
			Context:        map[string]bool{"pfc_enabled": true},
		},
		"q3-no-pooling": {
			Workloads:  all,
			NumServers: 64,
			Context:    map[string]bool{"pfc_enabled": true, "cxl_pooling": false},
		},
		"q3-pooling": {
			Workloads:  all,
			NumServers: 64,
			Context:    map[string]bool{"pfc_enabled": true, "cxl_pooling": true},
		},
	}
}

// TestBaseSizeBudget pins the variable and clause counts of three §5.1
// compiled bases. Every compile, clone, Simplify, propagation, snapshot
// and reload pays for what a base holds, so a base that grows is a
// warm-path regression even before any timing shows it — a base that
// gained the power and port objective circuits nearly doubled (49,575
// vars / 82,216 clauses for inference_app). The budgets allow 2% above
// the counts measured when they were set.
func TestBaseSizeBudget(t *testing.T) {
	budgets := []struct {
		name          string
		vars, clauses int
	}{
		{"inference_app", 3404, 11544},
		{"q1-grown", 3464, 10638},
		{"q3-no-pooling", 3495, 11005},
	}
	k, _ := caseStudyQueries()
	e := mustEngine(t, k)
	scs := section51Scenarios()
	for _, b := range budgets {
		sc := scs[b.name]
		shape := baseShape(&sc)
		c, err := e.compileBase(&shape)
		if err != nil {
			t.Fatal(err)
		}
		vars, clauses := c.solver.NumVars(), c.solver.NumClauses()
		if vars > b.vars*102/100 || clauses > b.clauses*102/100 {
			t.Errorf("%s base: %d vars / %d clauses; budget is %d / %d + 2%%",
				b.name, vars, clauses, b.vars, b.clauses)
		}
	}
}

// TestWarmQueryAllocBudget pins the allocation budget of a warm
// cache-hit query. A warm Synthesize clones the compiled base (the
// arena makes that a handful of slab copies, not one allocation per
// clause) and re-solves under assumptions, so its allocation count is
// small and stable — measured ~340 allocs/run on the mini KB. The
// budget below has ~1.5x headroom for incidental churn; blowing past
// it means a structural regression (per-clause heap objects creeping
// back, clone losing its slab packing, per-query encode work on the
// warm path) that BenchmarkQuery1 would only surface at the next
// manual bench run.
func TestWarmQueryAllocBudget(t *testing.T) {
	const budget = 500

	e := mustEngine(t, miniKB())
	sc := Scenario{}
	for i := 0; i < 2; i++ { // warm: compile once, settle caches
		if _, err := e.Synthesize(sc); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		rep, err := e.Synthesize(sc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != Feasible {
			t.Fatal("warm query must stay feasible")
		}
	})
	if allocs > budget {
		t.Fatalf("warm cache-hit Synthesize allocated %.0f allocs/run; budget is %d", allocs, budget)
	}
}
