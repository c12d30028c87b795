package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"netarch/internal/catalog"
	"netarch/internal/kb"
	"netarch/internal/sat"
)

// randomScenario draws a scenario over the case-study KB.
func randomScenario(r *rand.Rand) Scenario {
	props := []kb.Property{
		"congestion_control", "load_balancing", "detect_queue_length",
		"flow_telemetry", "low_latency_stack", "packet_filtering",
		"network_virtualization", "tail_latency_control", "reliable_transport",
	}
	atoms := []string{
		"deadline_tight", "app_modifiable", "wan_dc_mix",
		"flooding_enabled", "pfc_enabled", "scavenger_ok", "deep_queues",
	}
	sc := Scenario{
		Workloads: []string{"inference_app"},
		Context:   map[string]bool{},
	}
	for _, a := range atoms {
		if r.Intn(2) == 0 {
			sc.Context[a] = r.Intn(2) == 0
		}
	}
	for _, i := range r.Perm(len(props))[:1+r.Intn(3)] {
		sc.Require = append(sc.Require, props[i])
	}
	return sc
}

// TestQuickSynthesizedDesignsPassCheck is the engine's self-consistency
// property: every witness returned by Synthesize must be accepted by
// Check under the same scenario, and must actually cover every required
// property with a deployed, useful system.
func TestQuickSynthesizedDesignsPassCheck(t *testing.T) {
	k := catalog.CaseStudy()
	e := mustEngine(t, k)
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sc := randomScenario(r)
		rep, err := e.Synthesize(sc)
		if err != nil {
			return false
		}
		if rep.Verdict != Feasible {
			return len(rep.Explanation.Conflicts) > 0 // explanation required
		}
		chk, err := e.Check(*rep.Design, sc)
		if err != nil {
			return false
		}
		if chk.Verdict != Feasible {
			t.Logf("witness rejected: %v\ndesign: %+v", chk.Explanation, rep.Design)
			return false
		}
		// Every required property is solved by a deployed useful system.
		for _, p := range sc.Require {
			covered := false
			for _, name := range rep.Design.Systems {
				s := k.SystemByName(name)
				if !s.SolvesProp(p) {
					continue
				}
				useful := true
				for _, cond := range s.UsefulOnlyWhen {
					if rep.Design.Context[cond.Atom] != cond.Value {
						useful = false
					}
				}
				if useful {
					covered = true
					break
				}
			}
			if !covered {
				t.Logf("property %s uncovered in %v", p, rep.Design.Systems)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickExplanationsAreUnsatCores verifies MUS soundness: assuming
// exactly the selectors named in an explanation must itself be UNSAT.
func TestQuickExplanationsAreUnsatCores(t *testing.T) {
	e := mustEngine(t, catalog.CaseStudy())
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sc := randomScenario(r)
		// Bias toward infeasibility.
		sc.Context["deadline_tight"] = true
		sc.Context["app_modifiable"] = false
		c, err := e.instance(e.revision(), "synthesize", &sc)
		if err != nil {
			return false
		}
		if c.solver.SolveAssuming(c.assumptions()) != sat.Unsat {
			return true // feasible draw: nothing to verify
		}
		g := govern(context.Background(), "test", Budget{})
		defer g.done()
		g.adopt(c.solver)
		ex := e.minimizeCore(c, g)
		if len(ex.Conflicts) == 0 {
			return false
		}
		assumps := make([]sat.Lit, 0, len(ex.Conflicts))
		for _, item := range ex.Conflicts {
			l, ok := selectorLit(c, item.Name)
			if !ok {
				return false
			}
			assumps = append(assumps, l)
		}
		if c.solver.SolveAssuming(assumps) != sat.Unsat {
			t.Logf("explanation %v is not an unsat core", ex.Conflicts)
			return false
		}
		// Minimality: dropping any single item restores satisfiability.
		for i := range assumps {
			trial := make([]sat.Lit, 0, len(assumps)-1)
			trial = append(trial, assumps[:i]...)
			trial = append(trial, assumps[i+1:]...)
			if c.solver.SolveAssuming(trial) != sat.Sat {
				t.Logf("explanation not minimal: %v still unsat without %s",
					ex.Conflicts, ex.Conflicts[i].Name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// selectorLit returns the literal of c's selector named name. Query
// instances carry no name index, so this scans.
func selectorLit(c *compiled, name string) (sat.Lit, bool) {
	for _, s := range c.selectors {
		if s.name == name {
			return s.lit, true
		}
	}
	return 0, false
}
