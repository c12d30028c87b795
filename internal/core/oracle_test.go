package core

import (
	"context"
	"fmt"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
	"netarch/internal/sat"
)

// This file is the optimizer's reference implementation — the slow,
// obviously-correct path the §5.1-style optimality differential (and
// BenchmarkOptimizeOracle) compares the MaxSAT engine against. It enumerates
// EVERY compliant assignment of the decision variables (deployed system
// set × hardware selection) by projection with blocking clauses, then
// computes the lexicographic argmin and the non-dominated frontier by
// exhaustive comparison. Objective values are recomputed from the
// knowledge base's quantities directly — not read off the compiled
// arithmetic circuits — so the differential crosses two independent
// evaluation paths as well as two independent search algorithms.

// BruteResult is the reference optimizer's answer.
type BruteResult struct {
	// Feasible is false when no compliant design exists.
	Feasible bool
	// Values is the lexicographic minimum objective vector.
	Values []int64
	// Frontier is the set of non-dominated objective vectors, sorted
	// lexicographically and deduplicated.
	Frontier [][]int64
	// Models counts the distinct projected assignments enumerated.
	Models int
}

// BruteOptimize exhaustively solves the optimization and Pareto queries
// by enumeration. limit caps the number of projected models (the oracle
// is meant for small catalogs and benchmarks; exceeding the cap is an
// error, never a silent truncation).
func (e *Engine) BruteOptimize(sc Scenario, objectives []Objective, limit int) (*BruteResult, error) {
	c, err := e.instance(e.revision(), "optimize", &sc)
	if err != nil {
		return nil, err
	}
	evals, err := c.oracleEvaluators(objectives)
	if err != nil {
		return nil, err
	}
	// Projection variables: every system plus every candidate SKU, in
	// deterministic order.
	proj := make([]sat.Lit, 0, len(c.sysNames)+8)
	for _, name := range c.sysNames {
		proj = append(proj, c.sysLit[name])
	}
	for _, hws := range c.cands {
		for _, h := range hws {
			proj = append(proj, c.hwLit[h.Name])
		}
	}
	assumps := c.assumptions()
	res := &BruteResult{}
	var vectors [][]int64
	block := make([]sat.Lit, len(proj))
	for {
		switch c.solver.SolveAssuming(assumps) {
		case sat.Sat:
		case sat.Unsat:
			return finishBrute(res, vectors), nil
		default:
			return nil, fmt.Errorf("core: brute-force oracle interrupted after %d models", res.Models)
		}
		res.Models++
		if res.Models > limit {
			return nil, fmt.Errorf("core: brute-force oracle exceeded %d models; shrink the scenario", limit)
		}
		model := c.solver.Model()
		d := c.designFrom(model)
		vec := make([]int64, len(evals))
		for i, ev := range evals {
			vec[i] = ev(d)
		}
		vectors = append(vectors, vec)
		// Block this projected assignment: some decision variable must
		// flip.
		for i, l := range proj {
			if model[l.Var()-1] != l.Neg() {
				block[i] = l.Flip()
			} else {
				block[i] = l
			}
		}
		c.solver.AddClause(block...)
	}
}

// finishBrute reduces the enumerated vectors to the lexicographic
// argmin and the sorted, deduplicated non-dominated frontier.
func finishBrute(res *BruteResult, vectors [][]int64) *BruteResult {
	if len(vectors) == 0 {
		return res
	}
	res.Feasible = true
	best := vectors[0]
	for _, v := range vectors[1:] {
		if lessValues(v, best) {
			best = v
		}
	}
	res.Values = best
	for i, v := range vectors {
		keep := true
		for j, w := range vectors {
			if i == j {
				continue
			}
			switch dominance(w, v) {
			case -1:
				keep = false
			case 0:
				if j < i {
					keep = false // dedupe equal vectors
				}
			}
			if !keep {
				break
			}
		}
		if keep {
			res.Frontier = append(res.Frontier, v)
		}
	}
	sortVectors(res.Frontier)
	return res
}

func sortVectors(vs [][]int64) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && lessValues(vs[j], vs[j-1]); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// oracleEvaluators builds one independent evaluator per objective:
// plain KB arithmetic over the decoded design, no solver circuits.
func (c *compiled) oracleEvaluators(objectives []Objective) ([]func(*Design) int64, error) {
	ns := int64(c.sc.numServers())
	nsw := int64(c.sc.numSwitches())
	countOf := func(kind kb.HardwareKind) int64 {
		if kind == kb.KindSwitch {
			return nsw
		}
		return ns
	}
	evals := make([]func(*Design) int64, len(objectives))
	for i, obj := range objectives {
		switch obj.Kind {
		case MinimizeCost:
			evals[i] = func(d *Design) int64 {
				var v int64
				for kind, name := range d.Hardware {
					if h := c.kb.HardwareByName(name); h != nil {
						v += h.CostUSD * countOf(kind)
					}
				}
				return v
			}
		case MinimizePower:
			evals[i] = func(d *Design) int64 {
				var v int64
				for kind, name := range d.Hardware {
					if h := c.kb.HardwareByName(name); h != nil {
						v += h.Q(kb.ResPowerW) * countOf(kind)
					}
				}
				return v
			}
		case MinimizePorts:
			evals[i] = func(d *Design) int64 {
				h := c.kb.HardwareByName(d.Hardware[kb.KindSwitch])
				if h == nil {
					return 0
				}
				return h.Q(kb.ResPortCount) * nsw
			}
		case MinimizeSystems:
			evals[i] = func(d *Design) int64 { return int64(len(d.Systems)) }
		case MinimizeCores:
			var wlCores int64
			for _, w := range c.workloads {
				wlCores += w.PeakCores
			}
			kflows := c.totalKFlows
			evals[i] = func(d *Design) int64 {
				v := wlCores
				for _, name := range d.Systems {
					if s := c.kb.SystemByName(name); s != nil {
						v += s.Resources[kb.ResCores]*ns + s.CoresPerKFlows*kflows
					}
				}
				return v
			}
		case PreferOrder:
			resolved, err := c.resolveOrder(obj.Dimension)
			if err != nil {
				return nil, err
			}
			if resolved == nil {
				return nil, fmt.Errorf("core: unknown order dimension %q", obj.Dimension)
			}
			evals[i] = func(d *Design) int64 {
				deployed := make(map[string]bool, len(d.Systems))
				for _, s := range d.Systems {
					deployed[s] = true
				}
				var v int64
				for j := range c.kb.Systems {
					worse := &c.kb.Systems[j]
					if !deployed[worse.Name] {
						continue
					}
					for k := range c.kb.Systems {
						better := &c.kb.Systems[k]
						if j == k || better.Role != worse.Role || deployed[better.Name] {
							continue
						}
						if resolved.Better(better.Name, worse.Name) {
							v++
						}
					}
				}
				return v
			}
		default:
			return nil, fmt.Errorf("core: oracle cannot evaluate objective kind %v", obj.Kind)
		}
	}
	return evals, nil
}

// dominance compares objective vectors: -1 when a dominates b (a ≤ b
// componentwise, a ≠ b), 0 when equal, +1 otherwise.
func dominance(a, b []int64) int {
	leq, equal := true, true
	for i := range a {
		if a[i] > b[i] {
			leq = false
		}
		if a[i] != b[i] {
			equal = false
		}
	}
	switch {
	case equal:
		return 0
	case leq:
		return -1
	default:
		return 1
	}
}

// BenchmarkOptimizeOracle compares the MaxSAT descent against the
// exhaustive enumeration oracle (BruteOptimize, the independent arm of
// the optimizer's differential rows) on a design space small enough for
// the oracle to finish: the asymmetry is why the oracle is a test
// fixture and the descent is the product. The space is trimmed to the
// systems and SKUs of three witness classes (the same seeding trick as
// the root BenchmarkEnumerate).
func BenchmarkOptimizeOracle(b *testing.B) {
	k := catalog.CaseStudy()
	sc := Scenario{Workloads: []string{"inference_app"}}
	objs := []Objective{{Kind: MinimizeCost}, {Kind: MinimizePower}}
	eng, err := New(k)
	if err != nil {
		b.Fatal(err)
	}
	seed, err := eng.EnumerateCtx(context.Background(), sc, 3, Budget{})
	if err != nil {
		b.Fatal(err)
	}
	trim := sc
	allowedSys := map[string]bool{}
	allowedHW := map[kb.HardwareKind]map[string]bool{}
	for _, d := range seed.Designs {
		for _, s := range d.Systems {
			allowedSys[s] = true
		}
		for kind, name := range d.Hardware {
			if allowedHW[kind] == nil {
				allowedHW[kind] = map[string]bool{}
			}
			allowedHW[kind][name] = true
		}
	}
	for _, s := range k.Systems {
		if !allowedSys[s.Name] {
			trim.ForbiddenSystems = append(trim.ForbiddenSystems, s.Name)
		}
	}
	trim.AllowedHardware = map[kb.HardwareKind][]string{}
	for kind, names := range allowedHW {
		for name := range names {
			trim.AllowedHardware[kind] = append(trim.AllowedHardware[kind], name)
		}
	}
	const limit = 500000
	want, err := eng.BruteOptimize(trim, objs, limit)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("trimmed/maxsat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := eng.Optimize(trim, objs)
			if err != nil {
				b.Fatal(err)
			}
			if res.Verdict != Feasible || res.ObjectiveValues[0] != want.Values[0] {
				b.Fatalf("maxsat disagrees with the oracle: %v vs %v",
					res.ObjectiveValues, want.Values)
			}
		}
	})
	b.Run("trimmed/brute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := eng.BruteOptimize(trim, objs, limit)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Feasible {
				b.Fatal("oracle lost feasibility")
			}
			b.ReportMetric(float64(res.Models), "models")
		}
	})
}
