// Benchmarks regenerating every evaluation artifact of the paper (one per
// table/figure; see DESIGN.md §4 for the experiment index) plus the
// ablation benches for the design choices DESIGN.md §5 calls out.
package netarch_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"netarch"
	"netarch/internal/cardinality"
	"netarch/internal/catalog"
	"netarch/internal/core"
	"netarch/internal/experiments"
	"netarch/internal/kb"
	"netarch/internal/sat"
	"netarch/internal/topo"
)

func benchExperiment(b *testing.B, run func() (*experiments.Result, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("shape mismatch:\n%s", res)
		}
	}
}

// BenchmarkFig1Ordering regenerates Figure 1 (F1).
func BenchmarkFig1Ordering(b *testing.B) { benchExperiment(b, experiments.RunF1) }

// BenchmarkListing1Extraction regenerates Listing 1 (L1).
func BenchmarkListing1Extraction(b *testing.B) { benchExperiment(b, experiments.RunL1) }

// BenchmarkEncodeSystem regenerates Listing 2 (L2).
func BenchmarkEncodeSystem(b *testing.B) { benchExperiment(b, experiments.RunL2) }

// BenchmarkListing3Workload regenerates Listing 3 (L3).
func BenchmarkListing3Workload(b *testing.B) { benchExperiment(b, experiments.RunL3) }

// BenchmarkQuery1 regenerates §5.1 query 1.
func BenchmarkQuery1(b *testing.B) { benchExperiment(b, experiments.RunQ1) }

// BenchmarkQuery2 regenerates §5.1 query 2.
func BenchmarkQuery2(b *testing.B) { benchExperiment(b, experiments.RunQ2) }

// BenchmarkQuery3 regenerates §5.1 query 3.
func BenchmarkQuery3(b *testing.B) { benchExperiment(b, experiments.RunQ3) }

// BenchmarkExtractionAccuracy regenerates the §4.1 table (E4.1).
func BenchmarkExtractionAccuracy(b *testing.B) { benchExperiment(b, experiments.RunE41) }

// BenchmarkEncodingCheck regenerates the §4.2 table (E4.2).
func BenchmarkEncodingCheck(b *testing.B) { benchExperiment(b, experiments.RunE42) }

// BenchmarkReasonerComparison regenerates the §5.2 table (E5.2).
func BenchmarkReasonerComparison(b *testing.B) { benchExperiment(b, experiments.RunE52) }

// BenchmarkSpecLinearity regenerates the §3.1 metric series (M3.1).
func BenchmarkSpecLinearity(b *testing.B) { benchExperiment(b, experiments.RunM31) }

// BenchmarkPFCDeadlock regenerates the PFC case table (P1).
func BenchmarkPFCDeadlock(b *testing.B) { benchExperiment(b, experiments.RunP1) }

// BenchmarkGreedyVsSAT regenerates the baseline comparison (B1).
func BenchmarkGreedyVsSAT(b *testing.B) { benchExperiment(b, experiments.RunB1) }

// BenchmarkSynthScaling measures synthesis latency against catalog size
// (S1): the series the paper's tractability bet rides on. The fraction
// tiers shrink the seed catalog. internal/core's BenchmarkSynthScaling
// grows it to 5k–50k SKUs and measures relevance slicing on vs off (the
// engine's slicing threshold is a parameter only core's tests can set).
func BenchmarkSynthScaling(b *testing.B) {
	full := catalog.CaseStudy()
	for _, frac := range []int{25, 50, 100} {
		sub := experiments.CatalogFraction(full, frac)
		b.Run(fmt.Sprintf("catalog=%d%%", frac), func(b *testing.B) {
			eng, err := netarch.NewEngine(sub)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := eng.Synthesize(netarch.Scenario{Workloads: []string{"inference_app"}})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Verdict != netarch.Feasible {
					b.Fatal("expected feasible")
				}
			}
		})
	}
}

// BenchmarkSynthWorkloadScaling measures synthesis cost as workloads
// accumulate (the §5.1 "verify how the deployment changes as we add more
// workloads" axis).
func BenchmarkSynthWorkloadScaling(b *testing.B) {
	k := catalog.CaseStudy()
	k.Workloads = append(k.Workloads, catalog.BatchAnalyticsWorkload(), catalog.StorageWorkload())
	names := []string{"inference_app", "batch_analytics", "storage_backend"}
	for n := 1; n <= 3; n++ {
		b.Run(fmt.Sprintf("workloads=%d", n), func(b *testing.B) {
			eng, err := netarch.NewEngine(k)
			if err != nil {
				b.Fatal(err)
			}
			sc := netarch.Scenario{
				Workloads:  names[:n],
				NumServers: 192,
				Context:    map[string]bool{"pfc_enabled": true},
			}
			// Setup (catalog + engine construction) must not pollute the
			// per-workload series.
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Synthesize(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benches (DESIGN.md §5) ---------------------------------------

// hardInstance loads a phase-transition random 3-SAT instance.
func hardInstance(s *sat.Solver, seed int64, nVars int) {
	r := rand.New(rand.NewSource(seed))
	nClauses := int(4.1 * float64(nVars))
	s.EnsureVars(nVars)
	for i := 0; i < nClauses; i++ {
		c := make([]sat.Lit, 3)
		for j := range c {
			v := r.Intn(nVars) + 1
			if r.Intn(2) == 0 {
				c[j] = sat.Lit(v)
			} else {
				c[j] = sat.Lit(-v)
			}
		}
		s.AddClause(c...)
	}
}

// BenchmarkAblationNoLearning compares CDCL against plain DPLL
// (chronological backtracking, no learnt clauses).
func BenchmarkAblationNoLearning(b *testing.B) {
	for _, opts := range []struct {
		name string
		o    sat.Options
	}{
		{"cdcl", sat.Options{}},
		{"dpll", sat.Options{NoLearning: true}},
	} {
		b.Run(opts.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sat.NewSolverOpts(opts.o)
				hardInstance(s, int64(i%4), 40)
				s.Solve()
			}
		})
	}
}

// BenchmarkAblationStaticOrder compares VSIDS against static variable
// order.
func BenchmarkAblationStaticOrder(b *testing.B) {
	for _, opts := range []struct {
		name string
		o    sat.Options
	}{
		{"vsids", sat.Options{}},
		{"static", sat.Options{StaticOrder: true}},
	} {
		b.Run(opts.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sat.NewSolverOpts(opts.o)
				hardInstance(s, int64(i%4), 48)
				s.Solve()
			}
		})
	}
}

// BenchmarkAblationRestarts compares Luby restarts on/off.
func BenchmarkAblationRestarts(b *testing.B) {
	for _, opts := range []struct {
		name string
		o    sat.Options
	}{
		{"luby", sat.Options{}},
		{"none", sat.Options{NoRestarts: true}},
	} {
		b.Run(opts.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sat.NewSolverOpts(opts.o)
				hardInstance(s, int64(i%4), 48)
				s.Solve()
			}
		})
	}
}

// BenchmarkAblationCardinality compares the sequential counter and the
// totalizer as at-most-k encodings under the optimizer's workload shape.
func BenchmarkAblationCardinality(b *testing.B) {
	const n, k = 40, 12
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.NewSolver()
			lits := make([]sat.Lit, n)
			for j := range lits {
				lits[j] = sat.Lit(s.NewVar())
			}
			neg := make([]sat.Lit, n)
			for j, l := range lits {
				neg[j] = l.Flip()
			}
			// At least k of lits is at most n-k of their negations.
			cardinality.AtMostKSeq(s, lits, k)
			cardinality.AtMostKSeq(s, neg, n-k)
			if s.Solve() != sat.Sat {
				b.Fatal("want SAT")
			}
		}
	})
	b.Run("totalizer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.NewSolver()
			lits := make([]sat.Lit, n)
			for j := range lits {
				lits[j] = sat.Lit(s.NewVar())
			}
			tot := cardinality.NewTotalizer(s, lits)
			s.AddClause(tot.AtMostLit(k))
			s.AddClause(tot.AtLeastLit(k))
			if s.Solve() != sat.Sat {
				b.Fatal("want SAT")
			}
		}
	})
}

// BenchmarkAblationMUS compares the raw assumption core against the
// deletion-minimized MUS on an over-constrained scenario (explanation
// quality vs cost).
func BenchmarkAblationMUS(b *testing.B) {
	k := catalog.CaseStudy()
	sc := netarch.Scenario{
		Context: map[string]bool{
			"pfc_enabled": true, "flooding_enabled": true,
			"deadline_tight": true,
		},
		Require: []netarch.Property{"low_latency_stack"},
	}
	b.Run("minimized", func(b *testing.B) {
		eng, err := netarch.NewEngine(k)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex, err := eng.Explain(sc)
			if err != nil {
				b.Fatal(err)
			}
			if ex == nil || len(ex.Conflicts) == 0 {
				b.Fatal("expected explanation")
			}
			b.ReportMetric(float64(len(ex.Conflicts)), "core-items")
		}
	})
}

// BenchmarkPFCGraphCheck measures the buffer-dependency analysis itself.
func BenchmarkPFCGraphCheck(b *testing.B) {
	for _, kArity := range []int{4, 8} {
		b.Run(fmt.Sprintf("fattree-k=%d", kArity), func(b *testing.B) {
			t, err := topo.NewFatTree(kArity, 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := t.PFCDeadlockCheck(true); !rep.Deadlock {
					b.Fatal("expected deadlock under flooding")
				}
			}
		})
	}
}

// BenchmarkDatalogVsSATCheck compares the §3.4 substrate candidates on
// design *checking*: the stratified-Datalog backend vs the SAT engine.
// (Only SAT can also synthesize; this measures the overlap they share.)
func BenchmarkDatalogVsSATCheck(b *testing.B) {
	k := catalog.CaseStudy()
	eng, err := core.New(k)
	if err != nil {
		b.Fatal(err)
	}
	design := core.Design{
		Systems: []string{"linux", "dctcp", "ecmp", "pingmesh", "tcp", "ovs"},
		Hardware: map[kb.HardwareKind]string{
			kb.KindSwitch: "Aristo EX-32x100G",
			kb.KindNIC:    "Mellanor CX-100G",
			kb.KindServer: "Suprima HD-128c",
		},
	}
	sc := core.Scenario{Workloads: []string{"inference_app"}}
	b.Run("datalog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.DatalogCheck(design, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Check(design, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProofLogging measures the overhead of DRAT logging plus the
// cost of independently checking an UNSAT proof.
func BenchmarkProofLogging(b *testing.B) {
	build := func(s *sat.Solver) [][]sat.Lit {
		var clauses [][]sat.Lit
		n := 6
		v := func(pn, h int) sat.Lit { return sat.Lit(pn*n + h + 1) }
		for pn := 0; pn < n+1; pn++ {
			var c []sat.Lit
			for h := 0; h < n; h++ {
				c = append(c, v(pn, h))
			}
			clauses = append(clauses, c)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 < n+1; p1++ {
				for p2 := p1 + 1; p2 < n+1; p2++ {
					clauses = append(clauses, []sat.Lit{-v(p1, h), -v(p2, h)})
				}
			}
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		return clauses
	}
	b.Run("solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.NewSolver()
			build(s)
			if s.Solve() != sat.Unsat {
				b.Fatal("want UNSAT")
			}
		}
	})
	b.Run("solve+log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.NewSolver()
			s.AttachProof()
			build(s)
			if s.Solve() != sat.Unsat {
				b.Fatal("want UNSAT")
			}
		}
	})
	b.Run("solve+log+check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.NewSolver()
			p := s.AttachProof()
			clauses := build(s)
			if s.Solve() != sat.Unsat {
				b.Fatal("want UNSAT")
			}
			if err := sat.CheckRUP(clauses, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRepeatedQueries alternates Synthesize, Explain, and Optimize
// on one engine over one scenario shape — the paper's interactive what-if
// loop. "cold" disables the compiled-base cache (every query recompiles);
// "warm" primes the cache once, so every measured query is a clone of the
// shared base. The warm/cold ratio is the amortization win.
func BenchmarkRepeatedQueries(b *testing.B) {
	k := catalog.CaseStudy()
	feasible := netarch.Scenario{Workloads: []string{"inference_app"}}
	// Same shape (same workloads), query-side over-constraining only: the
	// explain query shares the synthesis query's compiled base.
	infeasible := netarch.Scenario{
		Workloads: []string{"inference_app"},
		Context: map[string]bool{
			"pfc_enabled": true, "flooding_enabled": true, "deadline_tight": true,
		},
		Require: []netarch.Property{"low_latency_stack"},
	}
	// MinimizeCores keeps the optimize leg representative of the
	// interactive loop (§2.3 trades off compute headroom) while its
	// intrinsic search stays in the same ballpark as the other two query
	// kinds; MinimizeCost's certification alone runs ~200ms/query, which
	// would drown the compile-amortization signal this benchmark exists
	// to measure (cost descent is covered by BenchmarkQuery2).
	objs := []netarch.Objective{{Kind: netarch.MinimizeCores}}
	loop := func(b *testing.B, eng *netarch.Engine) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			switch i % 3 {
			case 0:
				rep, err := eng.Synthesize(feasible)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Verdict != netarch.Feasible {
					b.Fatal("expected feasible")
				}
			case 1:
				ex, err := eng.Explain(infeasible)
				if err != nil {
					b.Fatal(err)
				}
				if ex == nil {
					b.Fatal("expected explanation")
				}
			case 2:
				res, err := eng.Optimize(feasible, objs)
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != netarch.Feasible {
					b.Fatal("expected feasible")
				}
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		eng, err := netarch.NewEngine(k)
		if err != nil {
			b.Fatal(err)
		}
		eng.SetCacheCapacity(0)
		b.ReportAllocs()
		b.ResetTimer()
		loop(b, eng)
	})
	b.Run("warm", func(b *testing.B) {
		eng, err := netarch.NewEngine(k)
		if err != nil {
			b.Fatal(err)
		}
		// Prime the cache: the one compile happens here, outside the timer.
		if _, err := eng.Synthesize(feasible); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		loop(b, eng)
	})
}

// BenchmarkServeReadMix answers the read classes of the end-to-end
// benchmark's serve_warm workload in process, on one warm engine and
// without HTTP: per ten ops, four inference_app syntheses, one §5.1 Q1
// grown-fleet synthesis, two Q3 what-ifs (a synthesis without CXL
// pooling and one with), two PFC + flooding explanations and one check
// of the inference_app witness. Every query clones a cached base, so
// B/op is mostly what the clones copy; the bases are compiled off the
// clock.
func BenchmarkServeReadMix(b *testing.B) {
	all := []string{"inference_app", "batch_analytics", "storage_backend"}
	inference := netarch.Scenario{Workloads: []string{"inference_app"}}
	q1Grown := netarch.Scenario{
		Workloads:      all,
		NumServers:     112,
		PinnedHardware: map[netarch.HardwareKind]string{netarch.KindServer: "Suprima CXL-64c"},
		Context:        map[string]bool{"pfc_enabled": true},
	}
	q3 := func(pooling bool) netarch.Scenario {
		return netarch.Scenario{
			Workloads:  all,
			NumServers: 64,
			Context:    map[string]bool{"pfc_enabled": true, "cxl_pooling": pooling},
		}
	}
	pfc := netarch.Scenario{
		Workloads: []string{"inference_app"},
		Context:   map[string]bool{"pfc_enabled": true, "flooding_enabled": true, "deadline_tight": true},
	}
	k := catalog.CaseStudy()
	k.Workloads = append(k.Workloads, catalog.BatchAnalyticsWorkload(), catalog.StorageWorkload())
	eng, err := netarch.NewEngine(k)
	if err != nil {
		b.Fatal(err)
	}
	witness, err := eng.Synthesize(inference)
	if err != nil || witness.Design == nil {
		b.Fatalf("inference_app witness: %v", err)
	}
	feasible := func(sc netarch.Scenario) func() error {
		return func() error {
			rep, err := eng.Synthesize(sc)
			if err == nil && rep.Verdict != netarch.Feasible {
				err = fmt.Errorf("verdict %v, want FEASIBLE", rep.Verdict)
			}
			return err
		}
	}
	whatif := func() error {
		if _, err := eng.Synthesize(q3(false)); err != nil {
			return err
		}
		_, err := eng.Synthesize(q3(true))
		return err
	}
	explain := func() error {
		ex, err := eng.Explain(pfc)
		if err == nil && ex == nil {
			err = fmt.Errorf("no explanation")
		}
		return err
	}
	check := func() error {
		rep, err := eng.Check(*witness.Design, inference)
		if err == nil && rep.Verdict != netarch.Feasible {
			err = fmt.Errorf("the witness checks %v", rep.Verdict)
		}
		return err
	}
	mix := []func() error{
		feasible(inference), feasible(inference), feasible(inference), feasible(inference),
		feasible(q1Grown), whatif, whatif, explain, explain, check,
	}
	for _, op := range mix { // compile every base off the clock
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mix[i%len(mix)](); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize measures the assumption-based MaxSAT optimizer on a
// warm engine (the cache is primed off the clock, so it measures the
// clone and the descents, not compilation): "full" is a certified
// lexicographic cost-then-power minimization over the whole case-study
// catalog, and "listing3" is Listing 3's Optimize(latency > Hardware
// cost > monitoring) over inference_app with packet spraying as the
// load-balancing bound, the optimize_warm class whose objective circuits
// add variables to the query's clone. internal/core's
// BenchmarkOptimizeOracle compares the descent with the exhaustive
// oracle on a trimmed space.
func BenchmarkOptimize(b *testing.B) {
	inference := netarch.Scenario{Workloads: []string{"inference_app"}}
	listing3 := netarch.Scenario{
		Workloads: []string{"inference_app"},
		Context:   map[string]bool{"app_modifiable": true},
		Bounds:    []netarch.PerformanceBound{{Dimension: "load_balancing", Reference: "packet-spraying"}},
	}
	cases := []struct {
		name       string
		sc         netarch.Scenario
		objectives []string
	}{
		{"full", inference, []string{"cost", "power"}},
		{"listing3", listing3, []string{"latency", "cost", "order:monitoring"}},
	}
	for _, tc := range cases {
		var objs []netarch.Objective
		for _, name := range tc.objectives {
			obj, err := netarch.ParseObjective(name)
			if err != nil {
				b.Fatal(err)
			}
			objs = append(objs, obj)
		}
		b.Run(tc.name, func(b *testing.B) {
			eng, err := netarch.NewEngine(catalog.CaseStudy())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Optimize(tc.sc, objs); err != nil { // prime the cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.OptimizeCtx(context.Background(), tc.sc, objs, netarch.Budget{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != netarch.Feasible || res.Approximate {
					b.Fatal("want a certified optimum")
				}
			}
		})
	}
}

// BenchmarkEnumerate measures a complete design-class enumeration on a
// warm engine. The space is constrained to the systems of the first three
// classes so the complete enumeration stays in benchmark range; the cache
// is primed so compilation stays off the clock.
func BenchmarkEnumerate(b *testing.B) {
	k := catalog.CaseStudy()
	k.Workloads = append(k.Workloads, catalog.BatchAnalyticsWorkload(), catalog.StorageWorkload())
	eng, err := netarch.NewEngine(k)
	if err != nil {
		b.Fatal(err)
	}
	sc := netarch.Scenario{Workloads: []string{"inference_app"}, NumServers: 64}
	seed, err := eng.EnumerateCtx(context.Background(), sc, 3, netarch.Budget{})
	if err != nil {
		b.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, d := range seed.Designs {
		for _, s := range d.Systems {
			allowed[s] = true
		}
	}
	for _, s := range k.Systems {
		if !allowed[s.Name] {
			sc.ForbiddenSystems = append(sc.ForbiddenSystems, s.Name)
		}
	}
	if _, err := eng.EnumerateCtx(context.Background(), sc, 1, netarch.Budget{}); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.EnumerateCtx(context.Background(), sc, 1<<20, netarch.Budget{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Truncated || len(res.Designs) < 2 {
			b.Fatalf("want a complete multi-class enumeration, got %d classes truncated=%v",
				len(res.Designs), res.Truncated)
		}
	}
}

// BenchmarkPareto measures complete Pareto-frontier enumerations on a
// warm case-study engine (the cache is primed off the clock). Each row
// checks its frontier's value vectors, so a wrong frontier fails the
// benchmark rather than timing it.
func BenchmarkPareto(b *testing.B) {
	inference := netarch.Scenario{Workloads: []string{"inference_app"}}
	cases := []struct {
		name string
		sc   netarch.Scenario
		objs []netarch.Objective
		want string
	}{
		{"cost+power/inference_app", inference,
			[]netarch.Objective{{Kind: netarch.MinimizeCost}, {Kind: netarch.MinimizePower}},
			"[[600960 31784] [645120 29512]]"},
		{"latency+systems/congestion_control", netarch.Scenario{Require: []netarch.Property{"congestion_control"}},
			[]netarch.Objective{{Kind: netarch.PreferOrder, Dimension: "tail_latency"}, {Kind: netarch.MinimizeSystems}},
			"[[0 4]]"},
		{"cost+cores/inference_app", inference,
			[]netarch.Objective{{Kind: netarch.MinimizeCost}, {Kind: netarch.MinimizeCores}},
			"[[600960 2900] [898560 2800]]"},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			eng, err := netarch.NewEngine(catalog.CaseStudy())
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Prewarm(tc.sc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.ParetoCtx(context.Background(), tc.sc, tc.objs, netarch.Budget{})
				if err != nil {
					b.Fatal(err)
				}
				var got [][]int64
				for _, p := range res.Points {
					got = append(got, p.Values)
				}
				if !res.Complete || fmt.Sprint(got) != tc.want {
					b.Fatalf("frontier %v (complete %v), want %s", got, res.Complete, tc.want)
				}
			}
		})
	}
}

// BenchmarkColdStart measures a fresh engine's first query at full
// catalog scale: "compile" builds the formula, CNFs it and probes the
// base before the query solves. DESIGN.md §9 records why no tier
// between the memory cache and the compile remains. internal/core's
// BenchmarkColdStart has the scaled-catalog rows, sliced and unsliced.
func BenchmarkColdStart(b *testing.B) {
	k := catalog.CaseStudy()
	sc := netarch.Scenario{Workloads: []string{"inference_app"}}
	firstQuery := func(b *testing.B, eng *netarch.Engine) {
		b.Helper()
		rep, err := eng.Synthesize(sc)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Verdict != netarch.Feasible {
			b.Fatal("expected feasible")
		}
	}
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng, err := netarch.NewEngine(k)
			if err != nil {
				b.Fatal(err)
			}
			firstQuery(b, eng)
		}
	})
}

// BenchmarkCompile measures scenario compilation alone (formula build +
// CNF + arithmetic) at full catalog scale.
func BenchmarkCompile(b *testing.B) {
	k := catalog.CaseStudy()
	eng, err := core.New(k)
	if err != nil {
		b.Fatal(err)
	}
	// Capacity 0: this benchmark measures compilation itself, so every
	// iteration must actually compile, then clone the fresh base as
	// every query does (see BenchmarkRepeatedQueries for the amortized
	// path).
	eng.SetCacheCapacity(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// EnumerateCtx(…, 0) compiles and immediately returns no designs.
		if _, err := eng.EnumerateCtx(context.Background(), core.Scenario{Workloads: []string{"inference_app"}}, 0, core.Budget{}); err != nil {
			b.Fatal(err)
		}
	}
}

// stressCatalog grows the §5.1 case-study catalog with an "environment
// model": a phase-transition random 3-SAT rule over free context atoms
// (the joint environment the reasoner must prove consistent with any
// deployment) plus a CXL capacity matrix that collapses to a pigeonhole
// contradiction when cxl_pooling is off. The Q3-style what-if against
// this catalog is the hardest UNSAT query in the suite — tens of
// thousands of conflicts where the plain §5.1 queries take under a
// hundred. The env seed is chosen so the environment alone is
// satisfiable (the cxl_pooling=true family member must be feasible).
func stressCatalog() *netarch.KB {
	k := catalog.CaseStudy()
	k.Workloads = append(k.Workloads, catalog.BatchAnalyticsWorkload(), catalog.StorageWorkload())
	r := rand.New(rand.NewSource(1))
	const envVars = 240
	var env []kb.Expr
	for i := 0; i < int(4.2*float64(envVars)); i++ {
		c := make([]kb.Expr, 3)
		for j := range c {
			a := kb.CtxAtom(fmt.Sprintf("env_x%d", r.Intn(envVars)+1))
			if r.Intn(2) == 0 {
				a = kb.Not(a)
			}
			c[j] = a
		}
		env = append(env, kb.Or(c...))
	}
	k.Rules = append(k.Rules, kb.Rule{
		Name: "environment_model",
		Expr: kb.And(env...),
		Note: "joint feasibility model of the deployment environment",
	})
	slot := func(p, h int) kb.Expr { return kb.CtxAtom(fmt.Sprintf("cxl_seg%d_slot%d", p, h)) }
	var php []kb.Expr
	for p := 0; p < 6; p++ {
		row := make([]kb.Expr, 5)
		for h := 0; h < 5; h++ {
			row[h] = slot(p, h)
		}
		php = append(php, kb.Or(row...))
	}
	for h := 0; h < 5; h++ {
		for p1 := 0; p1 < 6; p1++ {
			for p2 := p1 + 1; p2 < 6; p2++ {
				php = append(php, kb.Or(kb.Not(slot(p1, h)), kb.Not(slot(p2, h))))
			}
		}
	}
	k.Rules = append(k.Rules, kb.Rule{
		Name: "cxl_capacity_matrix",
		Expr: kb.Or(kb.CtxAtom("cxl_pooling"), kb.And(php...)),
		Note: "without pooling, six resident memory segments must fit five local CXL slots",
	})
	return k
}

// BenchmarkWarmStartWhatIf measures the hardest UNSAT what-if (the Q3
// CXL query against stressCatalog) in a long-lived engine answering a
// scenario family. Every query starts from the search prior its base's
// compile-time probe left (saved phases, activities and learnt clauses),
// so B/op includes copying the probe's learnt clauses into each clone.
// The engine answers the feasible cxl_pooling=true member and one
// what-if off the clock (the service steady state the amortization story
// targets); iterations then measure the repeated what-if.
func BenchmarkWarmStartWhatIf(b *testing.B) {
	on := netarch.Scenario{
		Workloads:  []string{"inference_app", "batch_analytics", "storage_backend"},
		NumServers: 64,
		Context:    map[string]bool{"pfc_enabled": true, "cxl_pooling": true},
	}
	off := on
	off.Context = map[string]bool{"pfc_enabled": true, "cxl_pooling": false}

	eng, err := netarch.NewEngine(stressCatalog())
	if err != nil {
		b.Fatal(err)
	}
	// Prime off the clock: the feasible family member, then one what-if
	// (the first-query compile and probe).
	rep, err := eng.Synthesize(on)
	if err != nil {
		b.Fatal(err)
	}
	if rep.Verdict != netarch.Feasible {
		b.Fatalf("cxl_pooling=true member must be feasible, got %v", rep.Verdict)
	}
	if _, err := eng.Synthesize(off); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Synthesize(off)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Verdict != netarch.Infeasible {
			b.Fatalf("what-if must be infeasible, got %v", rep.Verdict)
		}
	}
}

// deltaStressCatalog is the live-update benchmark catalog: the case study
// plus 100 "policy" rules, each a deep nested condition chain (depth 500)
// over free policy atoms, guarded so it can never make the KB infeasible
// (setting its guard atom false satisfies the rule). The 50k nested
// connectives make Tseitin conversion the bulk of the compile. rev
// selects the content of rule 0: two revs differ in exactly one
// assertion, so UpdateKB(deltaStressCatalog(rev')) is a one-assertion
// edit.
func deltaStressCatalog(rev int) *netarch.KB {
	k := catalog.CaseStudy()
	const rules, depth = 100, 500
	var deep func(r *rand.Rand, d int) kb.Expr
	deep = func(r *rand.Rand, d int) kb.Expr {
		leaf := func() kb.Expr {
			a := kb.CtxAtom(fmt.Sprintf("pol_x%d", r.Intn(64)+1))
			if r.Intn(2) == 0 {
				return kb.Not(a)
			}
			return a
		}
		if d == 0 {
			return leaf()
		}
		l, rest := leaf(), deep(r, d-1)
		if r.Intn(2) == 0 {
			return kb.And(l, rest)
		}
		return kb.Or(l, rest)
	}
	// Anchor rule: mentions every policy atom in fixed order, so editing
	// one rule's tree cannot shift the solver-variable index of any atom
	// another rule uses — exactly the stability an operator's catalog has
	// (its context vocabulary doesn't churn when one rule is edited).
	// Trivially satisfiable: any false atom (or a true anchor) satisfies
	// the implication.
	anchor := make([]kb.Expr, 0, 64+rules)
	for i := 1; i <= 64; i++ {
		anchor = append(anchor, kb.CtxAtom(fmt.Sprintf("pol_x%d", i)))
	}
	for i := 0; i < rules; i++ {
		anchor = append(anchor, kb.CtxAtom(fmt.Sprintf("pol_guard%d", i)))
	}
	k.Rules = append(k.Rules, kb.Rule{
		Name: "policy_vocab_anchor",
		Expr: kb.Implies(kb.And(anchor...), kb.CtxAtom("pol_anchor")),
		Note: "pins the policy atom vocabulary",
	})
	for i := 0; i < rules; i++ {
		seed := int64(7 + i)
		if i == 0 {
			seed = int64(7 + rules + rev) // rev only perturbs rule 0
		}
		r := rand.New(rand.NewSource(seed))
		k.Rules = append(k.Rules, kb.Rule{
			Name: fmt.Sprintf("policy_%d", i),
			Expr: kb.Or(kb.Not(kb.CtxAtom(fmt.Sprintf("pol_guard%d", i))), deep(r, depth)),
			Note: "synthetic deep policy rule",
		})
	}
	return k
}

// BenchmarkDeltaRecompile measures a live catalog edit against the
// deep-rule catalog: a one-assertion edit applied through UpdateKB
// (DESIGN.md §14) vs compiling the same base from scratch. Both arms
// alternate the same two revisions and produce one base per iteration,
// byte-identical between the arms (make differential pins that). update
// recompiles the warm base cold, so the rows differ by the update's own
// work: validating and diffing the two revisions, and the swap.
func BenchmarkDeltaRecompile(b *testing.B) {
	sc := netarch.Scenario{Workloads: []string{"inference_app"}}
	// Pre-build the two alternating revisions: constructing the catalog
	// is the operator's editor, not the compile or reload path.
	revs := [2]*netarch.KB{deltaStressCatalog(1), deltaStressCatalog(2)}

	b.Run("full", func(b *testing.B) {
		var engs [2]*netarch.Engine
		for i, k := range revs {
			eng, err := netarch.NewEngine(k)
			if err != nil {
				b.Fatal(err)
			}
			// Cache nothing, so every Prewarm compiles the base cold.
			eng.SetCacheCapacity(0)
			engs[i] = eng
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := engs[i%2]
			if err := eng.Prewarm(sc); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("update", func(b *testing.B) {
		eng, err := netarch.NewEngine(deltaStressCatalog(0))
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Prewarm(sc); err != nil { // warm the base
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate revisions so every iteration is a real one-rule
			// edit that recompiles the warm base.
			up, err := eng.UpdateKB(revs[i%2])
			if err != nil {
				b.Fatal(err)
			}
			if up.BasesUpdated != 1 {
				b.Fatalf("base not revalidated: %+v", up)
			}
		}
	})
}

// BenchmarkKBLoad decodes and validates the §5.1 case-study KB (the
// catalog plus the batch-analytics and storage workloads, as kb.Save
// writes it): the KB decode every one-shot CLI answer and every serve
// reload pays before it compiles.
func BenchmarkKBLoad(b *testing.B) {
	k := catalog.CaseStudy()
	k.Workloads = append(k.Workloads, catalog.BatchAnalyticsWorkload(), catalog.StorageWorkload())
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kb.Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
