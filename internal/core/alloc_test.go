package core

import (
	"context"
	"runtime"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
)

// section51Scenarios returns §5.1 query shapes over caseStudyKB: Q1's
// baseline (inference_app alone) and its grown fleet on the frozen
// baseline server, and Q3's memory-bound mix with CXL pooling off and
// on.
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
// compiled bases. Every compile, clone, propagation, snapshot and reload
// pays for what a base holds, so a base that grows is a
// warm-path regression even before any timing shows it — a base that
// gained the power and port objective circuits nearly doubled (49,575
// vars / 82,216 clauses for inference_app), and gates over constant
// inputs plus reified SKU-guarded equalities took inference_app from
// 1,443 vars / 10,034 clauses to 3,404 / 11,694. The budgets allow 2%
// above the counts measured when they were set.
func TestBaseSizeBudget(t *testing.T) {
	budgets := []struct {
		name          string
		vars, clauses int
	}{
		{"inference_app", 1443, 10034},
		{"q1-grown", 1567, 9262},
		{"q3-no-pooling", 1296, 9575},
	}
	e := mustEngine(t, caseStudyKB())
	scs := section51Scenarios()
	for _, b := range budgets {
		sc := scs[b.name]
		shape := baseShape(&sc)
		c, err := compile(e.revision().kb, &shape, nil)
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

// TestSearchEffortBudget pins the search effort of the §5.1 queries: the
// conflicts and decisions a fresh engine spends answering each one
// (Report.Spent, so the main decision and any explanation minimization,
// or every MaxSAT descent of a cost optimization); the base's compile-
// time probe is never charged to a query. The search is
// deterministic, so these counts repeat exactly run to run; a heuristic,
// restart or encoding change that makes the solver work harder shows
// here before any timing does. The budgets allow 2% above the counts
// measured when they were set, the last time when propagation began
// visiting a frozen base's shared binary implications before its watch
// lists (q1-baseline rose from 101 / 1,525, q3-with-cxl fell from 1,338
// decisions, overconstrained-explain rose from 894).
func TestSearchEffortBudget(t *testing.T) {
	k := caseStudyKB()
	scs := section51Scenarios()
	for _, s := range sec51Scenarios(t, mustEngine(t, k)) {
		switch s.name {
		case "q1-baseline", "q3-without-cxl", "q3-with-cxl", "overconstrained-explain":
			scs[s.name] = s.sc
		}
	}
	budgets := []struct {
		name                 string
		optimize             bool // cost optimization instead of Synthesize
		conflicts, decisions int64
	}{
		{"inference_app", false, 0, 173},
		{"q1-grown", false, 0, 86},
		{"q3-no-pooling", false, 0, 66},
		{"q3-pooling", false, 0, 67},
		{"q1-baseline", true, 112, 1555},
		{"q3-without-cxl", true, 74, 1412},
		{"q3-with-cxl", true, 92, 1337},
		// Infeasible: the decision plus minimizing its explanation.
		{"overconstrained-explain", false, 0, 900},
	}
	for _, b := range budgets {
		e := mustEngine(t, k)
		var got BudgetSpent
		if b.optimize {
			res, err := e.Optimize(scs[b.name], []Objective{{Kind: MinimizeCost}})
			if err != nil {
				t.Fatal(err)
			}
			got = res.Spent
		} else {
			rep, err := e.Synthesize(scs[b.name])
			if err != nil {
				t.Fatal(err)
			}
			got = rep.Spent
		}
		t.Logf("%s: %d conflicts / %d decisions", b.name, got.Conflicts, got.Decisions)
		if got.Conflicts > b.conflicts*102/100 || got.Decisions > b.decisions*102/100 {
			t.Errorf("%s: %d conflicts / %d decisions; budget is %d / %d + 2%%",
				b.name, got.Conflicts, got.Decisions, b.conflicts, b.decisions)
		}
	}
}

// TestWarmQueryAllocBudget pins the allocation budget of a warm
// cache-hit query. A warm Synthesize clones the compiled base (a
// handful of flat slab copies, not one allocation per clause or per
// watch list) and re-solves under assumptions, so its allocation count
// is small and stable: 62 allocs/run on the mini KB, down from 132 when
// every watch list was its own slice and the first watch move onto each
// list reallocated it, and from 65 before the clone was laid out once
// with its selectors. The budget has ~1.2x headroom; blowing past it
// means a structural regression (per-clause or per-list heap objects
// creeping back, clone losing its slab packing, per-query encode work
// on the warm path) that BenchmarkQuery1 would only surface at the next
// manual bench run.
func TestWarmQueryAllocBudget(t *testing.T) {
	const budget = 72

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
	t.Logf("warm cache-hit Synthesize: %.0f allocs/run", allocs)
	if allocs > budget {
		t.Fatalf("warm cache-hit Synthesize allocated %.0f allocs/run; budget is %d", allocs, budget)
	}
}

// TestCompileAllocBudget pins the allocations and the bytes of one cold
// compile of the §5.1 inference_app base and of the q1-grown base, which
// has the longest at-most-one ladder and the largest probe (formula
// build, Tseitin conversion, arithmetic circuits and the compile-time
// probe). Keying the formula simplifier's dedup and the Tseitin cache by
// rendered strings cost ~86k allocations per inference_app compile; with
// structural hashes it measured 37,341, with the watch lists in one
// watcher slab instead of a slice per literal 24,496, with the
// arithmetic gates folding constant inputs and emitting their clauses
// through the builder's scratch buffer, 9,313, and with the gates
// emitting straight into the solver and each shard converter numbering
// its auxiliary variables from its CNF instead of a closure, 9,012. The
// compile allocated 2,247,522 B while the first arithmetic-circuit
// NewVar doubled every per-variable slice and the probe's learnt clauses
// regrew the exactly full watcher slab and arena; with Bulk sizing all
// three once, the probe's room included, it measured 1,703,696 B (8,994
// allocs). With no shard hashing, the merge renaming shard clauses in
// place instead of copying them into a fresh slab, the simplifier's
// wide-node tables on the stack and the Tseitin converter keeping its
// n-ary clauses without a second copy, it measured 1,490,680 B (8,271
// allocs), and converting every assertion into one shared CNF,
// 1,474,302 B (8,480 allocs; q1-grown 1,437,396 B, 8,124 allocs).
// Writing the constraints that already are clauses (the ladder, the
// capability definitions, the guarded units, binaries and disjunctions,
// the one-literal system requirements) straight into one clause stream
// that Bulk lays out without a copy, converting only the rest, sizing
// the vocabulary, the selectors and each kind's candidate list once, and
// indexing in the vocabulary only the names something looks up, it
// measured 842,016 B and 2,087 allocs (q1-grown 843,276 B, 2,081
// allocs). Converting without the simplifier, the structural hash and
// the Tseitin cache, which rewrote nothing the compile converts, it
// measures 829,190 B and 2,013 allocs (q1-grown 831,214 B, 2,007 allocs;
// 843,235 B and 2,094 allocs under the race detector). The allocation
// budgets have ~21% headroom and the byte budgets ~10%, so a formula
// built for a constraint that is a clause, or storage that is sized or
// copied twice, fails the gate.
func TestCompileAllocBudget(t *testing.T) {
	budgets := []struct {
		name          string
		allocs, bytes uint64
	}{
		{"inference_app", 2440, 915_000},
		{"q1-grown", 2440, 915_000},
	}
	e := mustEngine(t, caseStudyKB())
	scs := section51Scenarios()
	for _, b := range budgets {
		sc := scs[b.name]
		shape := baseShape(&sc)
		run := func() {
			if _, err := compile(e.revision().kb, &shape, nil); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, run)
		const runs = 5
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		perRun := (m1.TotalAlloc - m0.TotalAlloc) / runs
		t.Logf("%s base compile: %.0f allocs/run, %d B/run", b.name, allocs, perRun)
		if allocs > float64(b.allocs) {
			t.Errorf("%s base compile: %.0f allocs/run; budget is %d", b.name, allocs, b.allocs)
		}
		if perRun > b.bytes {
			t.Errorf("%s base compile: %d B/run; budget is %d", b.name, perRun, b.bytes)
		}
	}
}

// TestProbeFitsRoom checks the compile's storage lifecycle on every
// §5.1 base shape and on the sliced inference_app base of a 50k-SKU
// catalog. Bulk sizes the base's storage once, with a fixed room for the
// compile-time probe's learnt clauses: the probe must fit in that room,
// regrowing neither the clause arena nor the watcher slab. ResetRun then
// clips the room away: the frozen base keeps no spare capacity in the
// arena, the watcher slab or the per-variable slices, so a cached base
// retains only what it holds and a Clone copies nothing it does not
// need. The log lists what each probe added.
func TestProbeFitsRoom(t *testing.T) {
	type shape struct {
		name string
		k    *kb.KB // the slice's sub-KB for a sliced base
		sc   Scenario
	}
	e := mustEngine(t, caseStudyKB())
	var shapes []shape
	seen := map[string]bool{}
	add := func(name string, sc Scenario) {
		bs := baseShape(&sc)
		if fp := bs.fingerprint(); !seen[fp] {
			seen[fp] = true
			shapes = append(shapes, shape{name, e.revision().kb, bs})
		}
	}
	scs := section51Scenarios()
	for _, name := range []string{"inference_app", "q1-grown", "q3-no-pooling", "q3-pooling"} {
		add(name, scs[name])
	}
	for _, s := range sec51Scenarios(t, e) {
		add(s.name, s.sc)
	}
	big := catalog.ScaledCatalog(50000)
	bigSc := Scenario{Workloads: []string{"inference_app"}}
	shapes = append(shapes, shape{"50k-sliced", mustSlice(t, big, bigSc).sub, baseShape(&bigSc)})

	for _, sh := range shapes {
		c, err := compileUnprobed(sh.k, &sh.sc)
		if err != nil {
			t.Fatal(err)
		}
		s := c.solver
		arenaUsed, arenaCap := s.ArenaWords()
		slabUsed, slabCap := s.WatchSlab()
		s.SolveAssuming(c.assumptions())
		arenaProbed, arenaAfter := s.ArenaWords()
		slabProbed, slabAfter := s.WatchSlab()
		t.Logf("%s: the probe added %d arena words and %d watchers (%d learnt clauses)",
			sh.name, arenaProbed-arenaUsed, slabProbed-slabUsed, s.NumLearnts())
		if arenaAfter != arenaCap {
			t.Errorf("%s: the probe regrew the arena from %d to %d words (%d used)", sh.name, arenaCap, arenaAfter, arenaProbed)
		}
		if slabAfter != slabCap {
			t.Errorf("%s: the probe regrew the watcher slab from %d to %d watchers (%d used)", sh.name, slabCap, slabAfter, slabProbed)
		}

		s.ResetRun()
		if used, capacity := s.ArenaWords(); used != capacity {
			t.Errorf("%s: the frozen arena holds %d words in a capacity of %d", sh.name, used, capacity)
		}
		if used, capacity := s.WatchSlab(); used != capacity {
			t.Errorf("%s: the frozen watcher slab holds %d watchers in a capacity of %d", sh.name, used, capacity)
		}
		if n, capacity := s.NumVars(), s.VarCapacity(); n != capacity {
			t.Errorf("%s: the frozen per-variable slices hold %d variables in a capacity of %d", sh.name, n, capacity)
		}
	}
}

// TestOptimizeAllocBudget pins the allocations of a warm §5.1 cost
// optimization: the clone of the cached base, the feasibility solve and
// the whole MaxSAT descent. The descent fixes the cost sum's own output
// bits, so it builds no comparator; building one per probe cost 4,659
// (q3-without-cxl) and 4,829 (q1-baseline) allocs per query, against
// 974 and 1,661 measured without. Most of those were watch lists
// reallocated as watchers moved onto them; with every list in one
// watcher slab both queries measured 199. The budgets have ~20%
// headroom, so per-probe circuit building or per-list allocations
// coming back fail the gate.
func TestOptimizeAllocBudget(t *testing.T) {
	budgets := []struct {
		name   string
		budget float64
	}{
		{"q3-without-cxl", 240},
		{"q1-baseline", 240},
	}
	e := mustEngine(t, caseStudyKB())
	scs := map[string]Scenario{}
	for _, s := range sec51Scenarios(t, e) {
		scs[s.name] = s.sc
	}
	cost := []Objective{{Kind: MinimizeCost}}
	for _, b := range budgets {
		sc := scs[b.name]
		if _, err := e.Optimize(sc, cost); err != nil { // warm the base
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			res, err := e.Optimize(sc, cost)
			if err != nil {
				t.Fatal(err)
			}
			if res.Approximate {
				t.Fatal("warm optimize must certify its optimum")
			}
		})
		t.Logf("%s: %.0f allocs/run", b.name, allocs)
		if allocs > b.budget {
			t.Errorf("%s: warm cost optimize allocated %.0f allocs/run; budget is %.0f", b.name, allocs, b.budget)
		}
	}
}

// TestCloneAllocBudget pins the bytes a warm query allocates on each
// query class the serve_warm benchmark sends: the inference_app and
// q1-grown syntheses, the Q3 what-if (a synthesis without pooling and
// one with), the PFC + flooding explanation and the check of the
// inference_app witness. The Clone of the cached base is most of those
// bytes. Before Clone gave the arena and the watcher slab headroom,
// specialize's first AddClause copied the whole arena again and the
// explanation's searches regrew the watch lists, so these queries
// allocated 1.24–1.34 MB (910 KB for inference_app); with the headroom
// they measured 868, 843, 840 and 874 KB, on bases whose arithmetic
// gates fold constant inputs 649, 617, 608 and 645 KB, with binary
// clauses kept only in the watch lists and one-word headers on original
// clauses (an inference_app arena of 8,195 words instead of 63,188) 399,
// 393, 364 and 395 KB, and with the frozen base's problem binaries in an
// implication table the clones share instead of copying (an
// inference_app clone slab of 50 KB instead of 184 KB) 260, 279, 225
// and 256 KB (254, 272, 218 and 256 KB later, with the what-if at 437
// KB and the check at 361 KB, its 57 selectors doubling the clone's
// per-variable slices). With each clone laid out once at its final
// size, with no learnt room for these query kinds, they measure 205,
// 224 and 164 KB, the what-if 329 KB, the explanation 209 KB and the
// check 189 KB. The budgets have ~15% headroom.
//
// The test also checks that each class's clone is laid out once for its
// query: specialize's variables and clauses land in storage sized for
// them, so the per-variable slices and the arena hold no spare capacity
// a regrowth would have left (these kinds get no learnt room), and the
// watcher slab holds only the room sat.MoveRoom gives. And it checks that the optimize_warm classes' searches
// stay inside the watcher-slab room their clones get (it logs whether
// they regrow the arena).
func TestCloneAllocBudget(t *testing.T) {
	scs := section51Scenarios()
	pfc := Scenario{
		Workloads: []string{"inference_app"},
		Context:   map[string]bool{"pfc_enabled": true, "flooding_enabled": true, "deadline_tight": true},
	}
	e := mustEngine(t, caseStudyKB())
	witness, err := e.Synthesize(scs["inference_app"])
	if err != nil || witness.Design == nil {
		t.Fatalf("inference_app witness: %v", err)
	}
	synth := func(sc Scenario) func() error {
		return func() error { _, err := e.Synthesize(sc); return err }
	}
	type instance struct {
		query string
		sc    Scenario
		bind  func(*kb.KB, *Scenario) error
	}
	budgets := []struct {
		name      string
		instances []instance // the clones one query makes
		run       func() error
		budget    uint64 // bytes per query
	}{
		{"inference_app", []instance{{"synthesize", scs["inference_app"], nil}},
			synth(scs["inference_app"]), 235_000},
		{"q1-grown", []instance{{"synthesize", scs["q1-grown"], nil}},
			synth(scs["q1-grown"]), 258_000},
		{"q3-no-pooling", []instance{{"synthesize", scs["q3-no-pooling"], nil}},
			synth(scs["q3-no-pooling"]), 189_000},
		{"whatif-q3-pooling", []instance{{"synthesize", scs["q3-no-pooling"], nil}, {"synthesize", scs["q3-pooling"], nil}},
			func() error {
				if _, err := e.Synthesize(scs["q3-no-pooling"]); err != nil {
					return err
				}
				_, err := e.Synthesize(scs["q3-pooling"])
				return err
			}, 379_000},
		{"pfc-explain", []instance{{"explain", pfc, nil}},
			func() error { _, err := e.Explain(pfc); return err }, 240_000},
		{"check-witness", []instance{{"check", scs["inference_app"], witness.Design.pin}},
			func() error { _, err := e.Check(*witness.Design, scs["inference_app"]); return err }, 217_000},
	}
	for _, b := range budgets {
		if err := b.run(); err != nil { // warm the bases
			t.Fatal(err)
		}
		for _, in := range b.instances {
			sc := in.sc
			rev := e.revision()
			if in.bind != nil {
				if err := in.bind(rev.kb, &sc); err != nil {
					t.Fatal(err)
				}
			}
			st := e.CacheStats()
			base, err := e.baseFor(rev, &sc, false)
			if now := e.CacheStats(); err != nil || now.Hits != st.Hits+1 || now.Misses != st.Misses {
				t.Fatalf("%s: base not cached (err %v, stats %+v then %+v)", b.name, err, st, now)
			}
			c, err := e.instance(rev, in.query, &sc)
			if err != nil {
				t.Fatal(err)
			}
			s := c.solver
			if n, capacity := s.NumVars(), s.VarCapacity(); capacity != n {
				t.Errorf("%s: the clone's per-variable slices hold %d variables in a capacity of %d", b.name, n, capacity)
			}
			if used, capacity := s.ArenaWords(); capacity != used {
				t.Errorf("%s: the clone's arena holds %d words in a capacity of %d", b.name, used, capacity)
			}
			// sat.MoveRoom: a quarter of the base's slab plus 256 watchers
			// for the lists the search moves.
			baseSlab, _ := base.solver.WatchSlab()
			if used, capacity := s.WatchSlab(); capacity-used != baseSlab/4+256 {
				t.Errorf("%s: the clone's watcher slab holds %d watchers in a capacity of %d, want %d spare",
					b.name, used, capacity, baseSlab/4+256)
			}
		}

		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			if err := b.run(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		perOp := (m1.TotalAlloc - m0.TotalAlloc) / runs
		t.Logf("%s: %d B/query (%d allocs)", b.name, perOp, (m1.Mallocs-m0.Mallocs)/runs)
		if perOp > b.budget {
			t.Errorf("%s: warm query allocated %d B; budget is %d", b.name, perOp, b.budget)
		}
	}

	// The optimize_warm classes search far more than a synthesis; their
	// searches must not outgrow the clone's watcher-slab headroom either.
	// Whether they regrow the arena is logged.
	named := map[string]Scenario{}
	for _, s := range sec51Scenarios(t, e) {
		named[s.name] = s.sc
	}
	listing3 := Scenario{
		Workloads: []string{"inference_app"},
		Context:   map[string]bool{"app_modifiable": true},
		Bounds:    []PerformanceBound{{Dimension: "load_balancing", Reference: "packet-spraying"}},
	}
	for _, o := range []struct {
		name       string
		sc         Scenario
		objectives []string
	}{
		{"q3_nopool", named["q3-without-cxl"], []string{"cost"}},
		{"q3_pool", named["q3-with-cxl"], []string{"cost"}},
		{"listing3", listing3, []string{"latency", "cost", "order:monitoring"}},
		{"q2_replan", named["q2-replan-free"], []string{"cost"}},
		{"q1_baseline", named["q1-baseline"], []string{"cost"}},
		{"q2_keep_sonata", named["q2-keep-sonata"], []string{"cost"}},
	} {
		var objs []Objective
		for _, name := range o.objectives {
			obj, err := ParseObjective(name)
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, obj)
		}
		sc := o.sc
		if _, err := e.Optimize(sc, objs); err != nil { // warm the base
			t.Fatal(err)
		}
		c, err := e.instance(e.revision(), "optimize", &sc)
		if err != nil {
			t.Fatal(err)
		}
		s := c.solver
		_, arenaRoom := s.ArenaWords()
		_, slabRoom := s.WatchSlab()
		g := govern(context.Background(), "optimize", Budget{})
		g.adopt(c.solver)
		_, err = e.optimize(c, g, objs)
		g.done()
		if err != nil {
			t.Fatal(err)
		}
		arenaUsed, arenaCap := s.ArenaWords()
		slabUsed, slabCap := s.WatchSlab()
		t.Logf("%s: arena %d of %d words (regrown %v), watcher slab %d of %d",
			o.name, arenaUsed, arenaRoom, arenaCap != arenaRoom, slabUsed, slabRoom)
		if slabCap != slabRoom {
			t.Errorf("%s: the optimization regrew the clone's watcher slab from %d to %d watchers (%d used)",
				o.name, slabRoom, slabCap, slabUsed)
		}
	}
}
