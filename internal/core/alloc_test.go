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
// is small and stable: 65 allocs/run on the mini KB, down from 132 when
// every watch list was its own slice and the first watch move onto each
// list reallocated it. The budget has ~1.2x headroom; blowing past it
// means a structural regression (per-clause or per-list heap objects
// creeping back, clone losing its slab packing, per-query encode work
// on the warm path) that BenchmarkQuery1 would only surface at the next
// manual bench run.
func TestWarmQueryAllocBudget(t *testing.T) {
	const budget = 78

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
// compile of the §5.1 inference_app base (formula build, simplification,
// sharded CNF conversion, arithmetic circuits and the compile-time
// probe). Keying Simplify's dedup and the Tseitin cache by rendered
// strings cost ~86k allocations per compile; with structural hashes it
// measured 37,341, with the watch lists in one watcher slab instead of a
// slice per literal 24,496, with the arithmetic gates folding constant
// inputs and emitting their clauses through the builder's scratch
// buffer, 9,313, and with the gates emitting straight into the solver
// and each shard converter numbering its auxiliary variables from its
// CNF instead of a closure, 9,012. The allocation budget has ~11%
// headroom, so string keys, a per-node, per-list or per-gate allocation,
// or the constant-input gates creeping back into the compile path fails
// the gate. The compile allocated 2,247,522 B while the first
// arithmetic-circuit NewVar doubled every per-variable slice and the
// probe's learnt clauses regrew the exactly full watcher slab and
// arena; with Bulk sizing all three once, the probe's room included, it
// measured 1,703,696 B (8,994 allocs). With no shard hashing, the merge
// renaming shard clauses in place instead of copying them into a fresh
// slab, Simplify's wide-node tables on the stack and the Tseitin
// converter keeping its n-ary clauses without a second copy, it
// measured 1,490,680 B (8,271 allocs; 1,549,600 B and 8,801 allocs
// under the race detector). Converting every assertion into one shared
// CNF, with no per-assertion buffers to merge, it measured 1,455,430 B
// (7,574 allocs). The allocation budget has ~21% headroom and the byte
// budget ~10%, so storage that is sized or copied twice again fails the
// gate.
func TestCompileAllocBudget(t *testing.T) {
	const budget, byteBudget = 9200, 1_600_000

	e := mustEngine(t, caseStudyKB())
	sc := section51Scenarios()["inference_app"]
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
	t.Logf("inference_app base compile: %.0f allocs/run, %d B/run", allocs, perRun)
	if allocs > budget {
		t.Errorf("inference_app base compile: %.0f allocs/run; budget is %d", allocs, budget)
	}
	if perRun > byteBudget {
		t.Errorf("inference_app base compile: %d B/run; budget is %d", perRun, byteBudget)
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
// query shape the serve_warm benchmark sends: the inference_app and
// q1-grown syntheses, the Q3 synthesis without pooling and the PFC +
// flooding explanation. The inline Clone of the cached base is most of
// those bytes. Before Clone gave the arena and the watcher slab headroom,
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
// and 256 KB. The budgets have ~15% headroom. The test also checks that
// specialize adds its selector clauses inside the arena and watcher-slab
// headroom Clone leaves, and that the optimize_warm classes' searches
// stay inside the watcher-slab headroom (it logs whether they regrow the
// arena).
func TestCloneAllocBudget(t *testing.T) {
	scs := section51Scenarios()
	pfc := Scenario{
		Workloads: []string{"inference_app"},
		Context:   map[string]bool{"pfc_enabled": true, "flooding_enabled": true, "deadline_tight": true},
	}
	budgets := []struct {
		name   string
		sc     Scenario
		budget uint64 // bytes per query
	}{
		{"inference_app", scs["inference_app"], 300_000},
		{"q1-grown", scs["q1-grown"], 321_000},
		{"q3-no-pooling", scs["q3-no-pooling"], 260_000},
		{"pfc-explain", pfc, 295_000},
	}
	e := mustEngine(t, caseStudyKB())
	for _, b := range budgets {
		sc := b.sc
		if _, err := e.Synthesize(sc); err != nil { // warm the base
			t.Fatal(err)
		}
		st := e.CacheStats()
		base, err := e.baseFor(e.revision(), &sc, false)
		if now := e.CacheStats(); err != nil || now.Hits != st.Hits+1 || now.Misses != st.Misses {
			t.Fatalf("%s: base not cached (err %v, stats %+v then %+v)", b.name, err, st, now)
		}
		s := base.solver.Clone()
		_, before := s.ArenaWords()
		_, slabBefore := s.WatchSlab()
		base.specialize(&sc, s)
		if used, after := s.ArenaWords(); after != before {
			t.Errorf("%s: specialize regrew the clone's arena from %d to %d words (%d used)",
				b.name, before, after, used)
		}
		if used, after := s.WatchSlab(); after != slabBefore {
			t.Errorf("%s: specialize regrew the clone's watcher slab from %d to %d watchers (%d used)",
				b.name, slabBefore, after, used)
		}

		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			if _, err := e.Synthesize(sc); err != nil {
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
		base, err := e.baseFor(e.revision(), &sc, false)
		if err != nil {
			t.Fatal(err)
		}
		s := base.solver.Clone()
		_, arenaRoom := s.ArenaWords()
		_, slabRoom := s.WatchSlab()
		c := base.specialize(&sc, s)
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
