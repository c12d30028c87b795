package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
	"netarch/internal/sat"
)

// TestDifferential is the answer-invariance harness (make differential):
// an answer must not depend on how it was computed. Every row of a
// catalog's query table is answered by a reference engine — no
// slicing, no base cache — and by each configuration. The identical
// family (cache miss and hit, query history, disk revival, delta
// update) must render byte for byte what the
// reference renders, search effort included. The sliced family must be
// equivalent under the slicing contracts of DESIGN.md §16 (see
// compareSliced). Every configuration also asserts it engaged, so
// agreement is never trivial.
//
// The seed tier is split into gates, one concern each, so no row is
// answered twice under one configuration: TestDifferential/seed runs
// the case study under history, delta update and the sliced family;
// the gates below it run the rest.
func TestDifferential(t *testing.T) {
	// The tiers run side by side: the scale tier's unsliced reference
	// Pareto query is one long single-threaded solve.
	t.Run("seed", func(t *testing.T) {
		t.Parallel()
		runDifferential(t, caseStudyCatalog, seedConfigs("history", "delta", "sliced", "sliced-delta"))
	})
	// The 5k-SKU sweep: too slow under the race detector, which make
	// race skips it for.
	t.Run("scale", func(t *testing.T) {
		t.Parallel()
		c := diffCatalog{kb: func() *kb.KB { return catalog.ScaledCatalog(5000) }, rows: scaleRows}
		runDifferential(t, c, scaleConfigs())
	})
}

// TestCacheDifferential: a cold cache miss and a warm cache hit answer
// every §5.1 row as the uncached reference does.
func TestCacheDifferential(t *testing.T) {
	runDifferential(t, caseStudyCatalog, seedConfigs("cache-miss", "cache-hit"))
}

// TestDiskCacheDifferential: an engine reviving every §5.1 base from a
// cache directory answers as the uncached reference does.
func TestDiskCacheDifferential(t *testing.T) {
	runDifferential(t, caseStudyCatalog, seedConfigs("disk"))
}

// TestOptimizeDifferential: diffKB's lexicographic optima equal the
// brute-force oracle's, certified, under every identical configuration.
func TestOptimizeDifferential(t *testing.T) {
	runDifferential(t, diffKBCatalog("optimize"), seedConfigs(identical...))
}

// TestParetoDifferential: diffKB's Pareto frontiers equal the
// brute-force oracle's under every identical configuration.
func TestParetoDifferential(t *testing.T) {
	runDifferential(t, diffKBCatalog("pareto"), seedConfigs(identical...))
}

// TestEnumerateCacheOffMatchesCacheOn: miniKB's enumeration answers on
// every cache path as the uncached reference does.
func TestEnumerateCacheOffMatchesCacheOn(t *testing.T) {
	runDifferential(t, miniKBCatalog, seedConfigs("cache-miss", "cache-hit", "history", "disk", "delta"))
}

// identical is the identical family of the seed tier.
var identical = []string{"cache-miss", "cache-hit", "history", "disk", "delta"}

var (
	caseStudyCatalog = diffCatalog{kb: caseStudyKB, rows: caseStudyRows}
	miniKBCatalog    = diffCatalog{kb: miniKB, rows: miniKBRows}
)

// diffKBCatalog is diffKB's oracle rows of one kind.
func diffKBCatalog(kind string) diffCatalog {
	return diffCatalog{kb: diffKB, oracle: true, rows: func(t *testing.T, tab *Engine) []diffRow {
		return slices.DeleteFunc(diffKBRows(t, tab), func(r diffRow) bool { return r.kind != kind })
	}}
}

// diffRow is one query of a differential table.
type diffRow struct {
	name   string
	kind   string // synthesize, explain, check, optimize, pareto or enumerate
	sc     Scenario
	objs   []Objective // optimize and pareto
	max    int         // enumerate
	design Design      // check: the reference engine's witness
}

// diffAnswer is one engine's answer to one row: the result for the
// sliced contracts and its rendering for byte identity.
type diffAnswer struct {
	res  any
	err  error
	text string
}

// diffCatalog is one knowledge base and its query table. rows may ask
// tab, a sequential unsliced engine, for the witnesses and optima the
// table builds on.
type diffCatalog struct {
	kb     func() *kb.KB
	rows   func(t *testing.T, tab *Engine) []diffRow
	oracle bool // optimize and pareto rows must equal the brute-force oracle
}

// diffConfig is one way of computing the answers. It is compared with
// the reference, or with the configuration named by against; equiv
// selects the sliced contracts instead of byte identity.
type diffConfig struct {
	name    string
	against string
	equiv   bool
	run     func(t *testing.T, c diffCatalog, rows []diffRow) []diffAnswer
}

// oracleLimit bounds the brute-force oracle's model enumeration.
const oracleLimit = 200000

// answer runs one row on e.
func answer(e *Engine, r diffRow) diffAnswer {
	var res any
	var err error
	switch r.kind {
	case "synthesize":
		res, err = e.Synthesize(r.sc)
	case "explain":
		res, err = e.Explain(r.sc)
	case "check":
		res, err = e.Check(r.design, r.sc)
	case "optimize":
		res, err = e.Optimize(r.sc, r.objs)
	case "pareto":
		res, err = e.Pareto(r.sc, r.objs)
	case "enumerate":
		res, err = e.EnumerateCtx(context.Background(), r.sc, r.max, Budget{})
	default:
		err = fmt.Errorf("unknown row kind %q", r.kind)
	}
	if err != nil {
		return diffAnswer{err: err, text: "error: " + err.Error()}
	}
	return diffAnswer{res: res, text: renderAnswer(res)}
}

// renderAnswer serializes everything semantically meaningful in a
// result, search effort included, dropping only wall time.
func renderAnswer(res any) string {
	switch r := res.(type) {
	case *Report:
		r.Spent.Wall = 0
	case *OptimizeResult:
		r.Spent.Wall = 0
	case *EnumerateResult:
		r.Spent.Wall = 0
		if r.Exhausted != nil {
			r.Exhausted.Spent.Wall = 0
		}
	case *ParetoResult:
		r.Spent.Wall = 0
		if r.Exhausted != nil {
			r.Exhausted.Spent.Wall = 0
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "render: " + err.Error()
	}
	return string(b)
}

func answerAll(e *Engine, rows []diffRow) []diffAnswer {
	out := make([]diffAnswer, len(rows))
	for i, r := range rows {
		out[i] = answer(e, r)
	}
	return out
}

func diffEngine(t *testing.T, k *kb.KB, mode SliceMode) *Engine {
	t.Helper()
	e := mustEngine(t, k)
	e.SetSliceMode(mode)
	return e
}

func runDifferential(t *testing.T, c diffCatalog, configs []diffConfig) {
	rows := c.rows(t, diffEngine(t, c.kb(), SliceOff))
	ref := diffEngine(t, c.kb(), SliceOff)
	ref.SetCacheCapacity(0)
	// The reference answers beside the configurations: they share nothing.
	refDone := make(chan []diffAnswer, 1)
	go func() { refDone <- answerAll(ref, rows) }()
	answers := map[string][]diffAnswer{}
	for _, cfg := range configs {
		answers[cfg.name] = cfg.run(t, c, rows)
	}
	answers[""] = <-refDone
	for i, r := range rows {
		if want := answers[""][i]; want.err != nil {
			t.Fatalf("%s: reference: %v", r.name, want.err)
		}
	}
	if c.oracle {
		checkOracle(t, ref, rows, answers[""])
	}
	// Each scenario's rows are compared in a subtest of its own.
	var scenarios []string
	group := map[string][]int{}
	for i, r := range rows {
		s, _, _ := strings.Cut(r.name, "/")
		if group[s] == nil {
			scenarios = append(scenarios, s)
		}
		group[s] = append(group[s], i)
	}
	chk := &refChecker{ref: ref, memo: map[string]bool{}}
	for _, s := range scenarios {
		t.Run(s, func(t *testing.T) {
			for _, cfg := range configs {
				for _, i := range group[s] {
					r, want, got := rows[i], answers[cfg.against][i], answers[cfg.name][i]
					if cfg.equiv {
						chk.compareSliced(t, cfg.name+"/"+r.name, r, want, got)
					} else if got.text != want.text {
						t.Errorf("%s/%s diverges from %q:\n got %s\nwant %s",
							cfg.name, r.name, cfg.against, got.text, want.text)
					}
				}
			}
		})
	}
}

// seedConfigs returns the named configurations of the seed tier in list
// order: cache-hit reuses cache-miss's engines, and sliced-delta is
// compared with sliced.
func seedConfigs(names ...string) []diffConfig {
	var fresh []*Engine // one per row: the cache-miss run compiles, the cache-hit run reuses
	configs := []diffConfig{
		{name: "cache-miss", run: func(t *testing.T, c diffCatalog, rows []diffRow) []diffAnswer {
			fresh = make([]*Engine, len(rows))
			for i := range rows {
				fresh[i] = diffEngine(t, c.kb(), SliceOff)
			}
			return eachFresh(t, fresh, rows, func(st CacheStats) bool { return st.Misses > 0 && st.Hits == 0 })
		}},
		{name: "cache-hit", run: func(t *testing.T, c diffCatalog, rows []diffRow) []diffAnswer {
			return eachFresh(t, fresh, rows, func(st CacheStats) bool { return st.Hits > 0 && st.Size > 0 && st.Size <= st.Capacity })
		}},
		{name: "history", run: func(t *testing.T, c diffCatalog, rows []diffRow) []diffAnswer {
			e := diffEngine(t, c.kb(), SliceOff)
			answerAll(e, rows)
			got := answerAll(e, rows)
			if st := e.CacheStats(); st.Hits == 0 {
				t.Errorf("history: no query hit a cached base: %+v", st)
			}
			return got
		}},
		{name: "disk", run: func(t *testing.T, c diffCatalog, rows []diffRow) []diffAnswer {
			dir := t.TempDir()
			writer := diffEngine(t, c.kb(), SliceOff)
			if err := writer.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			answerAll(writer, rows)
			writer.FlushDiskCache()
			reader := diffEngine(t, c.kb(), SliceOff)
			if err := reader.SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			got := answerAll(reader, rows)
			if st := reader.CacheStats(); st.Misses != 0 || st.DiskHits == 0 || st.DiskCorrupt != 0 {
				t.Errorf("disk: every base must revive from disk: %+v", st)
			}
			return got
		}},
		{name: "delta", run: func(t *testing.T, c diffCatalog, rows []diffRow) []diffAnswer {
			return deltaUpdated(t, c, rows, SliceOff)
		}},
		{name: "sliced", equiv: true, run: func(t *testing.T, c diffCatalog, rows []diffRow) []diffAnswer {
			e := diffEngine(t, c.kb(), SliceOn)
			got := answerAll(e, rows)
			if st := e.CacheStats(); st.SliceComputed == 0 {
				t.Errorf("sliced: no slice computed: %+v", st)
			}
			return got
		}},
		{name: "sliced-delta", against: "sliced", run: func(t *testing.T, c diffCatalog, rows []diffRow) []diffAnswer {
			return deltaUpdated(t, c, rows, SliceOn)
		}},
	}
	configs = slices.DeleteFunc(configs, func(c diffConfig) bool { return !slices.Contains(names, c.name) })
	if len(configs) != len(names) {
		panic(fmt.Sprintf("seedConfigs: unknown configuration among %v", names))
	}
	return configs
}

// eachFresh answers row i on engines[i] and demands the counters show
// the cache path the configuration names.
func eachFresh(t *testing.T, engines []*Engine, rows []diffRow, engaged func(CacheStats) bool) []diffAnswer {
	out := make([]diffAnswer, len(rows))
	for i, r := range rows {
		out[i] = answer(engines[i], r)
		if st := engines[i].CacheStats(); !engaged(st) {
			t.Errorf("%s: cache counters %+v", r.name, st)
		}
	}
	return out
}

// deltaUpdated builds the engine over an edited KB — every workload
// also needs flow_telemetry, and one extra rule — prewarms every row's
// base, then updates it to the catalog's KB. The first query after the
// update must hit a revalidated base.
func deltaUpdated(t *testing.T, c diffCatalog, rows []diffRow, mode SliceMode) []diffAnswer {
	edited := c.kb()
	for i := range edited.Workloads {
		edited.Workloads[i].Needs = append(edited.Workloads[i].Needs, "flow_telemetry")
	}
	edited.Rules = append(edited.Rules, kb.Rule{
		Name: "delta_canary",
		Expr: kb.Implies(kb.CtxAtom("delta_canary"), kb.Not(kb.CtxAtom("pfc_enabled"))),
	})
	e := diffEngine(t, edited, mode)
	for _, r := range rows {
		if err := e.Prewarm(r.sc); err != nil {
			t.Fatal(err)
		}
	}
	up, err := e.UpdateKB(c.kb())
	if err != nil {
		t.Fatal(err)
	}
	before := e.CacheStats()
	got := []diffAnswer{answer(e, rows[0])}
	if after := e.CacheStats(); up.BasesUpdated == 0 || after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("delta (slice %v): the first query after UpdateKB (%s) did not hit a revalidated base: %v; %v → %v",
			mode, rows[0].name, up, before, after)
	}
	return append(got, answerAll(e, rows[1:])...)
}

// checkOracle demands every reference optimum and frontier equal the
// brute-force oracle's, certified, with witnesses that pass Check. The
// identical family renders what the reference renders, so the oracle
// binds every configuration of it.
func checkOracle(t *testing.T, ref *Engine, rows []diffRow, want []diffAnswer) {
	for i, r := range rows {
		if r.kind != "optimize" && r.kind != "pareto" {
			continue
		}
		o, err := ref.BruteOptimize(r.sc, r.objs, oracleLimit)
		if err != nil || !o.Feasible {
			t.Fatalf("%s: oracle: feasible=%v err=%v; oracle rows must be feasible", r.name, o != nil && o.Feasible, err)
		}
		var designs []*Design
		switch res := want[i].res.(type) {
		case *OptimizeResult:
			if res.Verdict != Feasible || res.Approximate ||
				!slices.Equal(res.ObjectiveValues, o.Values) || !slices.Equal(res.LowerBounds, res.ObjectiveValues) {
				t.Errorf("%s: optimum %v (bounds %v, approx %v), oracle argmin %v",
					r.name, res.ObjectiveValues, res.LowerBounds, res.Approximate, o.Values)
			}
			designs = append(designs, res.Design)
		case *ParetoResult:
			var got [][]int64
			for _, p := range res.Points {
				got = append(got, p.Values)
				designs = append(designs, p.Design)
			}
			if len(o.Frontier) < 2 {
				t.Errorf("%s: degenerate oracle frontier %v; pick a real trade-off", r.name, o.Frontier)
			}
			if !res.Complete || fmt.Sprint(got) != fmt.Sprint(o.Frontier) {
				t.Errorf("%s: frontier %v (complete %v), oracle %v", r.name, got, res.Complete, o.Frontier)
			}
		}
		for _, d := range designs {
			if chk, err := ref.Check(*d, r.sc); err != nil || chk.Verdict != Feasible {
				t.Errorf("%s: witness %v fails Check: %v", r.name, d, err)
			}
		}
	}
}

// refChecker holds the reference engine for the sliced contracts,
// memoizing its Check and core proofs: repeated configurations ask
// about the same designs and cores.
type refChecker struct {
	ref  *Engine
	memo map[string]bool
}

// compareSliced applies the slicing contracts: enumeration is refused;
// verdicts and optima are equal; frontiers are equal as value-vector
// sets; witnesses pass Check on the reference engine; explanations are
// equal or are re-proven as cores of the full encoding.
func (c *refChecker) compareSliced(t *testing.T, label string, r diffRow, want, got diffAnswer) {
	if r.kind == "enumerate" {
		if !errors.Is(got.err, ErrSlicedEnumeration) {
			t.Errorf("%s: sliced enumeration answered instead of refusing: %s", label, got.text)
		}
		return
	}
	if got.err != nil {
		t.Errorf("%s: %v", label, got.err)
		return
	}
	switch w := want.res.(type) {
	case *Report:
		g := got.res.(*Report)
		if g.Verdict != w.Verdict {
			t.Errorf("%s: verdict %v, reference %v", label, g.Verdict, w.Verdict)
		} else if g.Verdict == Feasible {
			c.accepts(t, label, r, g.Design)
		} else {
			c.sameCore(t, label, r, g.Explanation, w.Explanation)
		}
	case *Explanation:
		if g := got.res.(*Explanation); (g == nil) != (w == nil) {
			t.Errorf("%s: explanation %v, reference %v", label, g, w)
		} else if g != nil {
			c.sameCore(t, label, r, g, w)
		}
	case *OptimizeResult:
		g := got.res.(*OptimizeResult)
		if g.Verdict != w.Verdict || !slices.Equal(g.ObjectiveValues, w.ObjectiveValues) {
			t.Errorf("%s: optimum %v %v, reference %v %v", label, g.Verdict, g.ObjectiveValues, w.Verdict, w.ObjectiveValues)
		} else if g.Verdict == Feasible {
			c.accepts(t, label, r, g.Design)
		}
	case *ParetoResult:
		g := got.res.(*ParetoResult)
		vecs := func(p *ParetoResult) string {
			var out [][]int64
			for _, pt := range p.Points {
				out = append(out, pt.Values) // points are sorted by vector
			}
			return fmt.Sprint(out, p.Complete)
		}
		if vecs(g) != vecs(w) {
			t.Errorf("%s: frontier %s, reference %s", label, vecs(g), vecs(w))
		}
		for _, p := range g.Points[:min(3, len(g.Points))] {
			c.accepts(t, label, r, p.Design)
		}
	}
}

// accepts demands the reference engine Check d as Feasible for r's
// scenario.
func (c *refChecker) accepts(t *testing.T, label string, r diffRow, d *Design) {
	key := r.name + renderAnswer(d)
	if _, seen := c.memo[key]; !seen {
		rep, err := c.ref.Check(*d, r.sc)
		c.memo[key] = err == nil && rep.Verdict == Feasible
	}
	if !c.memo[key] {
		t.Errorf("%s: witness %v rejected by the reference engine", label, d)
	}
}

// sameCore accepts an explanation equal to the reference's, or one the
// full encoding proves is an unsatisfiable core: assume exactly its
// named selectors and demand Unsat.
func (c *refChecker) sameCore(t *testing.T, label string, r diffRow, got, want *Explanation) {
	gotN, wantN := conflictNames(got), conflictNames(want)
	if len(gotN) == 0 || len(wantN) == 0 {
		t.Errorf("%s: infeasible without explanation (%v, reference %v)", label, gotN, wantN)
		return
	}
	if slices.Equal(gotN, wantN) {
		return
	}
	key := fmt.Sprint(r.name, gotN)
	if _, seen := c.memo[key]; !seen {
		c.memo[key] = false
		if inst, err := c.ref.instance(&r.sc); err == nil {
			ok := true
			var assume []sat.Lit
			for _, name := range gotN {
				lit, found := inst.selectorLit(name)
				ok = ok && found
				assume = append(assume, lit)
			}
			c.memo[key] = ok && inst.solver.SolveAssuming(assume) == sat.Unsat
		}
	}
	if !c.memo[key] {
		t.Errorf("%s: core %v (reference %v) is not a core of the full encoding", label, gotN, wantN)
	}
}

func conflictNames(ex *Explanation) []string {
	if ex == nil {
		return nil
	}
	out := make([]string, len(ex.Conflicts))
	for i, ci := range ex.Conflicts {
		out[i] = ci.Name
	}
	sort.Strings(out)
	return out
}

// caseStudyKB is the §5.1 catalog: the case study plus the batch
// analytics and storage workloads of Q1 and Q3.
func caseStudyKB() *kb.KB {
	k := catalog.CaseStudy()
	k.Workloads = append(k.Workloads, catalog.BatchAnalyticsWorkload(), catalog.StorageWorkload())
	return k
}

type namedScenario struct {
	name string
	sc   Scenario
}

// sec51Scenarios is the §5.1 query table over caseStudyKB or a catalog
// grown from it, plus two infeasible queries. Q1's grown fleet freezes
// the server SKU at ref's cost optimum, as the experiment does.
func sec51Scenarios(t testing.TB, ref *Engine) []namedScenario {
	t.Helper()
	base, err := ref.Optimize(Scenario{Workloads: []string{"inference_app"}}, []Objective{{Kind: MinimizeCost}})
	if err != nil || base.Verdict != Feasible {
		t.Fatalf("Q1 baseline: %v %v", err, base)
	}
	all := []string{"inference_app", "batch_analytics", "storage_backend"}
	inference := []string{"inference_app"}
	monitoring := []kb.Property{"flow_telemetry", "detect_queue_length"}
	return []namedScenario{
		{"q1-baseline", Scenario{Workloads: inference}},
		{"q1-grown-frozen", Scenario{Workloads: all, NumServers: 128, Context: map[string]bool{"pfc_enabled": true},
			PinnedHardware: map[kb.HardwareKind]string{kb.KindServer: base.Design.Hardware[kb.KindServer]}}},
		{"q2-replan-free", Scenario{Workloads: inference, Require: monitoring}},
		{"q2-keep-sonata", Scenario{Workloads: inference, Require: monitoring, PinnedSystems: []string{"sonata"}}},
		{"q3-without-cxl", Scenario{Workloads: all, NumServers: 64, Context: map[string]bool{"pfc_enabled": true, "cxl_pooling": false}}},
		{"q3-with-cxl", Scenario{Workloads: all, NumServers: 64, Context: map[string]bool{"pfc_enabled": true, "cxl_pooling": true}}},
		{"overconstrained-explain", Scenario{Workloads: inference, Require: []kb.Property{"low_latency_stack"},
			Context: map[string]bool{"pfc_enabled": true, "flooding_enabled": true, "deadline_tight": true}}},
		{"overconstrained", Scenario{Workloads: inference, Require: []kb.Property{"flow_telemetry", "perpetual_motion"}}},
	}
}

// queryRows expands scenarios into rows of the given kinds. A check
// row checks tab's witness, so only feasible scenarios get one; only
// infeasible ones get an explain row.
func queryRows(t *testing.T, tab *Engine, scs []namedScenario, kinds ...string) []diffRow {
	var rows []diffRow
	for _, s := range scs {
		var witness *Design
		if slices.Contains(kinds, "check") || slices.Contains(kinds, "explain") {
			rep, err := tab.Synthesize(s.sc)
			if err != nil {
				t.Fatal(err)
			}
			witness = rep.Design
		}
		for _, kind := range kinds {
			r := diffRow{name: s.name + "/" + kind, kind: kind, sc: s.sc}
			switch kind {
			case "check":
				if witness == nil {
					continue
				}
				r.design = *witness
			case "explain":
				if witness != nil {
					continue
				}
			case "optimize":
				r.objs = []Objective{{Kind: MinimizeCost}}
			case "enumerate-3", "enumerate-12":
				r.kind, r.max = "enumerate", map[string]int{"enumerate-3": 3, "enumerate-12": 12}[kind]
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func caseStudyRows(t *testing.T, tab *Engine) []diffRow {
	scs := sec51Scenarios(t, tab)
	rows := queryRows(t, tab, scs, "synthesize", "explain", "check", "optimize", "enumerate-3", "enumerate-12")
	rows = append(rows, paretoRows(scs, "q3-with-cxl")...)

	// The complete-space row: inference_app on 64 servers with every
	// system outside three witness classes forbidden, so the space
	// enumerates to the end.
	sc := Scenario{Workloads: []string{"inference_app"}, NumServers: 64}
	seed, err := tab.EnumerateCtx(context.Background(), sc, 3, Budget{})
	if err != nil || len(seed.Designs) < 2 {
		t.Fatalf("complete-space seed: %v %v", err, seed)
	}
	for _, s := range tab.KB().Systems {
		if !slices.ContainsFunc(seed.Designs, func(d *Design) bool { return d.HasSystem(s.Name) }) {
			sc.ForbiddenSystems = append(sc.ForbiddenSystems, s.Name)
		}
	}
	complete := diffRow{name: "complete-space/enumerate", kind: "enumerate", sc: sc, max: 1000}
	if res := answer(tab, complete).res.(*EnumerateResult); res.Truncated || len(res.Designs) < 2 || len(sc.ForbiddenSystems) == 0 {
		t.Fatalf("complete-space row must enumerate ≥2 classes to the end: %d classes, truncated %v", len(res.Designs), res.Truncated)
	}
	return append(rows, complete)
}

// paretoRows are frontiers of the named scenarios: cost/power for Q1's
// baseline, cost/systems for Q3 with pooling.
func paretoRows(scs []namedScenario, names ...string) []diffRow {
	objs := map[string][]Objective{
		"q1-baseline": {{Kind: MinimizeCost}, {Kind: MinimizePower}},
		"q3-with-cxl": {{Kind: MinimizeCost}, {Kind: MinimizeSystems}},
	}
	var rows []diffRow
	for _, s := range scs {
		if slices.Contains(names, s.name) {
			rows = append(rows, diffRow{name: s.name + "/pareto", kind: "pareto", sc: s.sc, objs: objs[s.name]})
		}
	}
	return rows
}

// diffKB extends miniKB with power-draw and port-count quantities so
// the power and ports objectives have signal, deliberately arranged so
// the cheapest hardware is NOT the most power-frugal (cost/power trade
// off, giving the Pareto rows a multi-point frontier).
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

// diffKBRows are the oracle rows: lexicographic optima and Pareto
// frontiers the brute-force oracle must confirm.
func diffKBRows(*testing.T, *Engine) []diffRow {
	cc := Scenario{Require: []kb.Property{"congestion_control"}}
	dq := Scenario{Require: []kb.Property{"detect_queue_length"}}
	o := func(kinds ...ObjectiveKind) []Objective {
		out := make([]Objective, len(kinds))
		for i, k := range kinds {
			out[i] = Objective{Kind: k}
		}
		return out
	}
	return []diffRow{
		{name: "cost", kind: "optimize", objs: o(MinimizeCost)},
		{name: "power-then-cost", kind: "optimize", sc: cc, objs: o(MinimizePower, MinimizeCost)},
		{name: "systems-cost-ports", kind: "optimize", sc: dq, objs: o(MinimizeSystems, MinimizeCost, MinimizePorts)},
		{name: "order-then-power", kind: "optimize", sc: Scenario{Require: []kb.Property{"flow_telemetry"}},
			objs: []Objective{{Kind: PreferOrder, Dimension: "monitoring"}, {Kind: MinimizePower}}},
		{name: "cores-under-cost-cap", kind: "optimize",
			sc:   Scenario{Require: []kb.Property{"congestion_control"}, MaxCostUSD: 500000},
			objs: o(MinimizeCores, MinimizeCost)},
		{name: "pareto-cost-power", kind: "pareto", objs: o(MinimizeCost, MinimizePower)},
		{name: "pareto-cost-power-cc", kind: "pareto", sc: cc, objs: o(MinimizeCost, MinimizePower)},
		{name: "pareto-systems-power-mon", kind: "pareto", sc: dq, objs: o(MinimizeSystems, MinimizePower, MinimizeCost)},
	}
}

// miniKBRows enumerate miniKB's whole space below, at and above its
// class count: the capped, exact-fit and complete paths.
func miniKBRows(*testing.T, *Engine) []diffRow {
	var rows []diffRow
	for _, max := range []int{1, 2, 3, 100} {
		rows = append(rows, diffRow{name: fmt.Sprintf("enumerate-%d", max), kind: "enumerate", max: max})
	}
	return rows
}

// scaleRows is the §5.1 table on the 5k-SKU catalog plus seeded random
// scenarios, synthesized and checked; optima and frontiers ride Q1 and
// Q3.
func scaleRows(t *testing.T, tab *Engine) []diffRow {
	scs := sec51Scenarios(t, tab)
	rows := queryRows(t, tab, append(slices.Clone(scs), randomScenarios(tab.KB())...), "synthesize", "check")
	for _, s := range scs {
		if s.name != "q1-baseline" && s.name != "q1-grown-frozen" && s.name != "q3-with-cxl" {
			continue
		}
		for suite, objs := range map[string][]Objective{
			"cost":       {{Kind: MinimizeCost}},
			"power-cost": {{Kind: MinimizePower}, {Kind: MinimizeCost}},
			"systems":    {{Kind: MinimizeSystems}},
		} {
			rows = append(rows, diffRow{name: s.name + "/optimize-" + suite, kind: "optimize", sc: s.sc, objs: objs})
		}
	}
	return append(rows, paretoRows(scs, "q1-baseline", "q3-with-cxl")...)
}

// randomScenarios draws seeded scenarios: random workload subsets,
// requirements from the catalog's property vocabulary (every third
// scenario also demands the unprovidable), context bindings over the
// rule-mentioned atoms, and server counts.
func randomScenarios(k *kb.KB) []namedScenario {
	rng := rand.New(rand.NewSource(20240508))
	var props []kb.Property
	for i := range k.Systems {
		props = append(props, k.Systems[i].Solves...)
	}
	slices.Sort(props)
	props = slices.Compact(props)
	var ctxAtoms, workloads []string
	for _, r := range k.Rules {
		for _, a := range r.Expr.Atoms(nil) {
			if name, ok := atomCtx(a); ok {
				ctxAtoms = append(ctxAtoms, name)
			}
		}
	}
	ctxAtoms = sortedUnique(ctxAtoms)
	for i := range k.Workloads {
		workloads = append(workloads, k.Workloads[i].Name)
	}
	sort.Strings(workloads)

	var out []namedScenario
	for i := 0; i < 6; i++ {
		sc := Scenario{NumServers: []int{0, 16, 64, 128}[rng.Intn(4)]}
		perm := rng.Perm(len(workloads))
		for _, wi := range perm[:1+rng.Intn(2)] {
			sc.Workloads = append(sc.Workloads, workloads[wi])
		}
		sort.Strings(sc.Workloads)
		for _, p := range props {
			if rng.Intn(len(props)) == 0 {
				sc.Require = append(sc.Require, p)
			}
		}
		if i%3 == 2 {
			sc.Require = append(sc.Require, "perpetual_motion")
		}
		if rng.Intn(2) == 0 {
			sc.Context = map[string]bool{}
			for _, a := range ctxAtoms {
				if rng.Intn(3) == 0 {
					sc.Context[a] = rng.Intn(2) == 0
				}
			}
			if len(sc.Context) == 0 {
				sc.Context = nil
			}
		}
		out = append(out, namedScenario{fmt.Sprintf("rand-%d", i), sc})
	}
	return out
}

// scaleConfigs is the 5k-SKU sweep: the sliced engine cold, warm, and
// cold again after its cache is dropped.
func scaleConfigs() []diffConfig {
	var on *Engine
	sliced := func(name string, prep func(t *testing.T, c diffCatalog)) diffConfig {
		return diffConfig{name: name, equiv: true, run: func(t *testing.T, c diffCatalog, rows []diffRow) []diffAnswer {
			prep(t, c)
			got := answerAll(on, rows)
			if st := on.CacheStats(); st.SliceComputed == 0 || st.SliceSKUsKept >= st.SliceSKUsIn {
				t.Fatalf("%s: the sliced engine did not slice: %+v", name, st)
			}
			return got
		}}
	}
	return []diffConfig{
		sliced("sliced-cold", func(t *testing.T, c diffCatalog) { on = diffEngine(t, c.kb(), SliceOn) }),
		sliced("sliced-warm", func(*testing.T, diffCatalog) {}),
		sliced("sliced-cold-again", func(*testing.T, diffCatalog) { on.InvalidateCache() }),
	}
}
