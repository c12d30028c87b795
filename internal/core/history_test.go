package core

import (
	"bytes"
	"testing"
)

// TestAnswersIndependentOfQueryHistory: every base is probed once at
// compile time and never updated by queries, so an answer depends on the
// query and the knowledge base only. On one cached engine, where each
// query runs on a clone of a shared base, the §5.1 synthesis,
// explanation, cost-optimization and what-if queries run forward,
// reversed and interleaved; every report must equal a fresh engine's
// answer to the same query byte for byte, search effort (Spent
// conflicts and decisions) included.
func TestAnswersIndependentOfQueryHistory(t *testing.T) {
	k := caseStudyKB()
	scs := sec51Scenarios(t, mustEngine(t, k))
	inference := Scenario{Workloads: []string{"inference_app"}}
	whatIf := inference
	whatIf.Context = map[string]bool{"lossless_fabric": false}
	scs = append(scs, namedScenario{"whatif-lossy-fabric", whatIf})
	// Explain runs as Synthesize so the report keeps its Spent.
	queries := queryRows(t, nil, scs, "synthesize", "optimize")

	run := func(e *Engine, q diffRow) string {
		a := answer(e, q)
		if a.err != nil {
			t.Fatalf("%s: %v", q.name, a.err)
		}
		return a.text
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = run(mustEngine(t, k), q)
	}

	n := len(queries)
	forward := make([]int, n)
	reversed := make([]int, n)
	interleaved := make([]int, 0, n)
	for i := range forward {
		forward[i] = i
		reversed[i] = n - 1 - i
	}
	for lo, hi := 0, n-1; lo <= hi; lo, hi = lo+1, hi-1 {
		interleaved = append(interleaved, hi)
		if lo != hi {
			interleaved = append(interleaved, lo)
		}
	}

	e := mustEngine(t, k)
	for _, order := range []struct {
		name string
		idx  []int
	}{{"forward", forward}, {"reversed", reversed}, {"interleaved", interleaved}} {
		for _, i := range order.idx {
			if got := run(e, queries[i]); got != want[i] {
				t.Errorf("%s/%s: answer depends on query history:\ngot:\n%s\nfresh engine:\n%s",
					order.name, queries[i].name, got, want[i])
			}
		}
	}
	if st := e.CacheStats(); st.Hits == 0 {
		t.Errorf("no query ran on a clone of a cached base: %+v", st)
	}
}

// TestOptimizeSolverIsPrivate pins what lets Optimize assert the query's
// selectors as level-0 units: the solver it descends on belongs to that
// query alone. A warm query descends on a clone, so the cached base's
// solver is byte-identical before and after it. With caching off every
// query compiles its own base and the engine keeps none of them.
func TestOptimizeSolverIsPrivate(t *testing.T) {
	k := caseStudyKB()
	sc := section51Scenarios()["q3-no-pooling"]
	levels := [][]Objective{
		{{Kind: MinimizeCost}},
		{{Kind: PreferOrder, Dimension: "tail_latency"}, {Kind: MinimizeCost}, {Kind: MinimizeSystems}},
	}

	e := mustEngine(t, k)
	if err := e.Prewarm(sc); err != nil {
		t.Fatal(err)
	}
	if len(e.bases) != 1 {
		t.Fatalf("want one cached base, have %d", len(e.bases))
	}
	var base *compiled
	for _, b := range e.bases {
		base = b
	}
	before := base.solver.Snapshot()
	want := make([]string, len(levels))
	for i, objs := range levels {
		res, err := e.Optimize(sc, objs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderAnswer(res)
	}
	if !bytes.Equal(base.solver.Snapshot(), before) {
		t.Fatal("a warm Optimize wrote to the cached base's solver")
	}

	cold := mustEngine(t, k)
	cold.SetCacheCapacity(0)
	a, err := cold.instance(&sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cold.instance(&sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.solver == b.solver {
		t.Fatal("two cache-off queries share one solver")
	}
	for i, objs := range levels {
		res, err := cold.Optimize(sc, objs)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAnswer(res); got != want[i] {
			t.Errorf("cache-off answer differs from the warm one:\ngot:\n%s\nwarm:\n%s", got, want[i])
		}
	}
	if len(cold.bases) != 0 {
		t.Fatalf("cache-off engine kept %d bases", len(cold.bases))
	}
}
