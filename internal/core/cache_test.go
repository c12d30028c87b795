package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
)

// caseStudyQueries returns the §5.1 query scenarios (plus the over-
// constrained Explain scenario) used by the differential tests. The KB is
// the case-study catalog extended with the two extra §5.1 workloads.
func caseStudyQueries() (*kb.KB, []struct {
	name string
	sc   Scenario
	kind string // "synthesize", "optimize", "explain"
}) {
	k := catalog.CaseStudy()
	k.Workloads = append(k.Workloads, catalog.BatchAnalyticsWorkload(), catalog.StorageWorkload())
	cases := []struct {
		name string
		sc   Scenario
		kind string
	}{
		{"q1-baseline", Scenario{Workloads: []string{"inference_app"}}, "optimize"},
		{"q1-grown-frozen", Scenario{
			Workloads: []string{"inference_app", "batch_analytics", "storage_backend"},
			Context:   map[string]bool{"pfc_enabled": true},
		}, "synthesize"},
		{"q2-keep-sonata", Scenario{
			Workloads:     []string{"inference_app"},
			Require:       []kb.Property{"flow_telemetry", "detect_queue_length"},
			PinnedSystems: []string{"sonata"},
		}, "optimize"},
		{"q2-replan-free", Scenario{
			Workloads: []string{"inference_app"},
			Require:   []kb.Property{"flow_telemetry", "detect_queue_length"},
		}, "optimize"},
		{"q3-without-cxl", Scenario{
			Workloads:  []string{"inference_app", "batch_analytics", "storage_backend"},
			NumServers: 64,
			Context:    map[string]bool{"pfc_enabled": true, "cxl_pooling": false},
		}, "optimize"},
		{"q3-with-cxl", Scenario{
			Workloads:  []string{"inference_app", "batch_analytics", "storage_backend"},
			NumServers: 64,
			Context:    map[string]bool{"pfc_enabled": true, "cxl_pooling": true},
		}, "optimize"},
		{"overconstrained-explain", Scenario{
			Workloads: []string{"inference_app"},
			Context: map[string]bool{
				"pfc_enabled":      true,
				"flooding_enabled": true,
				"deadline_tight":   true,
			},
			Require: []kb.Property{"low_latency_stack"},
		}, "explain"},
	}
	return k, cases
}

// renderReport serializes everything semantically meaningful in a report
// — verdict, witness design, minimized explanation, deterministic solver
// work counters — while dropping wall-clock time.
func renderReport(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "verdict=%s\n", rep.Verdict)
	if rep.Design != nil {
		fmt.Fprintf(&b, "systems=%v\nhardware=%v\ncontext=%v\nmetrics=%v\n",
			rep.Design.Systems, rep.Design.Hardware, rep.Design.Context, rep.Design.Metrics)
	}
	if rep.Explanation != nil {
		fmt.Fprintf(&b, "explanation=%v approx=%v\n", rep.Explanation.Conflicts, rep.Explanation.Approximate)
	}
	fmt.Fprintf(&b, "conflicts=%d decisions=%d\n", rep.Spent.Conflicts, rep.Spent.Decisions)
	return b.String()
}

func renderOptimize(res *OptimizeResult) string {
	return fmt.Sprintf("%sobjectives=%v approx=%v\n",
		renderReport(&res.Report), res.ObjectiveValues, res.Approximate)
}

// execQuery executes one differential query against an engine and
// renders the outcome. Safe to call from any goroutine.
func execQuery(e *Engine, kind string, sc Scenario) (string, error) {
	switch kind {
	case "synthesize":
		rep, err := e.Synthesize(sc)
		if err != nil {
			return "", fmt.Errorf("synthesize: %w", err)
		}
		return renderReport(rep), nil
	case "optimize":
		res, err := e.Optimize(sc, []Objective{{Kind: MinimizeCost}})
		if err != nil {
			return "", fmt.Errorf("optimize: %w", err)
		}
		return renderOptimize(res), nil
	case "explain":
		ex, err := e.Explain(sc)
		if err != nil {
			return "", fmt.Errorf("explain: %w", err)
		}
		if ex == nil {
			return "feasible\n", nil
		}
		return fmt.Sprintf("explanation=%v approx=%v\n", ex.Conflicts, ex.Approximate), nil
	default:
		return "", fmt.Errorf("unknown kind %q", kind)
	}
}

// runQuery is execQuery for test main goroutines: errors are fatal.
func runQuery(t *testing.T, e *Engine, kind string, sc Scenario) string {
	t.Helper()
	out, err := execQuery(e, kind, sc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCacheDifferential is the tentpole correctness gate: for every §5.1
// query (and the over-constrained Explain scenario), a cache-disabled
// engine, a cold cache miss, and a warm cache hit must produce byte-
// identical verdicts, designs, objective values, and minimized cores.
// The warm run repeats to confirm clones never leak query state (an
// Optimize asserts bounds on its instance; a later identical query must
// not see them).
func TestCacheDifferential(t *testing.T) {
	k, cases := caseStudyQueries()
	cold, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	cold.SetCacheCapacity(0) // every query compiles from scratch
	warm, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runQuery(t, cold, tc.kind, tc.sc)
			miss := runQuery(t, warm, tc.kind, tc.sc)
			hit := runQuery(t, warm, tc.kind, tc.sc)
			if miss != want {
				t.Errorf("cold-cache miss diverges from uncached:\nuncached:\n%s\nmiss:\n%s", want, miss)
			}
			if hit != want {
				t.Errorf("warm-cache hit diverges from uncached:\nuncached:\n%s\nhit:\n%s", want, hit)
			}
		})
	}
	st := warm.CacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
	if st.Size == 0 || st.Size > st.Capacity {
		t.Errorf("cache size out of range: %+v", st)
	}
}

// TestCacheSharedBaseAcrossQueries verifies the amortization claim at the
// cache level: queries differing only in Context/Require/pins share one
// compiled base.
func TestCacheSharedBaseAcrossQueries(t *testing.T) {
	e := mustEngine(t, miniKB())
	scs := []Scenario{
		{Require: []kb.Property{"congestion_control"}},
		{Require: []kb.Property{"congestion_control"}, Context: map[string]bool{"x": true}},
		{Require: []kb.Property{"congestion_control"}, PinnedSystems: []string{"cubic"}},
		{Require: []kb.Property{"congestion_control"}, ForbiddenSystems: []string{"cubic"}},
	}
	for _, sc := range scs {
		if _, err := e.Synthesize(sc); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.Misses != 1 {
		t.Errorf("expected one base compile across query-side variants, got %+v", st)
	}
	if st.Hits != int64(len(scs)-1) {
		t.Errorf("expected %d hits, got %+v", len(scs)-1, st)
	}
	if st.Size != 1 {
		t.Errorf("expected a single cached base, got %+v", st)
	}
}

// TestCacheInvalidate verifies InvalidateCache empties the cache (forcing
// recompiles that observe KB mutations) while keeping lifetime counters.
func TestCacheInvalidate(t *testing.T) {
	e := mustEngine(t, miniKB())
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	if _, err := e.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	before := e.CacheStats()
	if before.Size != 1 || before.Misses != 1 {
		t.Fatalf("unexpected pre-invalidate stats: %+v", before)
	}
	e.InvalidateCache()
	if st := e.CacheStats(); st.Size != 0 || st.Misses != 1 {
		t.Fatalf("invalidate should clear bases, keep counters: %+v", st)
	}
	if _, err := e.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("post-invalidate query should recompile: %+v", st)
	}
}

// TestCacheEviction verifies FIFO eviction at the configured capacity.
func TestCacheEviction(t *testing.T) {
	e := mustEngine(t, miniKB())
	e.SetCacheCapacity(2)
	// Three distinct shapes (fleet size shapes the CNF).
	for _, n := range []int{0, 8, 16} {
		sc := Scenario{NumServers: n, Require: []kb.Property{"congestion_control"}}
		if _, err := e.Synthesize(sc); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.Size != 2 || st.Misses != 3 {
		t.Fatalf("expected 2 cached bases after FIFO eviction of 3 shapes: %+v", st)
	}
	// The oldest shape was evicted: querying it again is a miss; the
	// newest is still a hit.
	if _, err := e.Synthesize(Scenario{NumServers: 0, Require: []kb.Property{"congestion_control"}}); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Misses != 4 {
		t.Fatalf("evicted shape should recompile: %+v", st)
	}
	if _, err := e.Synthesize(Scenario{NumServers: 16, Require: []kb.Property{"congestion_control"}}); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Hits != 1 {
		t.Fatalf("retained shape should hit: %+v", st)
	}
}

// TestCacheDisabledBypasses verifies SetCacheCapacity(0) restores the
// compile-every-query behavior.
func TestCacheDisabledBypasses(t *testing.T) {
	e := mustEngine(t, miniKB())
	e.SetCacheCapacity(0)
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	for i := 0; i < 3; i++ {
		if _, err := e.Synthesize(sc); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.CacheStats(); st.Size != 0 || st.Hits != 0 {
		t.Fatalf("disabled cache must not retain or hit: %+v", st)
	}
}

// TestFingerprintDistinguishesShapes spot-checks that structurally
// different scenarios get different fingerprints and that query-side
// fields do not leak into the shape.
func TestFingerprintDistinguishesShapes(t *testing.T) {
	base := Scenario{Workloads: []string{"inference_app"}}
	distinct := []Scenario{
		{Workloads: []string{"inference_app"}, NumServers: 8},
		{Workloads: []string{"inference_app", "batch_analytics"}},
		{Workloads: []string{"inference_app"}, MaxCostUSD: 100},
		{Workloads: []string{"inference_app"}, RackServers: map[string]int{}},
		{Workloads: []string{"inference_app"}, Context: map[string]bool{"cxl_pooling": true}},
	}
	seen := map[string]int{}
	bs := baseShape(&base)
	baseFP := bs.fingerprint()
	seen[baseFP] = -1
	for i, sc := range distinct {
		shape := baseShape(&sc)
		fp := shape.fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("scenario %d collides with %d: %q", i, prev, fp)
		}
		seen[fp] = i
	}
	// Query-side fields must not change the shape.
	queryOnly := Scenario{
		Workloads:        []string{"inference_app"},
		Context:          map[string]bool{"deadline_tight": true},
		Require:          []kb.Property{"congestion_control"},
		PinnedSystems:    []string{"cubic"},
		ForbiddenSystems: []string{"dctcp"},
	}
	qs := baseShape(&queryOnly)
	if got := qs.fingerprint(); got != baseFP {
		t.Errorf("query-side fields leaked into the shape:\n%q\nvs\n%q", got, baseFP)
	}
}

// TestCacheConcurrentQueries hammers one engine from many goroutines —
// mixed feasible/infeasible queries over a handful of shapes, with a
// cache invalidation racing the queries. Run under -race this is the
// regression test for the clone-per-query isolation contract.
func TestCacheConcurrentQueries(t *testing.T) {
	k, cases := caseStudyQueries()
	e := mustEngine(t, k)
	// Sequential reference results.
	want := make([]string, len(cases))
	for i, tc := range cases {
		want[i] = runQuery(t, e, tc.kind, tc.sc)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				tc := cases[(g+i)%len(cases)]
				got, err := execQuery(e, tc.kind, tc.sc)
				if err != nil {
					errs <- fmt.Sprintf("goroutine %d query %s: %v", g, tc.name, err)
					continue
				}
				if got != want[(g+i)%len(cases)] {
					errs <- fmt.Sprintf("goroutine %d query %s diverged:\n%s", g, tc.name, got)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			e.InvalidateCache()
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

func TestCacheHitCountingConcurrent(t *testing.T) {
	// Regression for the hit-counter hot path: warm cache hits used to
	// take the cache write lock just to bump an int, serializing every
	// concurrent warm query (and, worse, contending with InvalidateCache).
	// The counters are atomics now; this hammer asserts the exact lifetime
	// totals under concurrency and gives the race detector a workload.
	e := mustEngine(t, miniKB())
	sc := Scenario{Context: map[string]bool{"pfc_enabled": true}}
	if _, err := e.Synthesize(sc); err != nil { // prime: one miss
		t.Fatal(err)
	}
	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := e.Synthesize(sc); err != nil {
					t.Errorf("warm query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := e.CacheStats()
	if st.Misses != 1 {
		t.Errorf("Misses = %d, want exactly the priming compile", st.Misses)
	}
	if want := int64(goroutines * perG); st.Hits != want {
		t.Errorf("Hits = %d, want %d (no lost updates)", st.Hits, want)
	}
}

// TestCacheStatsSnapshotHammer hammers CacheStats from a reader while
// concurrent queries bump the counters, pinning the documented snapshot
// semantics (cache.go:CacheStats): the Hits+DiskHits+Misses sum is
// monotone across reads, bounded by started-queries from above and
// completed-queries from below, and reconciles exactly once the engine
// quiesces. Run it under -race to also catch torn counter access.
func TestCacheStatsSnapshotHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test")
	}
	eng, err := New(catalog.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}

	// Two scenario shapes so hits and misses both move.
	scs := []Scenario{
		{Workloads: []string{"inference_app"}},
		{Workloads: []string{"inference_app"}, NumServers: 24},
	}

	var started, completed atomic.Int64
	const goroutines, rounds = 8, 6
	var workers, reader sync.WaitGroup
	stop := make(chan struct{})

	// Reader: continuously snapshot and check the envelope invariants.
	readerErr := make(chan error, 1)
	reader.Add(1)
	go func() {
		defer reader.Done()
		var lastSum int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			before := completed.Load()
			st := eng.CacheStats()
			after := started.Load()
			sum := st.Hits + st.DiskHits + st.Misses
			if sum < lastSum {
				select {
				case readerErr <- fmt.Errorf("sum went backwards: %d -> %d", lastSum, sum):
				default:
				}
				return
			}
			lastSum = sum
			if sum < before || sum > after {
				select {
				case readerErr <- fmt.Errorf("sum %d outside [completed=%d, started=%d]", sum, before, after):
				default:
				}
				return
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for r := 0; r < rounds; r++ {
				sc := scs[(g+r)%len(scs)]
				started.Add(1)
				if _, err := eng.Synthesize(sc); err != nil {
					t.Error(err)
				}
				completed.Add(1)
			}
		}(g)
	}
	// Stop the reader only after the workers are done.
	workers.Wait()
	close(stop)
	reader.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}

	st := eng.CacheStats()
	total := int64(goroutines * rounds)
	if st.Hits+st.DiskHits+st.Misses != total {
		t.Fatalf("quiesced counters do not reconcile: hits=%d diskHits=%d misses=%d, want sum %d",
			st.Hits, st.DiskHits, st.Misses, total)
	}
}
