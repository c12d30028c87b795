package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
)

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

// TestCacheUpdateKeepsCounters verifies UpdateKB replaces the cached
// bases by bases of the new KB, so the next query observes the change
// without compiling, while the lifetime counters carry over untouched.
func TestCacheUpdateKeepsCounters(t *testing.T) {
	e := mustEngine(t, miniKB())
	sc := Scenario{Context: map[string]bool{"pfc_enabled": true}}
	if rep, err := e.Synthesize(sc); err != nil || rep.Verdict != Feasible {
		t.Fatalf("pre-update query: %v %v", rep, err)
	}
	before := e.CacheStats()
	if before.Size != 1 || before.Misses != 1 {
		t.Fatalf("unexpected pre-update stats: %+v", before)
	}
	next := miniKB()
	next.Rules[0].Expr = kb.Implies(kb.CtxAtom("pfc_enabled"), kb.FalseExpr())
	if _, err := e.UpdateKB(next); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st != before {
		t.Fatalf("update should rebuild the base and keep the counters: %+v, was %+v", st, before)
	}
	rep, err := e.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Infeasible {
		t.Errorf("post-update query answered against the old KB: verdict %v", rep.Verdict)
	}
	if st := e.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("post-update query should hit the rebuilt base: %+v", st)
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

// TestCacheDisabledBypasses verifies SetCacheCapacity(0) retains no base:
// every query compiles, and each compile counts as a miss.
func TestCacheDisabledBypasses(t *testing.T) {
	e := mustEngine(t, miniKB())
	e.SetCacheCapacity(0)
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	for i := 0; i < 3; i++ {
		if _, err := e.Synthesize(sc); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.CacheStats(); st.Size != 0 || st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("a capacity-0 cache must not retain or hit, and must count each compile as a miss: %+v", st)
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
// mixed feasible/infeasible queries over a handful of shapes, with
// answer-preserving KB updates racing the queries. Run under -race this
// is the regression test for the clone-per-query isolation contract.
func TestCacheConcurrentQueries(t *testing.T) {
	e := mustEngine(t, caseStudyKB())
	cases := queryRows(t, e, sec51Scenarios(t, e), "synthesize", "optimize")
	// Sequential reference results.
	want := make([]string, len(cases))
	for i, tc := range cases {
		want[i] = answer(e, tc).text
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				tc := cases[(g+i)%len(cases)]
				if got := answer(e, tc).text; got != want[(g+i)%len(cases)] {
					errs <- fmt.Sprintf("goroutine %d query %s diverged:\n%s", g, tc.name, got)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			next := caseStudyKB()
			next.Rules[0].Note = fmt.Sprintf("rev%d", i)
			if _, err := e.UpdateKB(next); err != nil {
				errs <- fmt.Sprintf("update %d: %v", i, err)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

func TestCacheHitCountingConcurrent(t *testing.T) {
	// The hit counter is written under the engine mutex on every warm
	// query; this hammer asserts the exact lifetime totals under
	// concurrency and gives the race detector a workload.
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
// semantics (cache.go:CacheStats): the Hits+Misses sum is
// monotone across reads, bounded by started-queries from above and
// completed-queries from below, and reconciles exactly once the engine
// quiesces. The engine is never updated, so every cached base was a miss
// and each snapshot must have Size <= Misses. Run it under -race to also
// catch torn counter access.
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
			sum := st.Hits + st.Misses
			if sum < lastSum {
				select {
				case readerErr <- fmt.Errorf("sum went backwards: %d -> %d", lastSum, sum):
				default:
				}
				return
			}
			lastSum = sum
			if int64(st.Size) > st.Misses {
				select {
				case readerErr <- fmt.Errorf("torn snapshot: %d bases cached after %d misses", st.Size, st.Misses):
				default:
				}
				return
			}
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
	if st.Hits+st.Misses != total {
		t.Fatalf("quiesced counters do not reconcile: hits=%d misses=%d, want sum %d",
			st.Hits, st.Misses, total)
	}
}

// TestCacheStatsSnapshotHammerSliced is the hammer's sliced arm: on an
// engine that slices every catalog, every query also bumps the slice
// counters, and every snapshot must keep SliceSKUsKept <= SliceSKUsIn, a monotone
// SliceComputed+SliceHits, Size <= Misses, and the Hits+Misses sum
// between the completed and started query counts.
func TestCacheStatsSnapshotHammerSliced(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test")
	}
	eng := slicingEngine(t, catalog.CaseStudy(), sliceAlways)
	scs := []Scenario{
		{Workloads: []string{"inference_app"}},
		{Workloads: []string{"inference_app"}, NumServers: 24},
		{Workloads: []string{"inference_app"}, Require: []kb.Property{"congestion_control"}},
	}

	var started, completed atomic.Int64
	const goroutines, rounds = 8, 6
	var workers sync.WaitGroup
	stop := make(chan struct{})
	readerErr := make(chan error, 1)
	go func() {
		defer close(readerErr)
		var lastSum, lastSlices int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			before := completed.Load()
			st := eng.CacheStats()
			after := started.Load()
			sum := st.Hits + st.Misses
			slices := st.SliceComputed + st.SliceHits
			switch {
			case sum < lastSum:
				readerErr <- fmt.Errorf("sum went backwards: %d -> %d", lastSum, sum)
			case sum < before || sum > after:
				readerErr <- fmt.Errorf("sum %d outside [completed=%d, started=%d]", sum, before, after)
			case int64(st.Size) > st.Misses:
				readerErr <- fmt.Errorf("torn snapshot: %d bases cached after %d misses", st.Size, st.Misses)
			case slices < lastSlices:
				readerErr <- fmt.Errorf("slice lookups went backwards: %d -> %d", lastSlices, slices)
			case st.SliceSKUsKept > st.SliceSKUsIn:
				readerErr <- fmt.Errorf("slice kept %d SKUs of %d", st.SliceSKUsKept, st.SliceSKUsIn)
			default:
				lastSum, lastSlices = sum, slices
				continue
			}
			return
		}
	}()

	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for r := 0; r < rounds; r++ {
				started.Add(1)
				if _, err := eng.Synthesize(scs[(g+r)%len(scs)]); err != nil {
					t.Error(err)
				}
				completed.Add(1)
			}
		}(g)
	}
	workers.Wait()
	close(stop)
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}

	st := eng.CacheStats()
	total := int64(goroutines * rounds)
	if st.Hits+st.Misses != total {
		t.Fatalf("quiesced counters do not reconcile: hits=%d misses=%d, want sum %d",
			st.Hits, st.Misses, total)
	}
	if st.SliceComputed == 0 || st.SliceComputed+st.SliceHits != total {
		t.Fatalf("slice lookups = %d computed + %d hits, want %d in total with at least one computed",
			st.SliceComputed, st.SliceHits, total)
	}
}
