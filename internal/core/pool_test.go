package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/sat"
)

// TestClonePoolServesQueries proves pooling is a pure latency knob: with
// a pool configured, queries answer identically to the unpooled engine,
// the pool actually serves hits after a prewarm, and a handed-out clone
// is never re-admitted (the pool only ever holds pristine clones).
func TestClonePoolServesQueries(t *testing.T) {
	k := catalog.CaseStudy()
	sc := Scenario{Workloads: []string{"inference_app"}}

	plain, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}

	pooled, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	pooled.SetClonePool(4)
	if err := pooled.Prewarm(sc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		got, err := pooled.Synthesize(sc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Verdict != want.Verdict {
			t.Fatalf("pooled verdict %v, unpooled %v", got.Verdict, want.Verdict)
		}
		if want.Verdict == Feasible {
			if gs, ws := len(got.Design.Systems), len(want.Design.Systems); gs != ws {
				t.Fatalf("pooled design %v, unpooled %v", got.Design.Systems, want.Design.Systems)
			}
		}
	}
	st := pooled.CacheStats()
	if st.PoolHits == 0 {
		t.Fatalf("prewarmed pool served no hits: %+v", st)
	}
	if st.PoolHits+st.PoolMisses != 6 {
		t.Fatalf("pool hits(%d)+misses(%d) != 6 pooled queries", st.PoolHits, st.PoolMisses)
	}
}

// TestClonePoolTakeNeverReadmits pins the structural quarantine: take
// hands out each pooled clone exactly once, and nothing ever flows back —
// a clone that was handed out and mutated by a query stays out of the
// pool even after refills.
func TestClonePoolTakeNeverReadmits(t *testing.T) {
	k := catalog.CaseStudy()
	eng, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetClonePool(3)
	sc := Scenario{Workloads: []string{"inference_app"}}
	if err := eng.Prewarm(sc); err != nil {
		t.Fatal(err)
	}
	base, shared, err := eng.baseFor(&sc)
	if err != nil || !shared {
		t.Fatalf("baseFor: shared=%v err=%v", shared, err)
	}
	got := map[*sat.Solver]bool{}
	for i := 0; i < 3; i++ {
		s := base.pool.take()
		if s == nil {
			t.Fatalf("take %d: pool empty early", i)
		}
		if got[s] {
			t.Fatalf("take %d: clone handed out twice", i)
		}
		got[s] = true
		s.NewVar() // dirty it, as a real query would
	}
	if s := base.pool.take(); s != nil {
		t.Fatalf("pool produced a 4th clone from a pool of 3 with no refill")
	}
	// Refill synchronously: every new clone must be fresh.
	base.pool.refill(base.solver, 3)
	for i := 0; i < 3; i++ {
		if s := base.pool.take(); s == nil || got[s] {
			t.Fatalf("take %d after refill: empty pool or a re-admitted clone", i)
		}
	}
}

// TestClonePoolOffByDefault: with no SetClonePool call the engine clones
// inline and the pool counters stay zero (pre-pool behavior, exactly).
func TestClonePoolOffByDefault(t *testing.T) {
	eng, err := New(catalog.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Workloads: []string{"inference_app"}}
	for i := 0; i < 3; i++ {
		if _, err := eng.Synthesize(sc); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.CacheStats()
	if st.PoolHits != 0 || st.PoolMisses != 0 {
		t.Fatalf("pool counters moved with pooling disabled: %+v", st)
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
	eng.SetClonePool(2)

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
