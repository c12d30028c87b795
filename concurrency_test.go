package netarch_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"netarch"
)

// TestConcurrentQueries hammers one engine from many goroutines running
// mixed SynthesizeCtx / CheckCtx / ExplainCtx queries, with
// answer-preserving KB updates racing them. Under -race this is the facade-level
// regression test for the amortization layer's isolation contract:
// every query solves on a private clone of a shared compiled base, so
// concurrent queries must neither interfere nor observe each other.
func TestConcurrentQueries(t *testing.T) {
	k := netarch.DefaultCatalog()
	eng, err := netarch.NewEngine(k)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	feasible := netarch.Scenario{Require: []netarch.Property{"congestion_control"}}
	infeasible := netarch.Scenario{
		Context: map[string]bool{"pfc_enabled": true, "flooding_enabled": true},
	}
	// A witness design to re-check concurrently.
	rep, err := eng.SynthesizeCtx(ctx, feasible, netarch.Budget{})
	if err != nil || rep.Verdict != netarch.Feasible {
		t.Fatalf("seed synthesis failed: %v %v", err, rep)
	}
	witness := *rep.Design

	const goroutines = 12
	const rounds = 4
	const updates = 6
	errs := make(chan string, goroutines*rounds+updates)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch (g + i) % 3 {
				case 0:
					r, err := eng.SynthesizeCtx(ctx, feasible, netarch.Budget{})
					if err != nil {
						errs <- fmt.Sprintf("synthesize: %v", err)
					} else if r.Verdict != netarch.Feasible {
						errs <- fmt.Sprintf("synthesize verdict flipped: %v", r.Explanation)
					}
				case 1:
					r, err := eng.CheckCtx(ctx, witness, feasible, netarch.Budget{})
					if err != nil {
						errs <- fmt.Sprintf("check: %v", err)
					} else if r.Verdict != netarch.Feasible {
						errs <- fmt.Sprintf("check verdict flipped: %v", r.Explanation)
					}
				case 2:
					ex, err := eng.ExplainCtx(ctx, infeasible, netarch.Budget{})
					if err != nil {
						errs <- fmt.Sprintf("explain: %v", err)
					} else if ex == nil || len(ex.Conflicts) == 0 {
						errs <- "explain lost its conflict set"
					}
				}
			}
		}(g)
	}
	// KB updates racing the queries: in-flight clones keep working;
	// subsequent queries use the rebuilt bases.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			next := netarch.DefaultCatalog()
			next.Rules[0].Note = fmt.Sprintf("rev%d", i)
			if _, err := eng.UpdateKB(next); err != nil {
				errs <- fmt.Sprintf("update %d: %v", i, err)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	st := eng.CacheStats()
	if st.Hits+st.Misses == 0 {
		t.Errorf("cache counters should have moved: %+v", st)
	}
}
