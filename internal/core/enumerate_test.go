package core

import (
	"context"
	"sync"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
	"netarch/internal/sat"
)

func TestLessSystemsElementwise(t *testing.T) {
	// Regression: the old sort key fmt.Sprint(systems) renders
	// ["a b","c"] and ["a","b c"] identically ("[a b c]"), so their
	// relative order was undefined. Element-wise comparison keeps them
	// distinct and total.
	cases := []struct {
		a, b []string
		want bool
	}{
		{[]string{"a", "b c"}, []string{"a b", "c"}, true},
		{[]string{"a b", "c"}, []string{"a", "b c"}, false},
		{[]string{"a"}, []string{"a", "b"}, true},
		{[]string{"a", "b"}, []string{"a"}, false},
		{[]string{"a", "b"}, []string{"a", "b"}, false},
		{nil, []string{"a"}, true},
		{nil, nil, false},
		{[]string{"cubic", "linux"}, []string{"dctcp", "linux"}, true},
	}
	for _, tc := range cases {
		if got := lessSystems(tc.a, tc.b); got != tc.want {
			t.Errorf("lessSystems(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// hardwareOnlyKB is a valid knowledge base with an empty system
// vocabulary: hardware must still be selected, but no system variable
// exists to project designs onto.
func hardwareOnlyKB() *kb.KB {
	return &kb.KB{Hardware: miniKB().Hardware}
}

func TestEnumerateEmptyProjection(t *testing.T) {
	// Regression: with no system variables the blocking clause is empty,
	// and the old loop asserted it — AddClause() with zero literals
	// poisons the solver (okay=false) and needs a second, vacuous solve
	// to notice the enumeration is "done". The guard decides the single
	// (empty) class in exactly one solve and reports completion.
	e := mustEngine(t, hardwareOnlyKB())
	solves := 0
	e.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev == sat.EventSolve {
			solves++
		}
		return false
	})
	res, err := e.EnumerateCtx(context.Background(), Scenario{}, 10, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Exhausted != nil || res.Reason != "" {
		t.Fatalf("empty projection must terminate as complete: %+v", res)
	}
	if len(res.Designs) != 1 {
		t.Fatalf("got %d designs, want the single empty class", len(res.Designs))
	}
	if d := res.Designs[0]; len(d.Systems) != 0 || len(d.Hardware) == 0 {
		t.Fatalf("empty-class design wrong: systems=%v hardware=%v", d.Systems, d.Hardware)
	}
	if solves != 1 {
		t.Errorf("empty projection took %d solves, want 1 (no poisoned re-solve)", solves)
	}
}

func TestEnumerateEmptyProjectionInfeasible(t *testing.T) {
	// An infeasible instance with no system vocabulary is a complete,
	// empty enumeration — not a truncation.
	k := hardwareOnlyKB()
	e := mustEngine(t, k)
	sc := Scenario{Context: map[string]bool{"pfc_enabled": true}}
	// Force infeasibility through contradictory context pins on a KB
	// with the pfc_no_flooding rule but no systems.
	k2 := &kb.KB{Hardware: k.Hardware, Rules: miniKB().Rules}
	e = mustEngine(t, k2)
	sc = Scenario{Context: map[string]bool{"pfc_enabled": true, "flooding_enabled": true}}
	res, err := e.EnumerateCtx(context.Background(), sc, 10, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || len(res.Designs) != 0 {
		t.Fatalf("infeasible empty projection must be complete and empty: %+v", res)
	}
}

func TestEnumerateRepeatedRunsIdentical(t *testing.T) {
	// Repeated enumerations must be byte-identical: blocking clauses are
	// built in sorted vocabulary order, so no map-iteration
	// nondeterminism can leak into the search.
	e := mustEngine(t, miniKB())
	res, err := e.EnumerateCtx(context.Background(), Scenario{}, 100, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	first := renderAnswer(res)
	for i := 0; i < 3; i++ {
		again, err := e.EnumerateCtx(context.Background(), Scenario{}, 100, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAnswer(again); got != first {
			t.Fatalf("run %d diverges from the first:\n%s\nvs\n%s", i+2, first, got)
		}
	}
}

func TestEnumerateNonPositiveMax(t *testing.T) {
	// max <= 0 must keep the historical contract: compile, admit
	// nothing, report a (vacuous) limit truncation.
	e := mustEngine(t, miniKB())
	for _, max := range []int{0, -3} {
		res, err := e.EnumerateCtx(context.Background(), Scenario{}, max, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated || res.Reason != "limit" || len(res.Designs) != 0 || res.Exhausted != nil {
			t.Fatalf("max=%d: %+v", max, res)
		}
	}
}

func TestEnumerateConcurrentQueries(t *testing.T) {
	// Enumerations from many goroutines over one engine must not
	// interfere: a private clone per query, atomic cache counters,
	// per-query governors. Run with -race.
	e := mustEngine(t, miniKB())
	res, err := e.EnumerateCtx(context.Background(), Scenario{}, 100, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAnswer(res)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := e.EnumerateCtx(context.Background(), Scenario{}, 100, Budget{})
			if err != nil {
				errs <- err
				return
			}
			if renderAnswer(got) != want {
				t.Errorf("concurrent enumeration diverged")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEnumerateExactFitIsComplete: an enumeration whose class space
// holds exactly max classes is complete, and one class fewer is a limit
// truncation. The space is the case study restricted to the systems of
// its first three classes.
func TestEnumerateExactFitIsComplete(t *testing.T) {
	k := catalog.CaseStudy()
	e := mustEngine(t, k)
	sc := Scenario{Workloads: []string{"inference_app"}, NumServers: 64}
	seed, err := e.EnumerateCtx(context.Background(), sc, 3, Budget{})
	if err != nil {
		t.Fatal(err)
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
	full, err := e.EnumerateCtx(context.Background(), sc, 1<<20, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(full.Designs)
	if full.Truncated || n < 2 {
		t.Fatalf("constrained space: %d classes, truncated %v; want a complete multi-class space", n, full.Truncated)
	}
	exact, err := e.EnumerateCtx(context.Background(), sc, n, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Truncated || len(exact.Designs) != n {
		t.Errorf("max=%d over a %d-class space: %d classes, truncated %v (%q); want complete",
			n, n, len(exact.Designs), exact.Truncated, exact.Reason)
	}
	short, err := e.EnumerateCtx(context.Background(), sc, n-1, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !short.Truncated || short.Reason != "limit" || len(short.Designs) != n-1 {
		t.Errorf("max=%d over a %d-class space: %d classes, truncated %v (%q); want a limit truncation",
			n-1, n, len(short.Designs), short.Truncated, short.Reason)
	}
}

func TestDisambiguateLimitTruncationIncomplete(t *testing.T) {
	// Regression: a limit-truncated enumeration (Truncated=true,
	// Exhausted=nil) is a provably partial class set, so the
	// disambiguation built from it must be marked Incomplete — the old
	// code keyed on Exhausted and reported it as complete.
	e := mustEngine(t, miniKB())
	d, err := e.DisambiguateCtx(context.Background(), Scenario{}, 1, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Classes != 1 {
		t.Fatalf("got %d classes, want exactly the limit", d.Classes)
	}
	if !d.Incomplete {
		t.Fatal("limit-truncated disambiguation must be Incomplete")
	}
	// A complete enumeration must stay complete.
	full, err := e.DisambiguateCtx(context.Background(), Scenario{}, 100, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Incomplete {
		t.Fatalf("complete disambiguation mislabeled: %+v", full)
	}
}

// TestEnumerateAboveSliceThreshold: above the slicing threshold a
// synthesis slices, but Enumerate and Disambiguate compile the full KB,
// so they answer exactly as an engine that never slices does. (Over a
// slice, the first of 16 classes had 7 systems where the full space's
// has 13, tcp and udp among them.)
func TestEnumerateAboveSliceThreshold(t *testing.T) {
	k := catalog.ScaledCatalog(1000)
	sc := Scenario{Workloads: []string{"inference_app"}, NumServers: 64}
	e, ref := mustEngine(t, k), slicingEngine(t, k, sliceNever)
	if _, err := e.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.SliceComputed == 0 {
		t.Fatalf("the synthesis did not slice: %+v", st)
	}
	ctx := context.Background()
	got, err := e.EnumerateCtx(ctx, sc, 8, Budget{})
	if err != nil || len(got.Designs) == 0 {
		t.Fatalf("Enumerate: %v %v", err, got)
	}
	want, err := ref.EnumerateCtx(ctx, sc, 8, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderAnswer(got), renderAnswer(want); g != w {
		t.Errorf("Enumerate above the threshold:\n got %s\nwant %s", g, w)
	}
	gotD, err := e.DisambiguateCtx(ctx, sc, 16, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := ref.DisambiguateCtx(ctx, sc, 16, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderAnswer(gotD), renderAnswer(wantD); g != w {
		t.Errorf("Disambiguate above the threshold:\n got %s\nwant %s", g, w)
	}
}
