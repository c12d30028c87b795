package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"netarch/internal/kb"
	"netarch/internal/sat"
)

// kbMutation names one delta kind against miniKB's rule list; each
// returns a fresh KB so the outgoing one is never mutated in place.
var kbMutations = []struct {
	name   string
	mutate func(k *kb.KB)
}{
	{"add", func(k *kb.KB) {
		k.Rules = append(k.Rules, kb.Rule{
			Name: "wan_no_pfc",
			Expr: kb.Implies(kb.CtxAtom("wan_dc_mix"), kb.Not(kb.CtxAtom("pfc_enabled"))),
			Note: "PFC does not cross the WAN",
		})
	}},
	{"remove", func(k *kb.KB) {
		k.Rules = k.Rules[:0]
	}},
	{"edit", func(k *kb.KB) {
		k.Rules[0].Expr = kb.Implies(kb.CtxAtom("pfc_enabled"),
			kb.And(kb.Not(kb.CtxAtom("flooding_enabled")), kb.CtxAtom("lossless_fabric")))
	}},
}

// TestUpdateKBByteIdentity: after UpdateKB, the cached base must be
// byte-identical (snapshot encoding, which covers the full solver state)
// to what a cold engine over the new KB compiles, for add, remove and
// edit deltas. Both sides hold the base after its compile-time probe.
func TestUpdateKBByteIdentity(t *testing.T) {
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	shape := baseShape(&sc)
	key := shape.fingerprint()
	for _, mut := range kbMutations {
		t.Run(mut.name, func(t *testing.T) {
			next := miniKB()
			mut.mutate(next)

			e := mustEngine(t, miniKB())
			if _, err := e.Synthesize(sc); err != nil {
				t.Fatal(err)
			}
			up, err := e.UpdateKB(next)
			if err != nil {
				t.Fatal(err)
			}
			if len(up.Diff) == 0 || up.BasesUpdated != 1 {
				t.Fatalf("update did not revalidate the cached base: %+v", up)
			}
			e.mu.Lock()
			updated := e.bases[key]
			e.mu.Unlock()
			if updated == nil {
				t.Fatal("cached base vanished across UpdateKB")
			}

			cold := mustEngine(t, next)
			want, err := compile(cold.revision().kb, &shape, nil)
			if err != nil {
				t.Fatal(err)
			}
			var hash [32]byte
			if !bytes.Equal(snapshotBase(updated, hash), snapshotBase(want, hash)) {
				t.Error("updated base diverges from cold compile")
			}
		})
	}
}

// TestUpdateKBStats pins the update accounting: a one-rule edit on a
// cached base must report it updated and none dropped, and queries after
// the update must answer against the new KB.
func TestUpdateKBStats(t *testing.T) {
	e := mustEngine(t, miniKB())
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	if _, err := e.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	next := miniKB()
	next.Rules[0].Expr = kb.Implies(kb.CtxAtom("pfc_enabled"), kb.FalseExpr())

	up, err := e.UpdateKB(next)
	if err != nil {
		t.Fatal(err)
	}
	if up.BasesUpdated != 1 || up.BasesDropped != 0 {
		t.Fatalf("bases: %+v", up)
	}
	if e.revision().kb != next {
		t.Error("KB() does not return the updated knowledge base")
	}

	// The rewritten rule makes pfc_enabled untenable: a query pinning it
	// must now be infeasible, proving post-update queries see the new KB.
	rep, err := e.Synthesize(Scenario{Context: map[string]bool{"pfc_enabled": true}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Infeasible {
		t.Errorf("query after update answered against the old KB: verdict %v", rep.Verdict)
	}
}

// TestUpdateKBNoChange: a content-identical KB is a pointer swap — bases,
// snapshots, and counters all survive.
func TestUpdateKBNoChange(t *testing.T) {
	e := mustEngine(t, miniKB())
	if _, err := e.Synthesize(Scenario{}); err != nil {
		t.Fatal(err)
	}
	same := miniKB()
	up, err := e.UpdateKB(same)
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Diff) != 0 || up.BasesUpdated != 0 {
		t.Fatalf("identical KB produced a non-trivial update: %+v", up)
	}
	if st := e.CacheStats(); st.Size != 1 {
		t.Errorf("no-op update dropped cached bases: %+v", st)
	}
	if e.revision().kb != same {
		t.Error("no-op update must still adopt the caller's pointer")
	}
}

// TestUpdateKBRejectsInvalid: nil and non-validating KBs leave the engine
// untouched.
func TestUpdateKBRejectsInvalid(t *testing.T) {
	e := mustEngine(t, miniKB())
	old := e.revision().kb
	if _, err := e.UpdateKB(nil); err == nil {
		t.Error("nil KB accepted")
	}
	bad := miniKB()
	bad.Systems = append(bad.Systems, bad.Systems[0]) // duplicate name
	if _, err := e.UpdateKB(bad); err == nil {
		t.Error("invalid KB accepted")
	}
	if e.revision().kb != old {
		t.Error("failed update swapped the KB anyway")
	}
}

// TestUpdateKBDropsUncompilableBases: a base whose workload the new KB no
// longer defines cannot be revalidated; it must be evicted (counted as
// dropped), while other bases update, and the whole call still succeeds.
func TestUpdateKBDropsUncompilableBases(t *testing.T) {
	k := miniKB()
	k.Workloads = append(k.Workloads, kb.Workload{Name: "cache_tier", Properties: []string{"dc_flows"}})
	e := mustEngine(t, k)
	if _, err := e.Synthesize(Scenario{Workloads: []string{"cache_tier"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Synthesize(Scenario{}); err != nil {
		t.Fatal(err)
	}

	next := miniKB() // cache_tier gone
	next.Rules[0].Note = "changed"
	up, err := e.UpdateKB(next)
	if err != nil {
		t.Fatal(err)
	}
	if up.BasesDropped != 1 || up.BasesUpdated != 1 {
		t.Fatalf("want 1 dropped + 1 updated: %+v", up)
	}
	if st := e.CacheStats(); st.Size != 1 {
		t.Errorf("dropped base still cached: %+v", st)
	}
	if _, err := e.Synthesize(Scenario{Workloads: []string{"cache_tier"}}); err == nil {
		t.Error("query over the removed workload must fail after the update")
	}
}

// TestUpdateKBProbedBaseMatchesColdCompile: a recompiled base is probed
// like a cold compile, so its post-probe solver state (phases,
// activities, learnt clauses) equals the cold compile's, the probe's work
// is not on its counters, and a query over it answers exactly like a
// fresh engine over the new KB, search effort included.
func TestUpdateKBProbedBaseMatchesColdCompile(t *testing.T) {
	e := mustEngine(t, miniKB())
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	shape := baseShape(&sc)
	key := shape.fingerprint()
	if _, err := e.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	next := miniKB()
	next.Rules = next.Rules[:0]
	if _, err := e.UpdateKB(next); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	nb := e.bases[key]
	e.mu.Unlock()

	cold := mustEngine(t, next)
	want, err := compile(cold.revision().kb, &shape, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nb.solver.Snapshot(), want.solver.Snapshot()) {
		t.Error("recompiled base's post-probe solver state diverges from a cold compile's")
	}
	if st := nb.solver.Stats(); st != (sat.Stats{}) {
		t.Errorf("probe work left on the updated base's counters: %+v", st)
	}
	row := diffRow{kind: "synthesize", sc: sc}
	got := answer(e, row).text
	if fresh := answer(mustEngine(t, next), row).text; got != fresh {
		t.Errorf("query on the updated base diverges from a fresh engine:\n got %s\nwant %s", got, fresh)
	}
}

// TestUpdateKBConcurrentQueries hammers queries across an update: no
// query may error or observe a torn state, and queries after the update
// must answer against the new KB. Run under -race this also proves the
// locking discipline.
func TestUpdateKBConcurrentQueries(t *testing.T) {
	e := mustEngine(t, miniKB())
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	if _, err := e.Synthesize(sc); err != nil {
		t.Fatal(err)
	}

	const queriers = 4
	stop := make(chan struct{})
	errs := make(chan error, queriers)
	var wg sync.WaitGroup
	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep, err := e.Synthesize(sc)
				if err != nil {
					errs <- err
					return
				}
				if rep.Verdict != Feasible {
					errs <- fmt.Errorf("verdict %v mid-update", rep.Verdict)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		next := miniKB()
		next.Rules[0].Note = fmt.Sprintf("rev%d", i)
		if _, err := e.UpdateKB(next); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestUpdateKBConcurrentUpdates races two updaters, each applying its
// own alternating revisions of a one-rule edit, while a querier keeps the
// base warm. UpdateKB serializes on its own lock, so afterwards KB() must
// be the last revision applied (one updater's final one), the cached base
// must be byte-identical to a cold compile of it, and a query must answer
// against it. Run under -race this also proves callers need no lock of
// their own.
func TestUpdateKBConcurrentUpdates(t *testing.T) {
	e := mustEngine(t, miniKB())
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	shape := baseShape(&sc)
	if _, err := e.Synthesize(sc); err != nil {
		t.Fatal(err)
	}

	const updaters, rounds = 2, 4
	var finals [updaters]*kb.KB
	stop := make(chan struct{})
	errs := make(chan error, updaters+1)
	var queries sync.WaitGroup
	queries.Add(1)
	go func() {
		defer queries.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Synthesize(sc); err != nil {
				errs <- err
				return
			}
		}
	}()
	var updates sync.WaitGroup
	for u := 0; u < updaters; u++ {
		updates.Add(1)
		go func() {
			defer updates.Done()
			for i := 0; i < rounds; i++ {
				next := miniKB()
				next.Rules[0].Note = fmt.Sprintf("updater%d rev%d", u, i)
				// Alternate a rule that forbids pfc_enabled with the
				// original, so the two updaters' final revisions answer
				// a pfc_enabled query differently.
				if i%2 == u {
					next.Rules[0].Expr = kb.Implies(kb.CtxAtom("pfc_enabled"), kb.FalseExpr())
				}
				if _, err := e.UpdateKB(next); err != nil {
					errs <- err
					return
				}
				finals[u] = next
			}
		}()
	}
	updates.Wait()
	close(stop)
	queries.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	last := e.revision().kb
	if last != finals[0] && last != finals[1] {
		t.Fatal("KB() is not the last revision applied")
	}
	e.mu.Lock()
	base := e.bases[shape.fingerprint()]
	e.mu.Unlock()
	if base == nil {
		t.Fatal("cached base vanished across the updates")
	}
	cold := mustEngine(t, last)
	want, err := compile(cold.revision().kb, &shape, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hash [32]byte
	if !bytes.Equal(snapshotBase(base, hash), snapshotBase(want, hash)) {
		t.Error("cached base diverges from a cold compile of the last revision")
	}
	pinned := Scenario{Context: map[string]bool{"pfc_enabled": true}}
	got, err := e.Synthesize(pinned)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := mustEngine(t, last).Synthesize(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdict != fresh.Verdict {
		t.Errorf("query after the updates answered %v, the last revision answers %v", got.Verdict, fresh.Verdict)
	}
}

// TestCacheEvictionReleasesEvictedKeys is the regression test for the
// FIFO eviction leak: the old `baseOrder = baseOrder[1:]` reslice kept
// every evicted key (and through the map, at one point, its base) alive
// in the backing array. Eviction must clear the vacated slot and let the
// evicted base be collected.
func TestCacheEvictionReleasesEvictedKeys(t *testing.T) {
	e := mustEngine(t, miniKB())
	e.SetCacheCapacity(2)
	for _, n := range []int{0, 8, 16, 24} {
		if _, err := e.Synthesize(Scenario{NumServers: n}); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	order := e.baseOrder
	if len(order) != 2 {
		e.mu.Unlock()
		t.Fatalf("len(baseOrder) = %d, want 2", len(order))
	}
	// The vacated tail of the backing array must hold no evicted keys.
	tail := order[len(order):cap(order)]
	for i, s := range tail {
		if s != "" {
			t.Errorf("backing array slot %d still pins evicted key %q", i, s)
		}
	}
	e.mu.Unlock()

	// And an evicted base must be collectable: compile one more shape,
	// plant a finalizer on the base eviction will push out, evict it,
	// and GC until the finalizer runs.
	shape := baseShape(&Scenario{NumServers: 16})
	e.mu.Lock()
	victim := e.bases[shape.fingerprint()]
	e.mu.Unlock()
	if victim == nil {
		t.Fatal("expected NumServers=16 base to still be cached")
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(victim, func(*compiled) { close(collected) })
	victim = nil
	for _, n := range []int{32, 40} {
		if _, err := e.Synthesize(Scenario{NumServers: n}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
	}
	t.Error("evicted base never became collectable; eviction still pins it")
}

// TestKBMutationStalenessOrdering pins how a KB change orders against
// queries. A query that read its revision before UpdateKB's swap
// compiles privately against that revision and leaves the new cache
// alone; the next query answers from a base equal to a cold compile of
// the new KB, not the old base; and a query mid-flight on a clone of the
// old base still completes.
func TestKBMutationStalenessOrdering(t *testing.T) {
	e := mustEngine(t, miniKB())
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	if _, err := e.Synthesize(sc); err != nil {
		t.Fatal(err)
	}

	// A query mid-flight: clone the old base before the update, solve it
	// after. Old bases are frozen, so the clone answers the old KB's
	// question regardless of what the engine does meanwhile.
	stale := e.revision()
	base, err := e.baseFor(stale, &sc, false)
	if st := e.CacheStats(); err != nil || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("baseFor should hit the cached base: %v (stats %+v)", err, st)
	}
	oldClone := base.solver.Clone(sat.MoveRoom, nil)
	oldBytes := snapshotBase(base, [32]byte{})

	next := miniKB()
	next.Hardware[0].CostUSD += 500
	if _, err := e.UpdateKB(next); err != nil {
		t.Fatal(err)
	}

	// A query whose revision predates the swap must not take the cached
	// base, which now belongs to next: it compiles the KB it read.
	private, err := e.baseFor(stale, &sc, false)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Size != 1 || st.Misses != 2 || st.Hits != 1 {
		t.Errorf("the pre-update revision's compile must count a miss and cache nothing: %+v", st)
	}
	if !bytes.Equal(snapshotBase(private, [32]byte{}), oldBytes) {
		t.Error("the pre-update revision's private base differs from its cached base")
	}

	// The pre-update base is not reused: the next query answers from a
	// base equal to a cold compile of next.
	fresh, err := e.baseFor(e.revision(), &sc, false)
	if err != nil {
		t.Fatalf("baseFor after the update: %v", err)
	}
	if private == fresh {
		t.Error("a query at the pre-update revision took a cached base")
	}
	if st := e.CacheStats(); st.Size != 1 || st.Misses != 2 || st.Hits != 2 {
		t.Errorf("want the rebuilt base alone cached, the private compile a miss: %+v", st)
	}
	coldEngine := mustEngine(t, next)
	cold, err := coldEngine.baseFor(coldEngine.revision(), &sc, false)
	if err != nil {
		t.Fatal(err)
	}
	freshBytes := snapshotBase(fresh, [32]byte{})
	if bytes.Equal(freshBytes, oldBytes) {
		t.Error("the post-update base equals the pre-update base")
	}
	if !bytes.Equal(freshBytes, snapshotBase(cold, [32]byte{})) {
		t.Error("the post-update base differs from a cold compile of the new KB")
	}

	// The mid-flight clone still solves.
	if status := oldClone.Solve(); status != sat.Sat {
		t.Errorf("mid-flight clone of the old base: status %v, want Sat", status)
	}
}
