package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
)

// Slicer soundness edge cases: the corners where a relevance slice
// could plausibly diverge from the full encoding. The broad equivalence
// sweep is the sliced family of TestDifferential (make differential);
// these tests pin the specific traps.

// sliceTestScenario is the canonical scaled-catalog query shape.
func sliceTestScenario() Scenario {
	return Scenario{Workloads: []string{"inference_app"}, NumServers: 64}
}

// mustSlice computes the slice the engine would use for sc.
func mustSlice(t *testing.T, k *kb.KB, sc Scenario) *kbSlice {
	t.Helper()
	shape := baseShape(&sc)
	req := deriveSliceRequest(k, &sc, &shape)
	if req == nil {
		t.Fatal("slice request underivable for a known-workload scenario")
	}
	return computeSlice(k, req)
}

// TestSliceInfeasibleAgreesWithFull: a requirement nothing provides
// yields an (almost) empty provider cone — the slice must still report
// the same infeasibility, with an explanation, not a degenerate pass.
func TestSliceInfeasibleAgreesWithFull(t *testing.T) {
	k := catalog.ScaledCatalog(1000)
	sc := sliceTestScenario()
	sc.Require = []kb.Property{"teleportation"}

	var verdicts []Verdict
	for _, mode := range []SliceMode{SliceOn, SliceOff} {
		eng, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetSliceMode(mode)
		rep, err := eng.Synthesize(sc)
		if err != nil {
			t.Fatalf("slice=%v: %v", mode, err)
		}
		verdicts = append(verdicts, rep.Verdict)
		if rep.Verdict == Infeasible && len(rep.Explanation.Conflicts) == 0 {
			t.Fatalf("slice=%v: infeasible with empty explanation", mode)
		}
	}
	if verdicts[0] != verdicts[1] {
		t.Fatalf("verdict mismatch: sliced=%v full=%v", verdicts[0], verdicts[1])
	}
	if verdicts[0] != Infeasible {
		t.Fatalf("unprovidable requirement must be infeasible, got %v", verdicts[0])
	}
}

// TestSliceTouchingEverythingEqualsFull: a scenario that requires every
// property, pins every system, binds every context atom, and
// allow-lists every SKU leaves nothing to slice away — the sub-KB must
// be the full KB, and the slice must still compile and answer. (The
// pins matter: a system nothing solves-for, requires, orders, or rules
// over — the seed catalog's plain "udp" — is correctly sliceable under
// any scenario that does not name it.)
func TestSliceTouchingEverythingEqualsFull(t *testing.T) {
	k := catalog.CaseStudy()
	sc := Scenario{Workloads: []string{"inference_app"}, NumServers: 64}
	seenProp := map[kb.Property]bool{}
	for i := range k.Systems {
		sc.PinnedSystems = append(sc.PinnedSystems, k.Systems[i].Name)
		for _, p := range k.Systems[i].Solves {
			if !seenProp[p] {
				seenProp[p] = true
				sc.Require = append(sc.Require, p)
			}
		}
	}
	sc.Context = map[string]bool{}
	for _, r := range k.Rules {
		for _, a := range r.Expr.Atoms(nil) {
			if name, ok := atomCtx(a); ok {
				sc.Context[name] = true
			}
		}
	}
	sc.AllowedHardware = map[kb.HardwareKind][]string{}
	for i := range k.Hardware {
		h := &k.Hardware[i]
		sc.AllowedHardware[h.Kind] = append(sc.AllowedHardware[h.Kind], h.Name)
	}

	sl := mustSlice(t, k, sc)
	if sl.systemsKept != len(k.Systems) {
		t.Fatalf("systems sliced away under a touch-everything scenario: kept %d of %d",
			sl.systemsKept, len(k.Systems))
	}
	if sl.rulesKept != len(k.Rules) {
		t.Fatalf("rules sliced away under a touch-everything scenario: kept %d of %d",
			sl.rulesKept, len(k.Rules))
	}
	if sl.skusKept != len(k.Hardware) {
		t.Fatalf("allow-listed SKUs pruned: kept %d of %d", sl.skusKept, len(k.Hardware))
	}

	// The slice being the whole KB, sliced and full must agree exactly.
	for _, mode := range []SliceMode{SliceOn, SliceOff} {
		eng, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetSliceMode(mode)
		if _, err := eng.Synthesize(sc); err != nil {
			t.Fatalf("slice=%v: %v", mode, err)
		}
	}
}

// TestSlicePinnedPrunedSKU: dominance pruning drops a SKU, then a
// scenario pins exactly that SKU. The pin restricts its kind, which
// must bypass pruning entirely — the sliced verdict and selected
// hardware must match the full engine's.
func TestSlicePinnedPrunedSKU(t *testing.T) {
	k := catalog.ScaledCatalog(2000)
	sc := sliceTestScenario()
	sl := mustSlice(t, k, sc)

	inSub := map[string]bool{}
	for i := range sl.sub.Hardware {
		inSub[sl.sub.Hardware[i].Name] = true
	}
	var pruned *kb.Hardware
	for i := range k.Hardware {
		if h := &k.Hardware[i]; h.Kind == kb.KindSwitch && !inSub[h.Name] {
			pruned = h
			break
		}
	}
	if pruned == nil {
		t.Fatal("dominance pruning kept every switch SKU at 2000 SKUs; test needs a pruned one")
	}

	pinned := sc
	pinned.PinnedHardware = map[kb.HardwareKind]string{kb.KindSwitch: pruned.Name}

	var reports []*Report
	for _, mode := range []SliceMode{SliceOn, SliceOff} {
		eng, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetSliceMode(mode)
		rep, err := eng.Synthesize(pinned)
		if err != nil {
			t.Fatalf("slice=%v: %v", mode, err)
		}
		reports = append(reports, rep)
	}
	if reports[0].Verdict != reports[1].Verdict {
		t.Fatalf("verdict mismatch pinning pruned SKU %q: sliced=%v full=%v",
			pruned.Name, reports[0].Verdict, reports[1].Verdict)
	}
	for i, rep := range reports {
		if rep.Verdict == Feasible && rep.Design.Hardware[kb.KindSwitch] != pruned.Name {
			t.Fatalf("engine %d ignored the pinned SKU: got %q want %q",
				i, rep.Design.Hardware[kb.KindSwitch], pruned.Name)
		}
	}
}

// TestSliceIdentityInCacheKey: the compiled-base cache key must carry
// the slice identity, and the snapshot envelope must refuse to revive a
// base under a different slice — otherwise a sliced base could alias a
// full one (or another slice) and serve answers for the wrong sub-KB.
func TestSliceIdentityInCacheKey(t *testing.T) {
	k := catalog.ScaledCatalog(1000)
	eng, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetSliceMode(SliceOn)
	sc := sliceTestScenario()
	if _, err := eng.Synthesize(sc); err != nil {
		t.Fatal(err)
	}

	eng.mu.RLock()
	keys := append([]string(nil), eng.baseOrder...)
	var base *compiled
	if len(keys) == 1 {
		base = eng.bases[keys[0]]
	}
	eng.mu.RUnlock()
	if base == nil {
		t.Fatalf("want exactly one cached base, got keys %q", keys)
	}
	if base.sliceID == "" {
		t.Fatal("sliced base carries no slice identity")
	}
	wantSuffix := "|slice:" + base.sliceID
	if !strings.HasSuffix(keys[0], wantSuffix) {
		t.Fatalf("cache key %q does not end in slice identity %q", keys[0], wantSuffix)
	}
	if keys[0] != base.sc.fingerprint()+wantSuffix {
		t.Fatalf("cache key %q is not fingerprint+slice identity", keys[0])
	}

	// Envelope guard: the snapshot names its slice; restoring it while
	// expecting a different slice (or none) is a mismatch, never a
	// silent alias.
	hash := kbContentHash(k)
	data := snapshotBase(base, hash)
	if _, err := restoreBaseSlice(k, base.sc, hash, data, nil); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("reviving a sliced snapshot as unsliced: got %v, want ErrSnapshotMismatch", err)
	}
	sl := mustSlice(t, k, sc)
	if sl.id != base.sliceID {
		t.Fatalf("recomputed slice id %q differs from compiled %q", sl.id, base.sliceID)
	}
	if _, err := restoreBaseSlice(k, base.sc, hash, data, sl); err != nil {
		t.Fatalf("reviving under the matching slice failed: %v", err)
	}
	other := *sl
	other.id = "0000000000000000"
	if _, err := restoreBaseSlice(k, base.sc, hash, data, &other); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("reviving under a different slice id: got %v, want ErrSnapshotMismatch", err)
	}
}

// TestSliceAutoThreshold: auto mode must leave seed-scale catalogs
// unsliced (sliced enumeration has no projection contract yet; see
// sliceAutoThreshold) and slice scaled ones.
func TestSliceAutoThreshold(t *testing.T) {
	sc := sliceTestScenario()

	seed, err := New(catalog.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	if st := seed.CacheStats(); st.SliceComputed != 0 {
		t.Fatalf("auto mode sliced a seed-scale catalog: %+v", st)
	}

	big, err := New(catalog.ScaledCatalog(1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	st := big.CacheStats()
	if st.SliceComputed == 0 {
		t.Fatalf("auto mode did not slice a %d-SKU catalog: %+v", 1000, st)
	}
	if st.SliceSKUsKept >= st.SliceSKUsIn {
		t.Fatalf("slice kept every SKU (%d of %d); pruning is inert",
			st.SliceSKUsKept, st.SliceSKUsIn)
	}
}

// TestUpdateKBReslicesUnderNewWorkloads: a workload edit moves the
// cone of every sliced base over that workload. UpdateKB must rebuild
// the base under the incoming KB's workload needs, so the next query
// hits it; a base rebuilt from the outgoing needs would sit in the
// cache under a slice no query derives, and the query would compile a
// second one.
func TestUpdateKBReslicesUnderNewWorkloads(t *testing.T) {
	k := catalog.ScaledCatalog(1000)
	sc := sliceTestScenario()
	e := mustEngine(t, k)
	e.SetSliceMode(SliceOn)
	if _, err := e.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	next := catalog.ScaledCatalog(1000)
	w := next.WorkloadByName("inference_app")
	w.Needs = append(w.Needs, "flow_telemetry")
	up, err := e.UpdateKB(next)
	if err != nil {
		t.Fatal(err)
	}
	if up.BasesUpdated != 1 {
		t.Fatalf("want the sliced base updated: %v", up)
	}
	if _, err := e.Synthesize(sc); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Misses != 1 || st.Hits != 1 || st.Size != 1 {
		t.Errorf("the query after UpdateKB must hit the updated base: %+v", st)
	}
	fresh := mustEngine(t, next)
	fresh.SetSliceMode(SliceOn)
	if err := fresh.Prewarm(sc); err != nil {
		t.Fatal(err)
	}
	if got, want := e.baseOrder, fresh.baseOrder; !slices.Equal(got, want) {
		t.Errorf("updated engine caches %v, a fresh engine over the new KB %v", got, want)
	}
}

// TestUpdateKBInstallsCollapsedSlicesOnce: two sliced bases that differ
// only in a pinned system's slice land on one cache key once UpdateKB
// removes that system. The update must install that key once, so the
// map, the FIFO order and BasesUpdated agree; a key queued twice would
// let a later eviction of its first copy delete the live base.
func TestUpdateKBInstallsCollapsedSlicesOnce(t *testing.T) {
	e := mustEngine(t, catalog.CaseStudy())
	e.SetSliceMode(SliceOn)
	for _, sc := range []Scenario{
		{Workloads: []string{"inference_app"}},
		{Workloads: []string{"inference_app"}, PinnedSystems: []string{"bwe"}},
	} {
		if _, err := e.Synthesize(sc); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.CacheStats(); st.Size != 2 {
		t.Fatalf("want two sliced bases before the update: %+v", st)
	}
	next := catalog.CaseStudy()
	next.Systems = slices.DeleteFunc(next.Systems, func(s kb.System) bool { return s.Name == "bwe" })
	up, err := e.UpdateKB(next)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.RLock()
	bases, order := len(e.bases), len(e.baseOrder)
	e.mu.RUnlock()
	if size := e.CacheStats().Size; bases != 1 || order != 1 || size != 1 || up.BasesUpdated != 1 {
		t.Errorf("bases %d, baseOrder %d, CacheStats.Size %d, BasesUpdated %d; want all 1",
			bases, order, size, up.BasesUpdated)
	}
}
