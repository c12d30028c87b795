package netarch_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"netarch"
	"netarch/internal/catalog"
)

// This file is the facade-level worker-count differential for
// enumeration: for the §5.1 case-study queries, EnumerateCtx must return
// identical Designs, Truncated, and Reason whatever the worker count.
// SetWorkers sizes only the compile's shard conversion, whose base is
// byte-identical for every count, so these tests gate that the compile
// parallelism never leaks into an answer. `make verify` runs them
// explicitly.

// caseStudyAllKB mirrors the §5.1 experiment harness: the case-study
// catalog plus the batch-analytics and storage workloads of Q1/Q3.
func caseStudyAllKB() *netarch.KB {
	k := netarch.CaseStudy()
	k.Workloads = append(k.Workloads, catalog.BatchAnalyticsWorkload(), catalog.StorageWorkload())
	return k
}

// sec51Scenarios builds the enumeration scenarios of the §5.1 queries.
// Q1's grown scenario freezes the server SKU at the baseline cost
// optimum, exactly as the experiment does.
func sec51Scenarios(t *testing.T, eng *netarch.Engine) map[string]netarch.Scenario {
	t.Helper()
	base, err := eng.Optimize(netarch.Scenario{
		Workloads: []string{"inference_app"},
	}, []netarch.Objective{{Kind: netarch.MinimizeCost}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Verdict != netarch.Feasible {
		t.Fatalf("Q1 baseline infeasible: %v", base.Explanation)
	}
	frozenServer := base.Design.Hardware[netarch.KindServer]
	return map[string]netarch.Scenario{
		"q1-baseline": {Workloads: []string{"inference_app"}},
		"q1-grown": {
			Workloads:      []string{"inference_app", "batch_analytics", "storage_backend"},
			PinnedHardware: map[netarch.HardwareKind]string{netarch.KindServer: frozenServer},
			Context:        map[string]bool{"pfc_enabled": true},
			NumServers:     128,
		},
		"q2-monitoring": {
			Workloads: []string{"inference_app"},
			Require:   []netarch.Property{"flow_telemetry", "detect_queue_length"},
		},
		"q2-sonata-pinned": {
			Workloads:     []string{"inference_app"},
			Require:       []netarch.Property{"flow_telemetry", "detect_queue_length"},
			PinnedSystems: []string{"sonata"},
		},
		"q3-cxl-off": {
			Workloads:  []string{"inference_app", "batch_analytics", "storage_backend"},
			NumServers: 64,
			Context:    map[string]bool{"pfc_enabled": true, "cxl_pooling": false},
		},
		"q3-cxl-on": {
			Workloads:  []string{"inference_app", "batch_analytics", "storage_backend"},
			NumServers: 64,
			Context:    map[string]bool{"pfc_enabled": true, "cxl_pooling": true},
		},
	}
}

// assertEnumEqual compares two enumeration results: designs, truncation
// and whether a budget tripped.
func assertEnumEqual(t *testing.T, name string, workers int, want, got *netarch.EnumerateResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Designs, want.Designs) {
		t.Errorf("%s workers=%d: Designs diverge from workers=1", name, workers)
	}
	if got.Truncated != want.Truncated || got.Reason != want.Reason {
		t.Errorf("%s workers=%d: truncation diverges: got (%v,%q), want (%v,%q)",
			name, workers, got.Truncated, got.Reason, want.Truncated, want.Reason)
	}
	if (got.Exhausted == nil) != (want.Exhausted == nil) {
		t.Errorf("%s workers=%d: Exhausted nil-ness diverges", name, workers)
	}
}

// workerEngine returns an engine whose every query compiles afresh on
// the given number of shard-conversion workers.
func workerEngine(t *testing.T, workers int) *netarch.Engine {
	t.Helper()
	eng, err := netarch.NewEngine(caseStudyAllKB())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetWorkers(workers)
	eng.SetCacheCapacity(0)
	return eng
}

func TestEnumerateParallelMatchesSequential(t *testing.T) {
	ref := workerEngine(t, 1)
	scenarios := sec51Scenarios(t, ref)
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	ctx := context.Background()
	for _, name := range names {
		sc := scenarios[name]
		for _, max := range []int{3, 12} {
			want, err := ref.EnumerateCtx(ctx, sc, max, netarch.Budget{})
			if err != nil {
				t.Fatalf("%s max=%d workers=1: %v", name, max, err)
			}
			for _, w := range []int{2, 8} {
				got, err := workerEngine(t, w).EnumerateCtx(ctx, sc, max, netarch.Budget{})
				if err != nil {
					t.Fatalf("%s max=%d workers=%d: %v", name, max, w, err)
				}
				assertEnumEqual(t, name, w, want, got)
			}
		}
	}
}

// constrainedForbid shrinks the design space of sc to the systems that
// appear in a handful of its own witness designs, forbidding everything
// else — guaranteed feasible, provably small, so a complete enumeration
// (Truncated=false) is cheap and the complete-path determinism can be
// checked end to end.
func constrainedForbid(t *testing.T, eng *netarch.Engine, sc netarch.Scenario) []string {
	t.Helper()
	seed, err := eng.EnumerateCtx(context.Background(), sc, 3, netarch.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seed.Designs) < 2 {
		t.Fatalf("seed enumeration found %d classes; space too small to constrain", len(seed.Designs))
	}
	allowed := map[string]bool{}
	for _, d := range seed.Designs {
		for _, s := range d.Systems {
			allowed[s] = true
		}
	}
	k := caseStudyAllKB()
	var forbid []string
	for _, s := range k.Systems {
		if !allowed[s.Name] {
			forbid = append(forbid, s.Name)
		}
	}
	sort.Strings(forbid)
	if len(forbid) == 0 {
		t.Fatal("constrained space kept everything; test is vacuous")
	}
	return forbid
}

func TestEnumerateParallelCompleteSpace(t *testing.T) {
	ref := workerEngine(t, 1)
	base := netarch.Scenario{Workloads: []string{"inference_app"}, NumServers: 64}
	sc := base
	sc.ForbiddenSystems = constrainedForbid(t, ref, base)
	ctx := context.Background()
	want, err := ref.EnumerateCtx(ctx, sc, 1000, netarch.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Truncated {
		t.Fatalf("constrained space must enumerate completely, got %d classes and %q",
			len(want.Designs), want.Reason)
	}
	if len(want.Designs) < 2 {
		t.Fatalf("constrained space too small to be a real enumeration: %d classes", len(want.Designs))
	}
	for _, w := range []int{2, 8} {
		got, err := workerEngine(t, w).EnumerateCtx(ctx, sc, 1000, netarch.Budget{})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertEnumEqual(t, "complete-space", w, want, got)
	}
}
