package netarch_test

import (
	"testing"

	"netarch"
)

// TestWarmStartRoundTrip drives the full warm-start loop through the
// public facade: solve with a cache dir, flush the snapshot (now carrying
// the warm profile), restart into a fresh engine over the same dir, and
// prove the revived profile changes nothing about correctness.
func TestWarmStartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sc := netarch.Scenario{Workloads: []string{"inference_app"}}

	eng1, err := netarch.NewEngine(caseStudyAllKB())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	eng1.SetWarmStart(true)
	first, err := eng1.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng1.FlushDiskCache(); n == 0 {
		t.Fatal("flush persisted no snapshots after a warm-start solve")
	}

	eng2, err := netarch.NewEngine(caseStudyAllKB())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	eng2.SetWarmStart(true)
	second, err := eng2.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng2.CacheStats(); st.DiskHits == 0 {
		t.Fatalf("restarted engine revived nothing from disk: %+v", st)
	}
	if second.Verdict != first.Verdict {
		t.Fatalf("warm-started verdict %v, cold %v", second.Verdict, first.Verdict)
	}
	// A warm start may legitimately steer the solver to a different
	// model, so validate the design rather than comparing models.
	if second.Verdict == netarch.Feasible {
		chk, err := eng2.Check(*second.Design, sc)
		if err != nil {
			t.Fatal(err)
		}
		if chk.Verdict != netarch.Feasible {
			t.Fatalf("warm-started design fails its own check: %v", chk.Explanation)
		}
	}
}
