package netarch_test

import (
	"encoding/json"
	"testing"

	"netarch"
)

// TestProbedBaseDiskRoundTrip drives the compile-time probe through the
// disk tier: one engine compiles the §5.1 bases (each probed once before
// it is cached) and flushes them to a cache directory; a second engine
// over the same directory revives every base without compiling and must
// answer byte-identically, search effort (Spent conflicts and decisions)
// included — the revived base carries the same search prior.
func TestProbedBaseDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	queries := []struct {
		name string
		sc   netarch.Scenario
		cost bool // cost optimization instead of Synthesize
	}{
		{"inference_app", netarch.Scenario{Workloads: []string{"inference_app"}}, false},
		{"overconstrained-explain", netarch.Scenario{
			Workloads: []string{"inference_app"},
			Context: map[string]bool{
				"pfc_enabled": true, "flooding_enabled": true, "deadline_tight": true,
			},
			Require: []netarch.Property{"low_latency_stack"},
		}, false},
		{"q3-with-cxl", netarch.Scenario{
			Workloads:  []string{"inference_app", "batch_analytics", "storage_backend"},
			NumServers: 64,
			Context:    map[string]bool{"pfc_enabled": true, "cxl_pooling": true},
		}, true},
	}
	answer := func(eng *netarch.Engine, sc netarch.Scenario, cost bool) string {
		var v any
		if cost {
			res, err := eng.Optimize(sc, []netarch.Objective{{Kind: netarch.MinimizeCost}})
			if err != nil {
				t.Fatal(err)
			}
			res.Spent.Wall = 0
			v = res
		} else {
			rep, err := eng.Synthesize(sc)
			if err != nil {
				t.Fatal(err)
			}
			rep.Spent.Wall = 0
			v = rep
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	engine := func() *netarch.Engine {
		eng, err := netarch.NewEngine(caseStudyAllKB())
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SetCacheDir(dir); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	first := engine()
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = answer(first, q.sc, q.cost)
	}
	first.FlushDiskCache()
	compiled := first.CacheStats().Misses
	if compiled == 0 {
		t.Fatal("first engine compiled nothing")
	}

	revived := engine()
	for i, q := range queries {
		if got := answer(revived, q.sc, q.cost); got != want[i] {
			t.Errorf("%s: revived base answers differently:\n got %s\nwant %s", q.name, got, want[i])
		}
	}
	if st := revived.CacheStats(); st.Misses != 0 || st.DiskHits != compiled {
		t.Errorf("revived engine: %d compiles, %d disk hits; want 0 compiles, %d disk hits",
			st.Misses, st.DiskHits, compiled)
	}
}
