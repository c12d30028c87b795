package kb_test

import (
	"bytes"
	"runtime"
	"testing"

	"netarch/internal/kb"
)

// TestKBLoadAllocBudget pins the allocations of loading the §5.1
// case-study KB, the decode every one-shot CLI answer and every serve
// reload pays: one buffer for the input, one allocation per distinct
// string, and each slice allocated at its final length. It measured
// 1,719 allocs and 443,297 B (1,757 and 446,852 B under the race
// detector); encoding/json's Decoder took 5,447 and 558,480 B. The
// budgets have ~10% headroom.
func TestKBLoadAllocBudget(t *testing.T) {
	const budget, byteBudget = 1900, 490_000

	data := caseStudyJSON(t)
	load := func() {
		if _, err := kb.Load(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, load)
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		load()
	}
	runtime.ReadMemStats(&m1)
	perRun := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("case-study KB load (%d bytes): %.0f allocs/run, %d B/run", len(data), allocs, perRun)
	if allocs > budget {
		t.Errorf("case-study KB load: %.0f allocs/run; budget is %d", allocs, budget)
	}
	if perRun > byteBudget {
		t.Errorf("case-study KB load: %d B/run; budget is %d", perRun, byteBudget)
	}
}
