package core

import (
	"fmt"
	"testing"

	"netarch/internal/catalog"
)

// The scaled-catalog rows of BenchmarkSynthScaling and
// BenchmarkColdStart (the root package has their seed-catalog rows):
// relevance slicing on vs off at 5k/20k/50k SKUs. They live here because
// turning slicing off above the threshold takes newEngine's parameter. The slice=on series
// is the scale-out claim (50k-SKU synthesis within ~2× of the 200-SKU
// baseline); the off series is what every query would pay without the
// slicer (the 50k cold start takes seconds per compile).

// benchSlicings maps the row names to newEngine's threshold.
var benchSlicings = []struct {
	name  string
	above int
}{{"on", sliceAlways}, {"off", sliceNever}}

// benchSynth runs one inference_app synthesis on e and demands a design.
func benchSynth(b *testing.B, e *Engine) {
	b.Helper()
	rep, err := e.Synthesize(Scenario{Workloads: []string{"inference_app"}})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Verdict != Feasible {
		b.Fatal("expected feasible")
	}
}

// BenchmarkSynthScaling measures a warm synthesis: the base is compiled
// outside the timer (BenchmarkColdStart owns the first-query cost, and
// the unsliced 20k/50k tiers reach only one timed iteration, which
// would otherwise be pure compile time).
func BenchmarkSynthScaling(b *testing.B) {
	for _, skus := range []int{5000, 20000, 50000} {
		k := catalog.ScaledCatalog(skus)
		for _, mode := range benchSlicings {
			b.Run(fmt.Sprintf("skus=%d/slice=%s", skus, mode.name), func(b *testing.B) {
				e := slicingEngine(b, k, mode.above)
				benchSynth(b, e)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSynth(b, e)
				}
			})
		}
	}
}

// BenchmarkColdStart measures a fresh engine's first query.
func BenchmarkColdStart(b *testing.B) {
	for _, skus := range []int{5000, 20000, 50000} {
		k := catalog.ScaledCatalog(skus)
		for _, mode := range benchSlicings {
			b.Run(fmt.Sprintf("skus=%d/slice=%s", skus, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSynth(b, slicingEngine(b, k, mode.above))
				}
			})
		}
	}
}
