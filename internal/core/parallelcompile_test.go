package core

import (
	"bytes"
	"testing"
)

// TestParallelCompileByteIdentity is the tentpole differential for the
// sharded CNF conversion: for every §5.1 query shape, the compiled base
// serialized through snapshotBase must be byte-identical whether the
// assertion shards were converted by 1, 2, or 8 workers. Everything
// downstream — clause order, auxiliary variable numbering, the solver's
// watch setup — hangs off this, so one byte of
// divergence here would surface as worker-count-dependent answers.
func TestParallelCompileByteIdentity(t *testing.T) {
	k := caseStudyKB()
	cases := sec51Scenarios(t, mustEngine(t, k))
	hash := kbContentHash(k)
	for _, tc := range cases {
		shape := baseShape(&tc.sc)
		var want []byte
		for _, w := range []int{1, 2, 8} {
			e := mustEngine(t, k) // fresh engine: no cached base can leak across counts
			e.SetWorkers(w)
			base, err := e.compileBaseWith(e.kbSnapshot(), &shape, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			snap := snapshotBase(base, hash)
			if w == 1 {
				want = snap
				continue
			}
			if !bytes.Equal(snap, want) {
				t.Errorf("%s: compiled base for workers=%d differs from sequential (%d vs %d bytes)",
					tc.name, w, len(snap), len(want))
			}
		}
	}
}
