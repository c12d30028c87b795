package logic

import (
	"sync"
	"sync/atomic"

	"netarch/internal/sat"
)

// ConvertShards converts a sequence of assertions to one CNF by
// converting each assertion independently — possibly on a pool of
// workers — and merging the per-assertion clause buffers
// deterministically.
//
// Every variable occurring in fs must be ≤ base (the caller's vocabulary
// size when the assertion list was finished). Each assertion is converted
// by a private shard converter whose auxiliary variables are numbered from
// a local counter starting at base+1, with a per-shard Tseitin cache; the
// merge then rewrites assertion i's local aux variables to
// base + offset(i) + k, where offset(i) is the total aux count of
// assertions 0..i-1, and concatenates the clause buffers in assertion
// order.
//
// Because shard i's clauses are a pure function of (base, fs[i]) and the
// merge is a pure function of the shard sequence, the result is
// byte-identical for every worker count — workers trade CPU for latency,
// nothing else. The price relative to one shared converter is the loss of
// cross-assertion subformula caching: a subformula repeated across
// assertions gets one definition per assertion instead of one overall.
// (Within an assertion the cache still deduplicates.)
//
// The returned CNF has NumVars = base + total aux count, so callers can
// pad their vocabulary to cover the auxiliary block.
func ConvertShards(base int, fs []Formula, workers int) *CNF {
	shards := make([]*CNF, len(fs))
	convert := func(i int) {
		cv := &Converter{CNF: &CNF{NumVars: base}}
		cv.Assert(fs[i])
		shards[i] = cv.CNF
	}
	if workers > len(fs) {
		workers = len(fs)
	}
	if workers <= 1 {
		for i := range fs {
			convert(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(fs) {
						return
					}
					convert(i)
				}
			}()
		}
		wg.Wait()
	}

	n := 0
	for _, sh := range shards {
		n += len(sh.Clauses)
	}
	out := &CNF{NumVars: base, Clauses: make([]Clause, 0, n)}
	for _, sh := range shards {
		// Rename this shard's local aux variables (> base) in place, past
		// the aux blocks of every earlier shard. Named atoms (≤ base) are
		// global and pass through unchanged.
		if off := sat.Lit(out.NumVars - base); off > 0 {
			for _, cl := range sh.Clauses {
				for j, l := range cl {
					switch {
					case l > sat.Lit(base):
						cl[j] = l + off
					case l < -sat.Lit(base):
						cl[j] = l - off
					}
				}
			}
		}
		out.Clauses = append(out.Clauses, sh.Clauses...)
		out.NumVars += sh.NumVars - base
	}
	return out
}
