package logic

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"netarch/internal/sat"
)

// ShardKey is the structural content hash of one assertion formula. Two
// formulas share a key exactly when they are structurally identical,
// including variable indices — any vocabulary renumbering therefore
// changes the key and forces a reconversion, which is what makes reuse
// across compiles sound (see ConvertShardsDelta).
type ShardKey [sha256.Size]byte

// shard is the conversion result of a single assertion: the clause buffer
// produced by a private Tseitin converter whose auxiliary variables are
// numbered locally from base+1. Once built, a shard is immutable — the
// merge step copies literals out rather than shifting them in place, so
// the same shard can be spliced into any number of later compiles.
type shard struct {
	key     ShardKey
	base    int // vocabulary size the shard was converted at
	clauses []Clause
	numAux  int
}

// ShardSet records the per-assertion conversion results of one
// ConvertShardsDelta call so the next call over an edited assertion list
// can reuse the unchanged shards. The set is immutable after creation
// and safe to share across goroutines.
type ShardSet struct {
	shards []shard

	// Reused and Converted report how the producing call sourced its
	// shards: cache hits against the previous set vs fresh Tseitin runs.
	Reused    int
	Converted int
}

// Len returns the number of assertion shards in the set.
func (s *ShardSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.shards)
}

// hashFormula serializes f structurally (kind byte; variable index for
// KindVar; arg count then args for connectives — a prefix code, so the
// encoding is injective) into buf and returns its SHA-256 together with
// the grown buffer for reuse.
func hashFormula(f Formula, buf []byte) (ShardKey, []byte) {
	buf = appendFormula(buf[:0], f)
	return sha256.Sum256(buf), buf
}

func appendFormula(buf []byte, f Formula) []byte {
	buf = append(buf, byte(f.kind))
	switch f.kind {
	case KindVar:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.v))
	case KindNot, KindAnd, KindOr:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.args)))
		for _, a := range f.args {
			buf = appendFormula(buf, a)
		}
	}
	return buf
}

// ConvertShards converts a sequence of assertions to one CNF by converting
// each assertion independently — possibly on a pool of workers — and
// merging the per-assertion clause buffers deterministically.
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
	cnf, _ := ConvertShardsDelta(base, fs, nil, workers)
	return cnf
}

// ConvertShardsDelta is ConvertShards with shard-level reuse: assertions
// whose content hash matches a shard in prev (the ShardSet returned by an
// earlier call) skip Tseitin conversion entirely and splice the cached
// clause buffer instead. Pass prev == nil for a cold conversion.
//
// The output is byte-identical to ConvertShards(base, fs, …) regardless
// of prev, the worker count, or how the assertion list was edited
// (additions, removals, edits, reorders). The argument: a shard's clause
// buffer is a pure function of (shardBase, formula) — Tseitin allocates
// aux variables and emits clauses in a deterministic structural order —
// so a cached shard converted at shardBase equals the fresh shard at the
// current base with every aux variable v > shardBase renamed to
// base + (v − shardBase). The merge applies exactly that renaming (plus
// the usual prefix-sum offset) while copying literals into a fresh
// buffer, so cached and fresh shards are indistinguishable downstream.
// Reuse is keyed on the structural hash including variable indices:
// a hash match implies the cached formula is identical to the one the
// caller just built against the *current* vocabulary, whose atoms are
// therefore all ≤ base — the shard contract holds even when the
// vocabulary shrank since the shard was converted.
//
// The returned ShardSet snapshots this call's shards (reused ones share
// clause buffers with prev; both sets stay valid) for the next delta.
func ConvertShardsDelta(base int, fs []Formula, prev *ShardSet, workers int) (*CNF, *ShardSet) {
	shards := make([]shard, len(fs))

	var prevByKey map[ShardKey]*shard
	if prev != nil && len(prev.shards) > 0 {
		prevByKey = make(map[ShardKey]*shard, len(prev.shards))
		for i := range prev.shards {
			prevByKey[prev.shards[i].key] = &prev.shards[i]
		}
	}

	var reused, converted atomic.Int64
	convert := func(i int, buf []byte) []byte {
		var key ShardKey
		key, buf = hashFormula(fs[i], buf)
		if old, ok := prevByKey[key]; ok {
			shards[i] = *old
			reused.Add(1)
			return buf
		}
		cv := &Converter{CNF: &CNF{NumVars: base}}
		cv.Assert(fs[i])
		shards[i] = shard{key: key, base: base, clauses: cv.CNF.Clauses, numAux: cv.CNF.NumVars - base}
		converted.Add(1)
		return buf
	}
	if workers > len(fs) {
		workers = len(fs)
	}
	if workers <= 1 {
		var buf []byte
		for i := range fs {
			buf = convert(i, buf)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				var buf []byte
				for {
					i := int(next.Add(1)) - 1
					if i >= len(fs) {
						return
					}
					buf = convert(i, buf)
				}
			}()
		}
		wg.Wait()
	}

	nClauses, nLits := 0, 0
	for i := range shards {
		nClauses += len(shards[i].clauses)
		for _, cl := range shards[i].clauses {
			nLits += len(cl)
		}
	}
	out := &CNF{Clauses: make([]Clause, 0, nClauses)}
	slab := make([]sat.Lit, 0, nLits)
	off := 0
	for i := range shards {
		sh := &shards[i]
		// Rename this shard's local aux variables (> sh.base) into the
		// merged numbering: past the current base and the aux blocks of
		// every earlier shard. Named atoms (≤ sh.base) are global and
		// pass through unchanged. Literals are copied into a fresh slab —
		// shard buffers are immutable so they can be reused next delta.
		delta := base + off - sh.base
		for _, cl := range sh.clauses {
			start := len(slab)
			for _, l := range cl {
				if l.Var() > sh.base {
					s := sat.Lit(l.Var() + delta)
					if l < 0 {
						s = -s
					}
					slab = append(slab, s)
				} else {
					slab = append(slab, l)
				}
			}
			out.Clauses = append(out.Clauses, slab[start:len(slab):len(slab)])
		}
		off += sh.numAux
	}
	out.NumVars = base + off
	return out, &ShardSet{shards: shards, Reused: int(reused.Load()), Converted: int(converted.Load())}
}
