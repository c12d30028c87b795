package sat

import "math"

// This file implements the clause arena: the clause database as one flat
// slab of uint32 words (MiniSat's RegionAllocator design — Eén &
// Sörensson), replacing the per-clause heap objects the solver used
// before. A clause is addressed by a cref, its word offset into the slab,
// and stores its metadata inline:
//
//	word 0:      size<<2 | learnt<<1 | deleted
//	word 1:      LBD
//	words 2–3:   activity (float64 bits, little-halves order)
//	words 4…:    the literals
//
// The payoffs over heap clauses:
//
//   - Allocation: adding a clause is a slab append — no per-clause
//     object, no separate literal array, no pointer for the GC to trace.
//     The slab itself is pointer-free, so GC scan cost is O(1) in the
//     clause count.
//   - Locality: propagation walks literals that sit next to their
//     metadata in one contiguous region instead of chasing a pointer per
//     clause.
//   - Clone: a deep copy of the clause database is one slab copy, and
//     clause identity survives for free — a cref means the same clause in
//     every copy, so watch lists and reason references copy verbatim with
//     no forwarding marks, translation maps, or clone locks.
//   - Snapshot: the slab serializes (and validates) directly.
//
// Deleted clauses leave garbage words behind; compact() reclaims them
// in place once they exceed a fraction of the slab (see maybeCompact),
// preserving arena order — and hence watch-order determinism — exactly.

// cref addresses a clause: the word offset of its header in the arena.
type cref uint32

// crefUndef is the nil clause reference.
const crefUndef cref = ^cref(0)

// clsHeaderWords is the per-clause metadata size in words.
const clsHeaderWords = 4

const (
	clsLearnt  = 1 << 1
	clsDeleted = 1 << 0
)

// arena is the flat clause slab. data is declared []lit (lit is a
// uint32) so literal access needs no casts; header words are stored as
// lit-typed raw uint32s and cast by the accessors.
type arena struct {
	data []lit
	// wasted counts the words occupied by deleted clauses, the trigger
	// for compaction.
	wasted int
}

// alloc appends a clause and returns its reference.
func (a *arena) alloc(lits []lit, learnt bool) cref {
	c := cref(len(a.data))
	hdr := lit(len(lits)) << 2
	if learnt {
		hdr |= clsLearnt
	}
	a.data = append(a.data, hdr, 0, 0, 0)
	a.data = append(a.data, lits...)
	return c
}

// reserve grows the slab's capacity to hold at least extra more words
// without reallocating. Capacity-only: the slab's contents, length, and
// every cref are unchanged, so snapshots and clones are byte-identical
// with or without the call.
func (a *arena) reserve(extra int) {
	need := len(a.data) + extra
	if need <= cap(a.data) {
		return
	}
	grown := make([]lit, len(a.data), need)
	copy(grown, a.data)
	a.data = grown
}

func (a *arena) size(c cref) int     { return int(a.data[c] >> 2) }
func (a *arena) learnt(c cref) bool  { return a.data[c]&clsLearnt != 0 }
func (a *arena) deleted(c cref) bool { return a.data[c]&clsDeleted != 0 }

// setDeleted marks the clause deleted and accounts its words as garbage.
func (a *arena) setDeleted(c cref) {
	if a.data[c]&clsDeleted != 0 {
		return
	}
	a.data[c] |= clsDeleted
	a.wasted += clsHeaderWords + a.size(c)
}

func (a *arena) lbd(c cref) int       { return int(a.data[c+1]) }
func (a *arena) setLBD(c cref, v int) { a.data[c+1] = lit(v) }

func (a *arena) activity(c cref) float64 {
	bits := uint64(a.data[c+2]) | uint64(a.data[c+3])<<32
	return math.Float64frombits(bits)
}

func (a *arena) setActivity(c cref, v float64) {
	bits := math.Float64bits(v)
	a.data[c+2] = lit(bits)
	a.data[c+3] = lit(bits >> 32)
}

// lits returns the clause's literal slice, aliasing the slab. The slice
// is invalidated by alloc (append may move the slab) and by compact;
// callers must not hold it across either.
func (a *arena) lits(c cref) []lit {
	off := c + clsHeaderWords
	return a.data[off : off+cref(a.size(c)) : off+cref(a.size(c))]
}

// clone returns a deep copy of the arena — the near-memcpy at the heart
// of Solver.Clone.
func (a *arena) clone() arena {
	return arena{data: append(make([]lit, 0, len(a.data)), a.data...), wasted: a.wasted}
}

// maybeCompact reclaims garbage once deleted clauses hold more than a
// quarter of a non-trivial slab. Callers must hold no crefs across the
// call (compaction relocates clauses); the solver invokes it only from
// reduceDB, where none are held.
func (s *Solver) maybeCompact() {
	if s.ca.wasted*4 > len(s.ca.data) && s.ca.wasted > 1<<12 {
		s.compactArena()
	}
}

// compactArena squeezes deleted clauses out of the arena in place and
// rewrites every clause reference (clause lists, watch lists, reasons).
// Live clauses keep their relative order, so watch lists keep their
// order and propagation — and hence the search — is unchanged; deleted
// watchers are dropped here exactly as propagate would have dropped them
// lazily. Compaction is a pure function of the solver state, so clones
// and snapshot-restored solvers compact identically.
func (s *Solver) compactArena() {
	a := &s.ca
	// Pass 1: slide live clauses down, recording old→new offsets. Both
	// lists are strictly increasing, so remapping is a binary search.
	oldOffs := s.gcOld[:0]
	newOffs := s.gcNew[:0]
	w := 0
	for r := 0; r < len(a.data); {
		n := clsHeaderWords + int(a.data[r]>>2)
		if a.data[r]&clsDeleted == 0 {
			oldOffs = append(oldOffs, cref(r))
			newOffs = append(newOffs, cref(w))
			if w != r {
				copy(a.data[w:w+n], a.data[r:r+n])
			}
			w += n
		}
		r += n
	}
	a.data = a.data[:w]
	a.wasted = 0
	s.gcOld, s.gcNew = oldOffs, newOffs

	reloc := func(c cref) cref {
		lo, hi := 0, len(oldOffs)
		for lo < hi {
			mid := (lo + hi) / 2
			if oldOffs[mid] < c {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return newOffs[lo]
	}

	// Pass 2: rewrite the reference holders. Deleted clauses are gone:
	// their watchers are dropped and their reasons cleared. reduceDB never
	// deletes a locked clause, so a solver that built its own arena has
	// no deleted reason; a restored snapshot's reasons are untrusted
	// input, and clearing is safe there too because only a level-0
	// assignment can keep a deleted reason and level-0 reasons are never
	// walked by analyze or analyzeFinal.
	for i, c := range s.clauses {
		s.clauses[i] = reloc(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = reloc(c)
	}
	for v, c := range s.reason {
		if c == crefUndef {
			continue
		}
		if wasDeleted(c, oldOffs) {
			s.reason[v] = crefUndef
		} else {
			s.reason[v] = reloc(c)
		}
	}
	for li := range s.watches {
		ws := s.watches[li]
		n := 0
		for _, wt := range ws {
			if wasDeleted(wt.c, oldOffs) {
				continue
			}
			ws[n] = watcher{c: reloc(wt.c), blocker: wt.blocker}
			n++
		}
		s.watches[li] = ws[:n]
	}
}

// wasDeleted reports whether c is absent from the sorted live-offset
// list — i.e. it referenced a clause compaction discarded.
func wasDeleted(c cref, live []cref) bool {
	lo, hi := 0, len(live)
	for lo < hi {
		mid := (lo + hi) / 2
		if live[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo == len(live) || live[lo] != c
}
