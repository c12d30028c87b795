package sat

import "math"

// This file implements the solver's two flat slabs: the clause arena and
// the watch table. The clause arena holds the clause database as one flat
// slab of uint32 words (MiniSat's RegionAllocator design — Eén &
// Sörensson), replacing the per-clause heap objects the solver used
// before. A clause is addressed by a cref, its word offset into the slab,
// and stores its metadata inline. An original (problem) clause has a
// one-word header; only a learnt clause carries the LBD and activity
// words, because only DB reduction reads them:
//
//	original:  word 0: size<<2 | learnt<<1 | deleted; words 1…: literals
//	learnt:    word 0: the same header word
//	           word 1: LBD
//	           words 2–3: activity (float64 bits, little-halves order)
//	           words 4…: literals
//
// A 3-literal original clause takes 4 words, a learnt one 7.
//
// Binary clauses are not in the arena at all (Chu, Harwood & Stuckey,
// "Cache conscious data structures for Boolean satisfiability solvers",
// JSAT 2009): a binary clause (a ∨ b) is exactly its two watchers, one
// in ¬a's list with blocker b and one in ¬b's list with blocker a, each
// tagged crefBinary (see watcher). Propagation decides a binary watcher
// from its blocker alone, and a literal a binary clause implies records
// the clause's other literal as its reason (see reasonBinary).
//
// The payoffs over heap clauses:
//
//   - Allocation: adding a clause is a slab append — no per-clause
//     object, no separate literal array, no pointer for the GC to trace.
//     The slab itself is pointer-free, so GC scan cost is O(1) in the
//     clause count.
//   - Locality: propagation walks literals that sit next to their
//     metadata in one contiguous region instead of chasing a pointer per
//     clause, and never leaves the watch list for a binary clause.
//   - Clone: a deep copy of the clause database is one slab copy, and
//     clause identity survives for free — a cref means the same clause in
//     every copy, so watch lists and reason references copy verbatim with
//     no forwarding marks, translation maps, or clone locks. The copy
//     carries headroom, so the clauses a query adds append in place.
//   - Snapshot: the slab serializes (and validates) directly.
//
// Deleted clauses leave garbage words behind; compactArena reclaims them
// in place once they exceed a fraction of the slab (see maybeCompact),
// preserving arena order — and hence watch-order determinism — exactly.
//
// The watch table applies the same idea to the watch lists: every list
// lives in one pointer-free watcher slab, located by an {off, n, cap}
// span per literal (see watchTable). A list that fills moves to the
// slab's tail with twice the room (or grows in place when it already
// ends there), leaving a garbage run behind. Garbage is reclaimed only
// at safe points, where no list is being walked: reduceDB (through
// maybeCompact) and ResetRun, a compiled base's freeze point, which
// lays the lists out back to back so the base and its clones hold no
// garbage. Moving a list never reorders it, so searches do not depend
// on where lists sit.

// cref addresses a clause: the word offset of its header in the arena.
type cref uint32

// crefUndef is the nil clause reference.
const crefUndef cref = ^cref(0)

// crefBinary tags a reference that stands for a binary clause rather
// than an arena clause; arena offsets stay below it. A binary watcher's
// cref is crefBinary, or crefBinary|binLearnt for a learnt binary. A
// binary reason or conflict carries a literal in the low bits instead
// (see reasonBinary). crefUndef, all ones, is never a binary reason:
// literals stay far below 2^31-1.
const crefBinary cref = 1 << 31

// binLearnt marks a binary watcher as belonging to a learnt clause.
const binLearnt cref = 1

// binary reports whether c is a binary tag rather than an arena offset.
// crefUndef counts as binary; callers test for it first.
func (c cref) binary() bool { return c&crefBinary != 0 }

// reasonBinary is the reason recorded for a literal a binary clause
// implies: the tag plus the clause's other literal, which is false.
func reasonBinary(other lit) cref { return crefBinary | cref(other) }

// other returns the literal a binary reason or conflict carries.
func (c cref) other() lit { return lit(c &^ crefBinary) }

// Header word 0 flags, and the header sizes: one word for an original
// clause, four for a learnt one.
const (
	clsLearnt  = 1 << 1
	clsDeleted = 1 << 0

	origHeaderWords   = 1
	learntHeaderWords = 4
)

// headerWords is the header size of the clause whose word 0 is hdr.
func headerWords(hdr lit) int {
	return origHeaderWords + (learntHeaderWords-origHeaderWords)*int(hdr>>1&1)
}

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
		a.data = append(a.data, hdr|clsLearnt, 0, 0, 0)
	} else {
		a.data = append(a.data, hdr)
	}
	a.data = append(a.data, lits...)
	return c
}

// reserve grows the slab's capacity to hold at least extra more words
// without reallocating. Capacity-only: the slab's contents, length, and
// every cref are unchanged, so snapshots and clones are byte-identical
// with or without the call.
func (a *arena) reserve(extra int) {
	if len(a.data)+extra > cap(a.data) {
		a.data = grown(a.data, extra)
	}
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
	a.wasted += a.words(c)
}

// words is the clause's footprint in the slab: header plus literals.
func (a *arena) words(c cref) int { return headerWords(a.data[c]) + a.size(c) }

// The LBD and activity accessors read words only a learnt clause has.
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
	hdr := a.data[c]
	off := c + cref(headerWords(hdr))
	end := off + cref(hdr>>2)
	return a.data[off:end:end]
}

// maybeCompact reclaims garbage once deleted clauses hold more than a
// quarter of a non-trivial arena, and lays the watch lists out afresh
// once abandoned watcher runs hold more than half of a non-trivial
// watcher slab. Callers must hold no crefs or watch lists across the
// call (compaction relocates both); the solver invokes it only from
// reduceDB, where none are held.
func (s *Solver) maybeCompact() {
	if s.ca.wasted*4 > len(s.ca.data) && s.ca.wasted > 1<<12 {
		s.compactArena()
	}
	if t := &s.watches; t.wasted*2 > len(t.slab) && t.wasted > 1<<12 {
		t.compact(nil, headroom(2*(len(t.slab)-t.wasted)))
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
		n := headerWords(a.data[r]) + int(a.data[r]>>2)
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

	// Pass 2: rewrite the reference holders. Binary watchers and reasons
	// name no arena clause and pass through unchanged. Deleted clauses
	// are gone: their watchers are dropped and their reasons cleared.
	// reduceDB never deletes a locked clause, so a solver that built its
	// own arena has no deleted reason; a restored snapshot's reasons are
	// untrusted input, and clearing is safe there too because only a
	// level-0 assignment can keep a deleted reason and level-0 reasons
	// are never walked by analyze or analyzeFinal.
	for i, c := range s.clauses {
		s.clauses[i] = reloc(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = reloc(c)
	}
	for v, c := range s.reason {
		if c.binary() {
			continue // crefUndef or a binary reason
		}
		if wasDeleted(c, oldOffs) {
			s.reason[v] = crefUndef
		} else {
			s.reason[v] = reloc(c)
		}
	}
	for li := range s.watches.spans {
		sp := &s.watches.spans[li]
		ws := s.watches.slab[sp.off : sp.off+sp.n]
		n := 0
		for _, wt := range ws {
			if !wt.c.binary() {
				if wasDeleted(wt.c, oldOffs) {
					continue
				}
				wt.c = reloc(wt.c)
			}
			ws[n] = wt
			n++
		}
		sp.n = uint32(n)
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

// span locates one literal's watch list in the watcher slab: n watchers
// at slab[off:off+n], with room for cap before the list must move.
type span struct{ off, n, cap uint32 }

// watchTable holds every watch list in one flat watcher slab, indexed by
// internal literal through a span per literal. Slab and spans are
// pointer-free, so the garbage collector never scans them, and a copy of
// the whole table is two slice copies. A push onto a full list grows it
// in place when it ends at the slab's tail and otherwise moves it to the
// tail with twice the room; the run it leaves behind is garbage (counted
// in wasted) until compact lays every list out back to back again.
// Moving a list never reorders it, so propagation order, and hence the
// search, does not depend on where a list sits.
type watchTable struct {
	spans  []span
	slab   []watcher
	wasted int
}

// minWatchRoom is the room a list gets on its first push.
const minWatchRoom = 2

// push appends w to literal l's list. It may move the slab, so callers
// holding a slice of the slab re-slice after the call; the other lists'
// spans are unchanged.
func (t *watchTable) push(l lit, w watcher) {
	sp := &t.spans[l]
	if sp.n == sp.cap {
		t.grow(sp)
	}
	t.slab[sp.off+sp.n] = w
	sp.n++
}

// grow doubles the room of sp's full list: in place when the list ends
// at the slab's tail, otherwise by moving it to the tail. When the slab
// itself is full it doubles too, so a search that moves many lists
// copies the slab once or twice rather than at every quarter of growth.
// A list's room is never read before it is written, so extending into
// the slab's spare capacity needs no zero-fill.
func (t *watchTable) grow(sp *span) {
	room := sp.cap + max(sp.cap, minWatchRoom)
	off := sp.off
	if int(sp.off+sp.cap) != len(t.slab) {
		off = uint32(len(t.slab))
		t.wasted += int(sp.cap)
	}
	end := int(off + room)
	if end > cap(t.slab) {
		t.slab = grown(t.slab, max(len(t.slab), end-len(t.slab)))
	}
	t.slab = t.slab[:end]
	if off != sp.off {
		copy(t.slab[off:], t.slab[sp.off:sp.off+sp.n])
	}
	sp.off, sp.cap = off, room
}

// compact lays every list out back to back in literal order, in a fresh
// slab with capacity for extra more watchers. Each list gets room for
// exactly its watchers plus room[l] more (room may be nil). Lists keep
// their order.
func (t *watchTable) compact(room []uint32, extra int) {
	total := t.live()
	for _, r := range room {
		total += int(r)
	}
	slab := make([]watcher, total, total+extra)
	off := uint32(0)
	for i := range t.spans {
		sp := &t.spans[i]
		copy(slab[off:], t.slab[sp.off:sp.off+sp.n])
		sp.off, sp.cap = off, sp.n
		if room != nil {
			sp.cap += room[i]
		}
		off += sp.cap
	}
	t.slab, t.wasted = slab, 0
}

// live counts the watchers in all lists.
func (t *watchTable) live() int {
	n := 0
	for _, sp := range t.spans {
		n += int(sp.n)
	}
	return n
}

// clone copies spans and slab verbatim, with room for extraSpans more
// literals. The slab gets the headroom of a slab twice its length: a
// list that moves takes twice its room at the tail. It is read-only on
// t.
func (t *watchTable) clone(extraSpans int) watchTable {
	return watchTable{
		spans:  grown(t.spans, extraSpans),
		slab:   grown(t.slab, headroom(2*len(t.slab))),
		wasted: t.wasted,
	}
}
