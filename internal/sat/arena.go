package sat

import (
	"math"
	"slices"
)

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
// A frozen solver goes one step further: ResetRun moves its problem
// binaries out of the watch table into an implTable, a read-only CSR
// table listing per literal the literals its binaries imply. Nothing
// writes the table after it is built, so Clone shares it by pointer
// instead of copying it; on a compiled base the problem binaries are
// most of the watchers. The arena itself is not shared: propagate swaps
// the watched literals inside arena clauses, so even an original
// clause's words are search state, and every clone copies them.
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
//     carries headroom, so the clauses a query adds append in place. A
//     frozen solver's problem binaries are not copied at all: the
//     implication table is shared.
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
// ends there), leaving a garbage run behind. When the slab itself is
// full, reclaim slides the lists down over the garbage inside the same
// slab before the slab is allowed to grow; ResetRun, a compiled base's
// freeze point, lays the lists out back to back in a fresh slab so the
// base and its clones hold no garbage. Moving a list never reorders it,
// so searches do not depend on where lists sit.

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
// quarter of a non-trivial arena. Callers must hold no crefs or watch
// lists across the call (compaction relocates both); the solver invokes
// it only from reduceDB, where none are held.
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

// implTable is a frozen solver's problem binaries as an implication
// table in compressed sparse row form: for a literal p below lits(),
// imp[off[p]:off[p+1]] lists the literals that p's binary clauses imply,
// in the order p's watch list held them. A binary clause (a ∨ b) appears
// twice, as b under ¬a and as a under ¬b, exactly where its two watchers
// stood. Literals at or beyond lits() (variables created after the
// freeze, such as a query's selectors) imply nothing here. The table is
// read-only once built: Clone, Snapshot and any number of concurrent
// searches share it, and compactArena, reduceDB and watchTable.compact
// never touch it.
type implTable struct {
	off []uint32
	imp []lit
}

// lits is the number of literals the table covers.
func (t *implTable) lits() int { return len(t.off) - 1 }

// of returns the literals p implies: none when t is nil or p is beyond
// the table.
func (t *implTable) of(p lit) []lit {
	if t == nil || int(p) >= t.lits() {
		return nil
	}
	return t.imp[t.off[p]:t.off[p+1]]
}

// freezeBinaries moves every problem binary out of the watch table into
// a new implication table. The new table lists, per literal, the old
// table's implications first and then the problem binaries of its watch
// list, in list order; the old table is only read, so clones that share
// it are unaffected. The watch lists keep their other watchers in order
// and are left with spare room for the caller to compact away. A solver
// with no problem binary gets no table.
func (s *Solver) freezeBinaries() {
	old := s.bins
	t := &s.watches
	off := make([]uint32, len(t.spans)+1)
	n := 0
	for li, sp := range t.spans {
		n += len(old.of(lit(li)))
		for _, w := range t.slab[sp.off : sp.off+sp.n] {
			if w.c == crefBinary {
				n++
			}
		}
		off[li+1] = uint32(n)
	}
	if n == 0 {
		s.bins = nil
		return
	}
	imp := make([]lit, 0, n)
	for li := range t.spans {
		imp = append(imp, old.of(lit(li))...)
		sp := &t.spans[li]
		ws := t.slab[sp.off : sp.off+sp.n]
		kept := 0
		for _, w := range ws {
			if w.c == crefBinary {
				imp = append(imp, w.blocker)
				continue
			}
			ws[kept] = w
			kept++
		}
		sp.n = uint32(kept)
	}
	s.bins = &implTable{off: off, imp: imp}
}

// watchTable holds every watch list in one flat watcher slab, indexed by
// internal literal through a span per literal. Slab and spans are
// pointer-free, so the garbage collector never scans them, and a copy of
// the whole table is two slice copies. A push onto a full list grows it
// in place when it ends at the slab's tail and otherwise moves it to the
// tail with twice the room; the run it leaves behind is garbage (counted
// in wasted) until the slab fills and reclaim slides the lists down over
// it, or compact lays every list out afresh. Moving a list never
// reorders it, so propagation order, and hence the search, does not
// depend on where a list sits.
type watchTable struct {
	spans  []span
	slab   []watcher
	wasted int
	// reclaims counts the reclaims since the slab last grew; byOff is
	// reclaim's scratch, the nonempty lists keyed by offset.
	reclaims int
	byOff    []uint64
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
// itself is full, reclaim first tries to make the room inside it;
// failing that the slab doubles, so a search that moves many lists
// copies the slab once or twice rather than at every quarter of growth.
// A list's room is never read before it is written, so extending into
// the slab's spare capacity needs no zero-fill.
func (t *watchTable) grow(sp *span) {
	room := sp.cap + max(sp.cap, minWatchRoom)
	off := t.growOffset(sp)
	if int(off+room) > cap(t.slab) && t.reclaim(int(room)) {
		off = t.growOffset(sp)
	}
	end := int(off + room)
	if end > cap(t.slab) {
		t.slab = grown(t.slab, max(len(t.slab), end-len(t.slab)))
		t.reclaims = 0
	}
	t.slab = t.slab[:end]
	if off != sp.off {
		t.wasted += int(sp.cap)
		copy(t.slab[off:], t.slab[sp.off:sp.off+sp.n])
	}
	sp.off, sp.cap = off, room
}

// maxReclaims bounds the reclaims per slab capacity: a search whose
// live watchers keep outgrowing the slab doubles it after that many,
// so the reclaims' sorts stay a constant number per doubling.
const maxReclaims = 2

// growOffset is where sp's list sits once grown: where it is when it
// ends at the slab's tail, otherwise at the tail.
func (t *watchTable) growOffset(sp *span) uint32 {
	if int(sp.off+sp.cap) == len(t.slab) {
		return sp.off
	}
	return uint32(len(t.slab))
}

// reclaim lays the lists out back to back in slab order, each with room
// for exactly its watchers, inside the slab's own capacity, so garbage
// runs and spare room become free space at the tail without a new slab.
// It runs only when the freed space would hold the room watchers a
// growing list needs, at least a quarter of the capacity would be free,
// and the slab has not been reclaimed maxReclaims times since it last
// grew (otherwise the slab had better grow); it reports whether it ran.
// Lists keep their order and all of their sp.n watchers, including any
// beyond a walk's write index, so propagate re-reads its own list's
// span after a push and carries on.
func (t *watchTable) reclaim(room int) bool {
	if t.reclaims == maxReclaims {
		return false
	}
	live, lists := 0, 0
	for _, sp := range t.spans {
		live += int(sp.n)
		lists += min(int(sp.n), 1)
	}
	if free := cap(t.slab) - live; free < room || 4*free < cap(t.slab) {
		return false
	}
	t.reclaims++
	keys := t.byOff[:0]
	if cap(keys) < lists {
		keys = make([]uint64, 0, lists)
	}
	for li := range t.spans {
		sp := &t.spans[li]
		if sp.n == 0 {
			*sp = span{}
			continue
		}
		keys = append(keys, uint64(sp.off)<<32|uint64(li))
	}
	slices.Sort(keys)
	w := uint32(0)
	for _, k := range keys {
		sp := &t.spans[uint32(k)]
		copy(t.slab[w:], t.slab[sp.off:sp.off+sp.n])
		sp.off, sp.cap = w, sp.n
		w += sp.n
	}
	t.slab, t.wasted, t.byOff = t.slab[:w], 0, keys
	return true
}

// compact lays every list out back to back in literal order, in a fresh
// slab. Each list gets room for exactly its watchers plus room[l] more
// (room may be nil), and the slab's capacity exceeds the lists' total
// room by spare watchers, free space at the tail for lists that later
// fill and move there. Lists keep their order.
func (t *watchTable) compact(room []uint32, spare int) {
	total := t.live()
	for _, r := range room {
		total += int(r)
	}
	slab := make([]watcher, total, total+spare)
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
	t.slab, t.wasted, t.reclaims = slab, 0, 0
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
// literals. The slab gets headroom for what one query adds: half its
// length plus 1024 watchers. A list the query's search pushes onto moves
// to the tail with twice its room, and once the headroom is used up
// reclaim recycles the runs the moves left behind, so the §5.1 cost and
// lexicographic optimizations run without copying the slab again.
// Headroom alone would have to be far larger: without reclaim, the
// busiest of them leaves a 3,522-watcher slab 9,192 watchers long. It is
// read-only on t.
func (t *watchTable) clone(extraSpans int) watchTable {
	return watchTable{
		spans:  grown(t.spans, extraSpans),
		slab:   grown(t.slab, len(t.slab)/2+1024),
		wasted: t.wasted,
	}
}
