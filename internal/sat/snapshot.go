package sat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file implements solver state serialization: Snapshot renders a
// level-0 solver into a self-contained byte string and RestoreSnapshot
// reconstructs a behaviorally identical solver from it. A restored solver
// relates to the original exactly as a Clone does (DESIGN.md §7): the
// clause database, watch-list order, trail, saved phases, VSIDS
// activities, and order heap are preserved verbatim, so a restored solver
// runs the same search, conflict for conflict. Snapshot is the substrate
// of the persistent compiled-base cache: a frozen compiled base can be
// written to disk and revived in another process without recompiling.
//
// The format (since version 2) serializes the clause arena verbatim — one length
// prefix and the raw slab words — so clause references (crefs) in the
// clause lists, reasons, and watch lists round-trip unchanged and encode
// cost is a single pass over flat memory. Binary clauses exist only as
// watchers (version 4), so a watcher and a reason say whether they name
// an arena clause or stand for a binary clause; a frozen solver's
// problem binaries follow as its implication table, in table order
// (version 5). Like Snapshot's other callers of the arena, encoding is
// read-only on the solver, so concurrent Snapshot/Clone calls on one
// frozen solver need no locking.
//
// The decoder treats its input as untrusted. Every count is bounded by
// the remaining input length before any allocation (memory stays O(input
// size)), the arena is re-walked clause by clause so every header, length,
// and literal is validated, every cref is checked against the set of
// valid clause starts, and the watch-list/trail invariants the search
// relies on are re-validated, so truncated, bit-flipped, or adversarial
// bytes yield a typed ErrBadSnapshot — never a panic, an OOM, or a solver
// whose later solve calls can fault.

// ErrBadSnapshot is returned (wrapped, with detail) by RestoreSnapshot
// when the input is not a well-formed solver snapshot.
var ErrBadSnapshot = errors.New("sat: malformed solver snapshot")

// snapshotVersion is the solver-section format version. Version 2
// introduced the arena clause database (serialized as the raw slab);
// version 3 dropped the per-solver restart unit, now a constant; version
// 4 keeps binary clauses out of the arena (watchers and reasons carry a
// binary tag) and gives original clauses a one-word header; version 5
// appends the frozen problem binaries' shared implication table. Bump it
// on any incompatible layout change; RestoreSnapshot rejects other
// versions.
const snapshotVersion = 5

// maxSnapshotVars bounds the variable count a snapshot may declare; it
// exists purely to keep arithmetic on 2*nVars comfortably inside int32
// literal space. Real instances are orders of magnitude smaller.
const maxSnapshotVars = 1 << 28

// Snapshot serializes the solver's complete search-relevant state. It may
// only be called at decision level 0 (like Clone) and panics otherwise.
//
// Per-run state is deliberately not captured, mirroring Clone: statistics,
// work budgets, pending interrupts, the last model/final conflict, an
// attached DRAT proof, and all Options (including any fault hook) are
// absent from the snapshot; RestoreSnapshot returns a solver with default
// options, and the caller re-applies what it needs.
func (s *Solver) Snapshot() []byte {
	if s.decisionLevel() != 0 {
		panic("sat: Snapshot called above decision level 0")
	}
	nWatchers := s.watches.live()
	nImps := 0
	if s.bins != nil {
		nImps = len(s.bins.imp)
	}
	buf := make([]byte, 0, 80+4*len(s.ca.data)+5*(len(s.clauses)+len(s.learnts))+10*nWatchers+3*nImps+15*s.nVars)

	u32 := func(v uint32) {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	uv := func(v uint64) {
		buf = binary.AppendUvarint(buf, v)
	}
	f64 := func(v float64) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}

	u32(snapshotVersion)
	uv(uint64(s.nVars))
	if s.okay {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	uv(uint64(s.qhead))
	f64(s.varInc)
	f64(s.claInc)
	f64(s.maxLearnts)
	f64(s.learntGrowth)

	// The clause arena, verbatim: word count then raw little-endian words.
	// Deleted-but-unreclaimed clauses ride along; the decoder recomputes
	// the garbage accounting.
	uv(uint64(len(s.ca.data)))
	off := len(buf)
	buf = append(buf, make([]byte, 4*len(s.ca.data))...)
	for _, w := range s.ca.data {
		binary.LittleEndian.PutUint32(buf[off:], uint32(w))
		off += 4
	}

	uv(uint64(len(s.clauses)))
	for _, c := range s.clauses {
		uv(uint64(c))
	}
	uv(uint64(len(s.learnts)))
	for _, c := range s.learnts {
		uv(uint64(c))
	}

	uv(uint64(len(s.trail)))
	for _, l := range s.trail {
		uv(uint64(l))
	}

	// Saved phases, one bit per variable.
	pol := make([]byte, (s.nVars+7)/8)
	for v := 0; v < s.nVars; v++ {
		if s.polarity[v] {
			pol[v/8] |= 1 << (v % 8)
		}
	}
	buf = append(buf, pol...)

	// VSIDS activities: the pristine post-compile case is all-zero, so a
	// flag byte elides the array entirely.
	allZero := true
	for _, a := range s.activity {
		if a != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		for _, a := range s.activity {
			f64(a)
		}
	}

	uv(uint64(len(s.order.heap)))
	for _, v := range s.order.heap {
		uv(uint64(v))
	}

	// Reasons: 0 for none, 2c+1 for arena clause c, 2o+2 for a binary
	// clause whose other literal is o.
	for _, c := range s.reason {
		switch {
		case c == crefUndef:
			uv(0)
		case c.binary():
			uv(2*uint64(c.other()) + 2)
		default:
			uv(2*uint64(c) + 1)
		}
	}

	// Watchers: the total, then per literal the list length and each
	// watcher's kind (0 a problem binary, 1 a learnt binary, c+2 arena
	// clause c) and blocker.
	uv(uint64(nWatchers))
	for _, sp := range s.watches.spans {
		uv(uint64(sp.n))
		for _, w := range s.watches.slab[sp.off : sp.off+sp.n] {
			if w.c.binary() {
				uv(uint64(w.c & binLearnt))
			} else {
				uv(uint64(w.c) + 2)
			}
			uv(uint64(w.blocker))
		}
	}

	// The shared implication table (version 5): the number of literals
	// it covers (0 for no table), the total implication count, then per
	// literal the count and each implied literal.
	if s.bins == nil {
		uv(0)
		return buf
	}
	uv(uint64(s.bins.lits()))
	uv(uint64(len(s.bins.imp)))
	for li := 0; li < s.bins.lits(); li++ {
		imps := s.bins.of(lit(li))
		uv(uint64(len(imps)))
		for _, q := range imps {
			uv(uint64(q))
		}
	}
	return buf
}

// snapReader is a bounds-checked cursor over untrusted snapshot bytes.
type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) rem() int { return len(r.b) - r.off }

func (r *snapReader) fail(what string) error {
	return fmt.Errorf("%w: truncated or oversized %s at offset %d", ErrBadSnapshot, what, r.off)
}

func (r *snapReader) u32(what string) (uint32, error) {
	if r.rem() < 4 {
		return 0, r.fail(what)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *snapReader) byte(what string) (byte, error) {
	if r.rem() < 1 {
		return 0, r.fail(what)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *snapReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, r.fail(what)
	}
	r.off += n
	return v, nil
}

// count reads a length prefix and rejects values that could not possibly
// be backed by the remaining input (each counted element occupies at
// least one encoded byte), bounding every allocation by the input size.
func (r *snapReader) count(what string) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(r.rem()) {
		return 0, r.fail(what)
	}
	return int(v), nil
}

func (r *snapReader) f64(what string) (float64, error) {
	if r.rem() < 8 {
		return 0, r.fail(what)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

// finiteNonNeg validates heuristic scalars: NaN, infinities, and negative
// values would send the search loop or the clause-DB sizing haywire.
func finiteNonNeg(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// crefIndex locates c in the sorted list of valid clause starts,
// returning its index or -1.
func crefIndex(starts []cref, c cref) int {
	i := sort.Search(len(starts), func(i int) bool { return starts[i] >= c })
	if i < len(starts) && starts[i] == c {
		return i
	}
	return -1
}

// RestoreSnapshot reconstructs a solver from Snapshot output. The restored
// solver behaves identically to the snapshotted one: same clause database,
// same watch order, same trail and heuristic state, hence the same search.
// Options, budgets, fault hooks, and proofs are not restored; set them on
// the returned solver as needed.
//
// The input is untrusted: any structural violation returns an error
// wrapping ErrBadSnapshot. Allocation is bounded by the input length, so
// hostile length prefixes cannot OOM the process.
func RestoreSnapshot(data []byte) (*Solver, error) {
	r := &snapReader{b: data}
	version, err := r.u32("version")
	if err != nil {
		return nil, err
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported solver snapshot version %d (have %d)",
			ErrBadSnapshot, version, snapshotVersion)
	}
	nv64, err := r.uvarint("variable count")
	if err != nil {
		return nil, err
	}
	// Every variable owns at least one polarity bit per 8 plus a reason
	// entry, so nVars beyond the remaining byte count is unsatisfiable.
	if nv64 > uint64(r.rem()) || nv64 > maxSnapshotVars {
		return nil, r.fail("variable count")
	}
	nVars := int(nv64)
	okayByte, err := r.byte("okay flag")
	if err != nil {
		return nil, err
	}
	qh64, err := r.uvarint("qhead")
	if err != nil {
		return nil, err
	}
	varInc, err := r.f64("varInc")
	if err != nil {
		return nil, err
	}
	claInc, err := r.f64("claInc")
	if err != nil {
		return nil, err
	}
	maxLearnts, err := r.f64("maxLearnts")
	if err != nil {
		return nil, err
	}
	learntGrowth, err := r.f64("learntGrowth")
	if err != nil {
		return nil, err
	}
	if !finiteNonNeg(varInc) || !finiteNonNeg(claInc) || !finiteNonNeg(maxLearnts) ||
		!finiteNonNeg(learntGrowth) || learntGrowth < 1 {
		return nil, fmt.Errorf("%w: non-finite or out-of-range heuristic scalars", ErrBadSnapshot)
	}

	// The arena slab: each word is 4 raw bytes, so the count check bounds
	// the allocation by a quarter of the remaining input.
	nWords64, err := r.uvarint("arena length")
	if err != nil {
		return nil, err
	}
	if nWords64 > uint64(r.rem())/4 || nWords64 > uint64(crefBinary) {
		return nil, r.fail("arena length")
	}
	nWords := int(nWords64)
	slab := make([]lit, nWords)
	for i := range slab {
		slab[i] = lit(binary.LittleEndian.Uint32(r.b[r.off:]))
		r.off += 4
	}

	// Walk the arena validating each clause record in place and collecting
	// the (sorted, by construction) valid clause starts. Every literal is
	// range-checked here, so later consumers can index assignment arrays
	// without further checks.
	maxLit := uint64(2 * nVars)
	var starts []cref
	wasted := 0
	for off := 0; off < nWords; {
		hdr := slab[off]
		size := int(hdr >> 2)
		if size < 3 {
			// Units live on the trail, empty clauses flip okay and binary
			// clauses live in the watch lists; a shorter arena clause
			// breaks watch invariants.
			return nil, fmt.Errorf("%w: arena clause of length %d at word %d", ErrBadSnapshot, size, off)
		}
		end := off + headerWords(hdr) + size
		if end > nWords {
			return nil, fmt.Errorf("%w: arena clause overruns slab at word %d", ErrBadSnapshot, off)
		}
		if hdr&clsLearnt != 0 {
			lbd := uint64(slab[off+1])
			if lbd > uint64(nVars)+1 {
				return nil, fmt.Errorf("%w: clause lbd %d out of range", ErrBadSnapshot, lbd)
			}
			act := math.Float64frombits(uint64(slab[off+2]) | uint64(slab[off+3])<<32)
			if !finiteNonNeg(act) {
				return nil, fmt.Errorf("%w: non-finite clause activity", ErrBadSnapshot)
			}
		}
		for _, l := range slab[end-size : end] {
			if uint64(l) >= maxLit {
				return nil, fmt.Errorf("%w: literal %d out of range", ErrBadSnapshot, uint64(l))
			}
		}
		if hdr&clsDeleted != 0 {
			wasted += end - off
		}
		starts = append(starts, cref(off))
		off = end
	}
	ca := arena{data: slab, wasted: wasted}

	readCrefList := func(what string, wantLearnt bool) ([]cref, error) {
		n, err := r.count(what)
		if err != nil {
			return nil, err
		}
		out := make([]cref, n)
		for i := range out {
			c64, err := r.uvarint(what)
			if err != nil {
				return nil, err
			}
			if c64 >= uint64(nWords) || crefIndex(starts, cref(c64)) < 0 {
				return nil, fmt.Errorf("%w: %s entry %d is not a clause start", ErrBadSnapshot, what, c64)
			}
			c := cref(c64)
			// Section membership must agree with the learnt flag so the
			// two clause lists stay coherent with DB-reduction bookkeeping,
			// and a listed clause is live: DB reduction unlists what it
			// deletes, and compaction relocates only live clauses.
			if ca.learnt(c) != wantLearnt {
				return nil, fmt.Errorf("%w: clause at %d in wrong section", ErrBadSnapshot, c64)
			}
			if ca.deleted(c) {
				return nil, fmt.Errorf("%w: deleted clause at %d listed", ErrBadSnapshot, c64)
			}
			out[i] = c
		}
		return out, nil
	}
	clauses, err := readCrefList("problem clause list", false)
	if err != nil {
		return nil, err
	}
	learnts, err := readCrefList("learnt clause list", true)
	if err != nil {
		return nil, err
	}

	nTrail, err := r.count("trail length")
	if err != nil {
		return nil, err
	}
	if nTrail > nVars || qh64 > uint64(nTrail) {
		return nil, fmt.Errorf("%w: trail length %d / qhead %d out of range", ErrBadSnapshot, nTrail, qh64)
	}
	trail := make([]lit, nTrail)
	vals := make([]lbool, 2*nVars)
	for i := range trail {
		lv, err := r.uvarint("trail literal")
		if err != nil {
			return nil, err
		}
		if lv >= maxLit {
			return nil, fmt.Errorf("%w: trail literal %d out of range", ErrBadSnapshot, lv)
		}
		l := lit(lv)
		if vals[l] != lUndef {
			return nil, fmt.Errorf("%w: variable %d assigned twice on trail", ErrBadSnapshot, l.v()+1)
		}
		vals[l] = lTrue
		vals[l.flip()] = lFalse
		trail[i] = l
	}

	polBytes := (nVars + 7) / 8
	if r.rem() < polBytes {
		return nil, r.fail("polarity bits")
	}
	polarity := make([]bool, nVars)
	for v := 0; v < nVars; v++ {
		polarity[v] = r.b[r.off+v/8]&(1<<(v%8)) != 0
	}
	r.off += polBytes

	actFlag, err := r.byte("activity flag")
	if err != nil {
		return nil, err
	}
	activity := make([]float64, nVars)
	if actFlag == 1 {
		for v := 0; v < nVars; v++ {
			a, err := r.f64("variable activity")
			if err != nil {
				return nil, err
			}
			if !finiteNonNeg(a) {
				return nil, fmt.Errorf("%w: non-finite variable activity", ErrBadSnapshot)
			}
			activity[v] = a
		}
	} else if actFlag != 0 {
		return nil, fmt.Errorf("%w: unknown activity flag %d", ErrBadSnapshot, actFlag)
	}

	nHeap, err := r.count("order heap length")
	if err != nil {
		return nil, err
	}
	if nHeap > nVars {
		return nil, fmt.Errorf("%w: order heap longer than variable count", ErrBadSnapshot)
	}
	heap := make([]int32, nHeap)
	indices := make([]int32, nVars)
	for i := range indices {
		indices[i] = -1
	}
	for i := range heap {
		v64, err := r.uvarint("order heap entry")
		if err != nil {
			return nil, err
		}
		if v64 >= uint64(nVars) {
			return nil, fmt.Errorf("%w: order heap variable %d out of range", ErrBadSnapshot, v64)
		}
		v := int32(v64)
		if indices[v] != -1 {
			return nil, fmt.Errorf("%w: variable %d twice in order heap", ErrBadSnapshot, v+1)
		}
		indices[v] = int32(i)
		heap[i] = v
	}

	reason := make([]cref, nVars)
	for v := 0; v < nVars; v++ {
		id, err := r.uvarint("reason reference")
		if err != nil {
			return nil, err
		}
		if id == 0 {
			reason[v] = crefUndef
			continue
		}
		if vals[2*v] == lUndef {
			return nil, fmt.Errorf("%w: reason on unassigned variable %d", ErrBadSnapshot, v+1)
		}
		if id%2 == 0 {
			// A binary reason: the clause's other literal must be a false
			// literal of another variable.
			o := id/2 - 1
			if o >= maxLit || lit(o).v() == uint32(v) || vals[o] != lFalse {
				return nil, fmt.Errorf("%w: binary reason literal %d for variable %d", ErrBadSnapshot, o, v+1)
			}
			reason[v] = reasonBinary(lit(o))
			continue
		}
		c64 := id / 2
		if c64 >= uint64(nWords) || crefIndex(starts, cref(c64)) < 0 {
			return nil, fmt.Errorf("%w: reason clause %d out of range", ErrBadSnapshot, c64)
		}
		reason[v] = cref(c64)
	}

	// The lists are read in literal order into one slab, back to back,
	// each with room for exactly its watchers; the declared total sizes
	// the slab and must match.
	nWatchers, err := r.count("watcher count")
	if err != nil {
		return nil, err
	}
	watches := watchTable{
		spans: make([]span, 2*nVars),
		slab:  make([]watcher, 0, nWatchers),
	}
	watchCount := make([]int32, len(starts))
	// Each binary watcher records its clause as a sortable key, so the
	// two watchers of every binary clause can be matched up below.
	var binKeys []uint64
	for li := 0; li < 2*nVars; li++ {
		n, err := r.count("watch list length")
		if err != nil {
			return nil, err
		}
		if n > nWatchers-len(watches.slab) {
			return nil, fmt.Errorf("%w: more watchers than the declared %d", ErrBadSnapshot, nWatchers)
		}
		off := len(watches.slab)
		for j := 0; j < n; j++ {
			kind, err := r.uvarint("watcher clause")
			if err != nil {
				return nil, err
			}
			bl, err := r.uvarint("watcher blocker")
			if err != nil {
				return nil, err
			}
			if bl >= maxLit {
				return nil, fmt.Errorf("%w: watcher blocker %d out of range", ErrBadSnapshot, bl)
			}
			if kind < 2 {
				// A binary watcher in ¬a's list with blocker b stands for
				// (a ∨ b): two literals of distinct variables.
				a, b := lit(li).flip(), lit(bl)
				if a.v() == b.v() {
					return nil, fmt.Errorf("%w: binary watcher for literal %d in its own variable's list", ErrBadSnapshot, bl)
				}
				binKeys = append(binKeys, binaryKey(a, b, kind == 1))
				watches.slab = append(watches.slab, watcher{c: crefBinary | cref(kind), blocker: b})
				continue
			}
			c64 := kind - 2
			ci := -1
			if c64 < uint64(nWords) {
				ci = crefIndex(starts, cref(c64))
			}
			if ci < 0 {
				return nil, fmt.Errorf("%w: watcher clause %d out of range", ErrBadSnapshot, c64)
			}
			c := cref(c64)
			if !ca.deleted(c) {
				// Propagation assumes a live watcher sits in the list of
				// the negation of one of the clause's first two literals;
				// anything else could mis-propagate or mis-index.
				cl := ca.lits(c)
				if lit(li) != cl[0].flip() && lit(li) != cl[1].flip() {
					return nil, fmt.Errorf("%w: watcher misplaced for live clause %d", ErrBadSnapshot, c64)
				}
				watchCount[ci]++
			}
			watches.slab = append(watches.slab, watcher{c: c, blocker: lit(bl)})
		}
		watches.spans[li] = span{off: uint32(off), n: uint32(n), cap: uint32(n)}
	}
	if len(watches.slab) != nWatchers {
		return nil, fmt.Errorf("%w: %d watchers, declared %d", ErrBadSnapshot, len(watches.slab), nWatchers)
	}
	for i, c := range starts {
		if !ca.deleted(c) && watchCount[i] != 2 {
			return nil, fmt.Errorf("%w: live clause at %d has %d watchers (want 2)", ErrBadSnapshot, c, watchCount[i])
		}
	}
	nBinary, nLearntBin, err := pairBinaryWatchers(binKeys)
	if err != nil {
		return nil, err
	}
	bins, nShared, err := readImplTable(r, nVars)
	if err != nil {
		return nil, err
	}
	nBinary += nShared
	if r.rem() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, r.rem())
	}

	n := &Solver{
		opts:         Options{},
		nVars:        nVars,
		ca:           ca,
		clauses:      clauses,
		learnts:      learnts,
		nBinary:      nBinary,
		nLearntBin:   nLearntBin,
		watches:      watches,
		bins:         bins,
		vals:         vals,
		level:        make([]int32, nVars), // level-0 snapshot: all zero
		reason:       reason,
		polarity:     polarity,
		trail:        trail,
		qhead:        int(qh64),
		activity:     activity,
		varInc:       varInc,
		claInc:       claInc,
		seen:         make([]byte, nVars),
		okay:         okayByte != 0,
		maxLearnts:   maxLearnts,
		learntGrowth: learntGrowth,
	}
	n.order = varHeap{activity: &n.activity, heap: heap, indices: indices}
	return n, nil
}

// readImplTable decodes the shared implication table and returns it
// (nil when the snapshot has none) with the number of binary clauses it
// holds. Every implied literal must be in range and of another variable
// than the literal implying it, and every binary must appear under both
// of its literals' negations, as ResetRun lays it out.
func readImplTable(r *snapReader, nVars int) (*implTable, int, error) {
	nLits, err := r.count("implication table literals")
	if err != nil || nLits == 0 {
		return nil, 0, err
	}
	if nLits > 2*nVars {
		return nil, 0, fmt.Errorf("%w: implication table covers %d literals of %d", ErrBadSnapshot, nLits, 2*nVars)
	}
	total, err := r.count("implication count")
	if err != nil {
		return nil, 0, err
	}
	t := &implTable{off: make([]uint32, nLits+1), imp: make([]lit, 0, total)}
	keys := make([]uint64, 0, total)
	for li := 0; li < nLits; li++ {
		n, err := r.count("implication list length")
		if err != nil {
			return nil, 0, err
		}
		if n > total-len(t.imp) {
			return nil, 0, fmt.Errorf("%w: more implications than the declared %d", ErrBadSnapshot, total)
		}
		p := lit(li)
		for j := 0; j < n; j++ {
			q64, err := r.uvarint("implied literal")
			if err != nil {
				return nil, 0, err
			}
			if q64 >= uint64(2*nVars) {
				return nil, 0, fmt.Errorf("%w: implied literal %d out of range", ErrBadSnapshot, q64)
			}
			q := lit(q64)
			if q.v() == p.v() {
				return nil, 0, fmt.Errorf("%w: literal %d implies its own variable", ErrBadSnapshot, li)
			}
			keys = append(keys, binaryKey(p.flip(), q, false))
			t.imp = append(t.imp, q)
		}
		t.off[li+1] = uint32(len(t.imp))
	}
	if len(t.imp) != total {
		return nil, 0, fmt.Errorf("%w: %d implications, declared %d", ErrBadSnapshot, len(t.imp), total)
	}
	nShared, _, err := pairBinaryWatchers(keys)
	if err != nil {
		return nil, 0, err
	}
	return t, nShared, nil
}

// binaryKey orders the binary watchers of a snapshot by clause: the
// clause's two literals low first, its learnt flag, and in the lowest bit
// which of its two watchers this is (1 for the one in the low literal's
// negation's list, where the watched literal a is the low one).
// Literals stay below 2^29, so the key fits in 63 bits.
func binaryKey(a, b lit, learnt bool) uint64 {
	side := uint64(1)
	if a > b {
		a, b, side = b, a, 0
	}
	k := uint64(a)<<33 | uint64(b)<<2 | side
	if learnt {
		k |= 2
	}
	return k
}

// pairBinaryWatchers checks that the binary watchers, given as
// binaryKeys, come in mirrored pairs — every clause (a ∨ b) watched in
// ¬a's list is watched in ¬b's list as often — and returns the number of
// problem and learnt binary clauses.
func pairBinaryWatchers(keys []uint64) (problem, learnt int, err error) {
	slices.Sort(keys)
	for i := 0; i < len(keys); {
		j, sides := i, 0
		for ; j < len(keys) && keys[j]>>1 == keys[i]>>1; j++ {
			sides += int(keys[j] & 1)
		}
		if n := j - i; 2*sides != n {
			return 0, 0, fmt.Errorf("%w: binary clause watched %d times in one list and %d in the other",
				ErrBadSnapshot, sides, n-sides)
		}
		if keys[i]&2 != 0 {
			learnt += (j - i) / 2
		} else {
			problem += (j - i) / 2
		}
		i = j
	}
	return problem, learnt, nil
}
