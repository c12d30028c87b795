package sat

import (
	"encoding/binary"
	"math"
)

// This file implements solver state serialization: Snapshot renders a
// level-0 solver into a self-contained byte string. Two solvers with
// equal snapshots run the same search, conflict for conflict: the clause
// database, watch-list order, trail, saved phases, VSIDS activities, and
// order heap are all in it. Tests compare solver states by these bytes,
// and the compiled-base golden test pins them across commits.
//
// The clause arena is serialized verbatim — one length prefix and the
// raw slab words — so clause references (crefs) in the clause lists,
// reasons, and watch lists appear unchanged. Binary clauses exist only
// as watchers, so a watcher and a reason say whether they name an arena
// clause or stand for a binary clause; a frozen solver's problem
// binaries follow as its implication table, in table order. Encoding is
// read-only on the solver, so concurrent Snapshot/Clone calls on one
// frozen solver need no locking.

// snapshotVersion is the format version, the first word of every
// snapshot. Bump it on any layout change.
const snapshotVersion = 5

// Snapshot serializes the solver's complete search-relevant state. It may
// only be called at decision level 0 (like Clone) and panics otherwise.
//
// Per-run state is deliberately not captured, mirroring Clone: statistics,
// work budgets, pending interrupts, the last model/final conflict, an
// attached DRAT proof, and all Options (including any fault hook) are
// absent from the snapshot.
func (s *Solver) Snapshot() []byte {
	s.settle()
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
