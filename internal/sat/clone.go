package sat

import "slices"

// Room selects the spare storage Clone lays a clone out with beyond what
// its load adds: room for the clauses the clone's searches learn and the
// watch lists those clauses move.
type Room uint8

const (
	// MoveRoom gives no room for learnt clauses, only watcher-slab room
	// of a quarter of its length plus 256 watchers for the watch lists a
	// search's propagation moves to the slab's tail. It suits a query
	// that decides and stops, which learns little: the §5.1 syntheses,
	// checks and explanations move 72–890 watchers of slabs of
	// 2,826–4,078 and learn nothing, and a search that does learn grows
	// the arena and the clause lists on demand.
	MoveRoom Room = iota
	// LearntRoom gives queryArenaWords arena words, clause-list headroom
	// of a sixteenth of each list's length plus 1024 entries,
	// watcher-slab room of half its length plus 1024 watchers, and
	// per-variable room for queryVarRoom more variables: room for the
	// learnt clauses of an optimization's descents or an enumeration, and
	// for the objective circuits an optimization builds after its first
	// solve, without copying a slab or a per-variable slice again.
	LearntRoom
)

// Clone returns a deep copy of the solver, extended by load, that shares
// no mutable state with the original: the clause database (problem and
// learnt clauses), watch lists, trail, and heuristic state (VSIDS
// activities, order heap, saved phases, clause activities) are all
// copied verbatim, so a clone continues exactly where the original
// stands and two clones of the same solver run identical searches.
// Cloning is the mechanism behind compiled-base caching: compile once,
// then hand every query its own private snapshot, laid out for it.
//
// load, when non-nil, adds the query's own variables and clauses under
// Bulk's contract: inside load, the clone's NewVar and EnsureVars only
// count variables and its AddClause only appends the clause to a stream.
// Clone then copies every slice once, at the original's size plus what
// load counted, plus the room room selects, and adds the streamed
// clauses in order. The per-variable slices hold exactly the clone's
// variables under MoveRoom and queryVarRoom more under LearntRoom. The
// clone ends in the state Clone with a nil load followed by the same
// calls made one by one would leave; only capacities differ. load must
// not solve, clone or snapshot the clone, nor read a variable's state.
//
// The copy is a near-memcpy: the clause arena and the watcher slab are
// each one flat, pointer-free copy, and clause references (crefs) mean
// the same clause in source and copy, so the clause lists, the watch
// table's spans and the reason array copy verbatim with no per-clause or
// per-list work. Binary clauses, most of a compiled base, are not copied
// at all: a frozen solver (see ResetRun) keeps its problem binaries in a
// read-only implication table that Clone shares by pointer, so a clone
// copies no memory proportional to them. The watch table Clone copies
// holds only the long-clause watchers, the learnt binaries and what was
// added after the freeze. The arena is copied, not shared: propagate
// swaps the watched literals inside arena clauses, so their words are
// search state; an original clause carries a one-word header. A watch
// list that load's clauses are pushed onto and that lacks the room moves
// to the slab's tail with room for exactly them, so adding them copies
// nothing again. The bytes a copy overwrites are not zero-filled first.
// Clone is read-only on a settled source (see settle), which a frozen
// base always is; any number of goroutines may clone one frozen solver
// concurrently and search the clones over the one shared table (the
// compiled-base cache does exactly that).
//
// Clone may only be called at decision level 0 (i.e. not from inside a
// Solve callback); it panics otherwise. The copy deliberately resets
// per-run state rather than inheriting it:
//
//   - Stats are zeroed: a clone accounts for its own work only.
//   - Work budgets (SetBudget) and the last StopCause are cleared.
//   - A pending Interrupt is NOT inherited — the clone is runnable even
//     if the original was stopped, and an interrupt delivered to the
//     original later (say, by its governing context) does not reach it.
//   - The last model is NOT inherited, nor the buffer it lives in: a
//     clone's first Sat solve writes a model buffer of its own.
//   - An attached DRAT proof is NOT cloned: proofs record one solver's
//     derivation history and would be unsound spliced onto another.
//     Call AttachProof on the clone before its first Solve if needed.
//   - The fault hook (SetFaultHook) IS carried over, like the
//     Options; use SetFaultHook on the clone to change it.
func (s *Solver) Clone(room Room, load func(*Solver)) *Solver {
	s.settle()
	if s.decisionLevel() != 0 {
		panic("sat: Clone called above decision level 0")
	}
	n := &Solver{
		opts:         s.opts,
		fault:        s.fault,
		nVars:        s.nVars,
		nBinary:      s.nBinary,
		nLearntBin:   s.nLearntBin,
		qhead:        s.qhead,
		varInc:       s.varInc,
		claInc:       s.claInc,
		okay:         s.okay,
		maxLearnts:   s.maxLearnts,
		learntGrowth: s.learntGrowth,
		bins:         s.bins,
	}
	var cs Clauses
	if load != nil {
		n.bulk = &cs
		load(n)
		n.bulk = nil
	}

	// Size what load adds by its clauses as recorded, as Bulk does: an
	// arena clause has three or more literals, and a clause's watchers
	// sit in the lists of its literals' negations, at most one each.
	nClauses, nWords, nWatched := 0, 0, 0
	cs.Each(func(cl []Lit) {
		if len(cl) >= 3 {
			nClauses++
			nWords += origHeaderWords + len(cl)
		}
		if len(cl) >= 2 {
			nWatched += len(cl)
		}
	})
	var watched []lit
	if nWatched > 0 {
		watched = make([]lit, 0, nWatched)
		cs.Each(func(cl []Lit) {
			if len(cl) >= 2 {
				for _, l := range cl {
					watched = append(watched, toInternal(l).flip())
				}
			}
		})
		slices.Sort(watched)
	}
	arenaRoom, clauseRoom, learntRoom, varRoom := 0, 0, 0, 0
	slabRoom := len(s.watches.slab)/4 + 256
	if room == LearntRoom {
		arenaRoom = queryArenaWords
		clauseRoom, learntRoom = headroom(len(s.clauses)), headroom(len(s.learnts))
		slabRoom = len(s.watches.slab)/2 + 1024
		varRoom = queryVarRoom
	}

	// Watch lists are copied verbatim rather than re-attached: their order
	// determines propagation order, and a clone must search identically.
	nv := n.nVars + varRoom // per-variable capacity
	n.ca = arena{data: grown(s.ca.data, nWords+arenaRoom), wasted: s.ca.wasted}
	n.clauses = grown(s.clauses, nClauses+clauseRoom)
	n.learnts = grown(s.learnts, learntRoom)
	n.watches = s.watches.clone(2*nv, watched, slabRoom)
	n.vals = grown(s.vals, 2*nv-len(s.vals))
	n.level = grown(s.level, nv-len(s.level))
	n.reason = grown(s.reason, nv-len(s.reason))
	n.polarity = grown(s.polarity, nv-len(s.polarity))
	// The trail grows toward nVars during search; size it once.
	n.trail = grown(s.trail, nv-len(s.trail))
	n.activity = grown(s.activity, nv-len(s.activity))
	n.order = s.order.clone(&n.activity, nv)
	n.seen = make([]byte, len(s.seen), nv)
	n.storeVars()
	n.watches.makeRoom(watched)
	cs.Each(func(cl []Lit) { n.AddClause(cl...) })
	return n
}

// queryArenaWords is the arena room LearntRoom gives: room for what one
// query's searches learn on a cached base, sized by that and not by the
// base. The learnt clauses of the §5.1 cost and lexicographic
// optimizations take up to ~5.6k words.
const queryArenaWords = 6 << 10

// queryVarRoom is the per-variable room LearntRoom gives: room for the
// variables of the objective circuits an optimization builds on its
// clone after the feasibility solve, so its first NewVar does not double
// every per-variable slice. It is sized from what the case study's
// LearntRoom queries add: of the optimize_warm classes only Listing 3's
// latency > cost > monitoring adds any (20 penalty and totalizer
// variables, then 21 for the held cost bound; 56 on the §5.1 scenarios
// over all three workloads), a ports objective adds 9, and the §5.1 cost
// and cores optimizations, enumerations and suggestions add none. Power
// and systems objectives add 193–335 and the §5.1 Pareto frontiers
// 44–362, past any room worth giving every clone; those regrow once, by
// doubling.
const queryVarRoom = 64

// headroom is the spare capacity LearntRoom gives a clause list of n
// elements: a sixteenth of it plus 1024.
func headroom(n int) int { return n/16 + 1024 }

// grown returns a copy of src with capacity for extra more elements. The
// make and copy are separate statements on purpose: the compiler fuses
// them into one allocation that zero-fills only the extra tail
// (runtime.makeslicecopy), so the bytes about to be overwritten are not
// cleared first.
func grown[T any](src []T, extra int) []T {
	out := make([]T, len(src)+extra)
	copy(out, src)
	return out[:len(src)]
}
