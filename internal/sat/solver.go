// Package sat implements a conflict-driven clause-learning (CDCL) SAT
// solver in the MiniSat tradition: two-watched-literal propagation, VSIDS
// variable activity with phase saving, first-UIP clause learning with
// recursive minimization, LBD-guided learnt-clause deletion, Luby restarts,
// and solving under assumptions with final-conflict (core) extraction.
//
// It is the decision procedure underneath the lightweight reasoning shim of
// the HotNets '24 paper this repository reproduces: the paper's prototype is
// "a shim layer over SAT solvers", and since Go bindings to Z3/cvc5 are thin
// and unmaintained, the solver is built from scratch on the standard library.
//
// Literals use the DIMACS convention at the API boundary: +v asserts
// variable v, -v asserts its negation, v ≥ 1.
package sat

import (
	"fmt"
	"sync/atomic"
)

// Lit is a DIMACS-style literal: +v or -v for variable v ≥ 1.
type Lit int32

// Var returns the literal's variable (≥ 1).
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l < 0 }

// Flip returns the complementary literal.
func (l Lit) Flip() Lit { return -l }

// String renders the literal in DIMACS style.
func (l Lit) String() string { return fmt.Sprintf("%d", int32(l)) }

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	// Unknown means the solver stopped before reaching a verdict
	// (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found; see Model.
	Sat
	// Unsat means no satisfying assignment exists under the current
	// clauses and assumptions; see FinalConflict.
	Unsat
)

// String returns "SAT", "UNSAT" or "UNKNOWN".
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Options configures solver heuristics. The zero value enables the full
// CDCL feature set; the heuristic switches exist for the ablation
// benchmarks.
type Options struct {
	// NoLearning disables clause learning and non-chronological
	// backjumping; the solver degrades to DPLL with chronological
	// backtracking. Assumptions are not supported in this mode.
	NoLearning bool
	// StaticOrder disables VSIDS: decisions pick the lowest-indexed
	// unassigned variable instead of the highest-activity one.
	StaticOrder bool
	// NoRestarts disables Luby restarts.
	NoRestarts bool
}

// Stats reports cumulative solver counters.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnts      int64 // clauses learnt (including later deleted)
	Deleted      int64 // learnt clauses deleted by DB reduction
	MaxTrail     int   // deepest trail seen
}

// lit is the internal literal encoding: variable index v (0-based) becomes
// 2v for the positive literal and 2v+1 for the negative one.
type lit uint32

func toInternal(l Lit) lit {
	v := uint32(l.Var() - 1)
	if l.Neg() {
		return lit(2*v + 1)
	}
	return lit(2 * v)
}

func toExternal(l lit) Lit {
	v := Lit(l/2) + 1
	if l&1 == 1 {
		return -v
	}
	return v
}

func (l lit) flip() lit  { return l ^ 1 }
func (l lit) v() uint32  { return uint32(l) / 2 }
func (l lit) sign() bool { return l&1 == 1 } // true means negative

// lbool is a three-valued assignment: 0 undefined, 1 true, 2 false.
type lbool uint8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = 2
)

// watcher pairs a watching clause with a "blocker" literal whose
// satisfaction lets propagation skip visiting the clause. It is a flat
// 8-byte pair — pointer-free, so watch lists cost the garbage collector
// nothing to scan. A binary clause is nothing but its two watchers: c is
// the crefBinary tag (with binLearnt for a learnt one) and the blocker
// is the clause's other literal, which never changes.
type watcher struct {
	c       cref
	blocker lit
}

// Solver is an incremental CDCL SAT solver. It is not safe for concurrent
// use. Create with NewSolver or NewSolverOpts; add variables and clauses,
// then call Solve or SolveAssuming any number of times, interleaved with
// further AddClause calls.
type Solver struct {
	opts  Options
	stats Stats

	nVars int
	// ca is the clause arena: every problem and learnt clause of three
	// or more literals lives in one flat slab (see arena.go), addressed
	// by cref offsets. Binary clauses live only in the watch table;
	// nBinary and nLearntBin count the problem and learnt ones.
	ca         arena
	clauses    []cref
	learnts    []cref
	nBinary    int
	nLearntBin int

	watches watchTable // watch lists, indexed by internal lit
	// bins is the read-only implication table ResetRun builds from the
	// problem binaries (see implTable); nil before the first freeze.
	// Clones share it.
	bins *implTable
	// vals holds the current value of every internal literal: an
	// assignment writes both polarities, so value(l) is one load with no
	// sign fix-up. A variable v is unassigned iff vals[2v] is lUndef.
	vals     []lbool
	level    []int32 // decision level per var
	reason   []cref  // implying clause per var: a cref, reasonBinary, or crefUndef
	polarity []bool  // saved phase: last assigned sign (true = negative)
	trail    []lit
	trailLim []int // trail index at each decision level
	qhead    int

	activity []float64
	varInc   float64
	order    varHeap

	claInc float64

	seen      []byte
	transient []uint32 // vars marked seen by redundant(); cleared per conflict

	// Scratch buffers recycled across calls so the hot path stays
	// allocation-free: learntBuf backs analyze's learnt clause (copied out
	// before being stored), lbdStamp/lbdGen count distinct decision levels
	// without a per-conflict map, and addBuf backs AddClause normalization.
	learntBuf []lit
	lbdStamp  []uint64
	lbdGen    uint64
	addBuf    []lit
	// Inside Bulk, AddClause records each clause in the bulk chunks,
	// terminated by a 0, instead of adding it.
	bulking bool
	bulk    [][]Lit
	// Arena-compaction scratch: the old→new offset tables (see
	// compactArena), recycled across compactions.
	gcOld []cref
	gcNew []cref
	okay  bool // false once a top-level contradiction is recorded
	model []bool
	// binConfl holds the literals of the binary clause propagate last
	// returned as a conflict (crefBinary): [other, ¬p], the order an
	// arena clause would give them.
	binConfl [2]lit

	conflict []Lit // final conflict clause (negated assumptions subset)

	assumptions []lit

	// no-learning mode bookkeeping: flipped[d] reports whether the
	// decision at level d+1 has already been tried both ways.
	flipped []bool

	maxLearnts   float64
	learntGrowth float64

	proof *Proof // non-nil when DRAT logging is attached

	stop atomic.Bool // set by Interrupt; polled at conflict boundaries

	// Per-call work budgets (absolute caps against stats; 0 = none) and
	// the reason the last Solve returned Unknown. See SetBudget/StopCause.
	confLimit int64
	decLimit  int64
	stopCause StopCause

	fault func(FaultEvent, Stats) bool // see SetFaultHook; nil = none
}

// NewSolver returns a solver with default options.
func NewSolver() *Solver { return NewSolverOpts(Options{}) }

// NewSolverOpts returns a solver with the given options.
func NewSolverOpts(opts Options) *Solver {
	s := &Solver{
		opts:         opts,
		varInc:       1.0,
		claInc:       1.0,
		okay:         true,
		maxLearnts:   0, // set on first Solve relative to clause count
		learntGrowth: 1.1,
	}
	s.order.activity = &s.activity
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of problem clauses currently held.
func (s *Solver) NumClauses() int { return len(s.clauses) + s.nBinary }

// NumLearnts returns the number of live learnt clauses.
func (s *Solver) NumLearnts() int { return len(s.learnts) + s.nLearntBin }

// ArenaWords reports the clause arena's length and capacity in 32-bit
// words. A query's clauses fit without copying the arena again while
// used stays within capacity; the allocation-budget tests check that the
// headroom Clone leaves covers what a query adds.
func (s *Solver) ArenaWords() (used, capacity int) { return len(s.ca.data), cap(s.ca.data) }

// WatchSlab reports the watcher slab's length and capacity in watchers,
// garbage runs included; a frozen solver's shared implications are not
// in it. A query's watch-list moves fit without copying the slab again
// while used stays within capacity, which the allocation-budget tests
// check like ArenaWords.
func (s *Solver) WatchSlab() (used, capacity int) {
	return len(s.watches.slab), cap(s.watches.slab)
}

// Stats returns a copy of the cumulative solver statistics.
func (s *Solver) Stats() Stats { return s.stats }

// ResetRun drops what earlier solves left on the solver besides its
// search state: the cumulative Stats, the last model, final conflict and
// stop cause, and the conflict-analysis scratch buffers. Saved phases,
// VSIDS activities and learnt clauses stay. ResetRun is the freeze
// point of a compiled base: it moves every problem binary out of the
// watch lists into a new read-only implication table (see implTable),
// which the solver's clones share instead of copying, clips the clause
// arena to its length and lays the remaining watch lists out back to
// back in a slab of exactly their size, so a frozen solver keeps no
// spare room (Bulk's learnt room included) or garbage for a Clone to
// copy; each clone gets its own headroom. Propagation visits a literal's
// shared implications before its watch list, so the search after
// ResetRun differs from the one before it. After ResetRun the solver itself runs the same search its
// Clone would, and reports only its own later work. Must be called at
// decision level 0.
func (s *Solver) ResetRun() {
	if s.decisionLevel() != 0 {
		panic("sat: ResetRun called above decision level 0")
	}
	s.stats = Stats{}
	s.model = nil
	s.conflict = nil
	s.stopCause = StopNone
	s.assumptions = nil
	s.learntBuf = nil
	s.lbdStamp = nil
	s.lbdGen = 0
	s.transient = nil
	if cap(s.ca.data) > len(s.ca.data) {
		s.ca.data = grown(s.ca.data, 0)
	}
	s.freezeBinaries()
	s.watches.compact(nil, 0)
}

// NewVar allocates a fresh variable and returns its index (≥ 1). Inside
// a Bulk load it only counts the variable; Bulk stores it (see Bulk).
func (s *Solver) NewVar() int {
	s.nVars++
	if !s.bulking {
		if len(s.level) == cap(s.level) {
			// Grow all per-variable slices together, doubling: one-at-a-time
			// variable creation (the arithmetic encoder, query selectors)
			// otherwise reallocates eight slices each on append's less
			// aggressive large-slice growth policy.
			s.growVarCaps(max(2*len(s.level), 64))
		}
		s.storeVars()
	}
	return s.nVars
}

// EnsureVars allocates variables until NumVars ≥ n, sizing every
// per-variable slice once for all of them (at exactly n when they must
// grow) instead of doubling each through thousands of appends. Inside a
// Bulk load it only counts them, like NewVar.
func (s *Solver) EnsureVars(n int) {
	if n <= s.nVars {
		return
	}
	s.nVars = n
	if !s.bulking {
		s.storeVars()
	}
}

// storeVars appends the per-variable entries of the variables counted in
// nVars but not yet stored, first growing every per-variable slice to
// exactly nVars when they lack the room, and inserts the variables into
// the order heap in ascending order, the order NewVar calls create them
// in.
func (s *Solver) storeVars() {
	if s.nVars > cap(s.level) {
		s.growVarCaps(s.nVars)
	}
	for v := len(s.level); v < s.nVars; v++ {
		s.watches.spans = append(s.watches.spans, span{}, span{})
		s.vals = append(s.vals, lUndef, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, crefUndef)
		s.polarity = append(s.polarity, true) // default phase: false
		s.activity = append(s.activity, 0)
		s.seen = append(s.seen, 0)
		s.order.insert(v)
	}
}

// growVarCaps reallocates every per-variable slice, the order heap's
// included, with capacity for exactly n variables, preserving contents.
// NewVar calls it to double the capacity; storeVars, for EnsureVars and
// Bulk, to size it for a known count.
func (s *Solver) growVarCaps(n int) {
	s.watches.spans = grown(s.watches.spans, 2*n-len(s.watches.spans))
	s.vals = grown(s.vals, 2*n-len(s.vals))
	s.level = grown(s.level, n-len(s.level))
	s.reason = grown(s.reason, n-len(s.reason))
	s.polarity = grown(s.polarity, n-len(s.polarity))
	s.activity = grown(s.activity, n-len(s.activity))
	s.seen = grown(s.seen, n-len(s.seen))
	s.order.grow(n)
}

// VarCapacity reports how many variables the per-variable slices hold
// before NewVar must copy them all to grow. The allocation-budget tests
// check that a compiled base keeps no spare room there.
func (s *Solver) VarCapacity() int { return cap(s.level) }

// Room Bulk leaves beyond its load for the clauses the solver's first
// solve learns: the compile-time probe of a base that Bulk loaded (see
// ResetRun, which clips the room away again). The §5.1 bases' probes add
// 318–1,278 arena words and 596–1,456 watchers (the most for the grown
// Q1 fleet), the 50k-SKU sliced base's 551 words and 1,034 watchers, so
// these fit every one without the arena or the watcher slab being
// copied to grow. A solve that outgrows the room grows the slabs as it
// would without it.
const (
	learntRoomWords    = 2 << 10
	learntRoomWatchers = 2 << 10
)

// Bulk runs load with variable storage and clause addition deferred,
// then sizes the solver's storage once for all of it and adds every
// clause load passed to AddClause, in order. Inside load, NewVar and
// EnsureVars only count variables; Bulk then allocates every
// per-variable slice once, at the final count (exactly, when they must
// grow), and inserts the new variables into the order heap in ascending
// order, as NewVar would have. The clause arena, the clause list and
// every watch list are likewise allocated up front instead of being
// copied each time they fill. A literal's list gets room for one watcher
// per recorded clause holding the literal's negation, a bound no list
// can pass, so no list moves during the load. The arena and the watcher
// slab also get a fixed room for the clauses a first solve learns
// (learntRoomWords, learntRoomWatchers), so a compiled base's probe does
// not copy them to grow either. A compiler that emits a whole base
// clause by clause (CNF shards, then arithmetic circuits) wraps the
// emission in one Bulk call.
//
// The solver ends in exactly the state the same NewVar and AddClause
// calls made one by one would leave: variables enter the heap in the
// same order, clauses are added in the same order, units propagate at
// the same points, so clause references, watch order and snapshot bytes
// are identical; only capacities differ. Inside load, AddClause records
// its clause and returns true (a top-level conflict found by Bulk makes
// every later solve return Unsat), and NewVar returns the new variable's
// index. load must not solve, clone or snapshot the solver, nor read a
// variable's state.
func (s *Solver) Bulk(load func()) {
	s.bulking = true
	defer func() { s.bulking, s.bulk = false, nil }()
	load()
	s.bulking = false
	s.storeVars()

	// Size clause storage by the clauses as recorded. Normalization only
	// shortens or drops a clause, so the counts are upper bounds: an
	// arena clause has three or more literals, and a clause's watchers
	// sit in the lists of its literals' negations, at most one each.
	nClauses, nWords := 0, 0
	room := make([]uint32, len(s.watches.spans))
	for _, chunk := range s.bulk {
		for i := 0; i < len(chunk); {
			j := i
			for chunk[j] != 0 {
				j++
			}
			n := j - i
			if n >= 3 {
				nClauses++
				nWords += origHeaderWords + n
			}
			if n >= 2 {
				for _, l := range chunk[i:j] {
					room[toInternal(l).flip()]++
				}
			}
			i = j + 1
		}
	}
	s.ca.reserve(nWords + learntRoomWords)
	if cap(s.clauses)-len(s.clauses) < nClauses {
		s.clauses = grown(s.clauses, nClauses)
	}
	s.watches.compact(room, learntRoomWatchers)
	for _, chunk := range s.bulk {
		for i := 0; i < len(chunk); {
			j := i
			for chunk[j] != 0 {
				j++
			}
			s.AddClause(chunk[i:j]...)
			i = j + 1
		}
	}
}

// bulkChunk is the size, in literals, of the buffers Bulk records
// deferred clauses in. Fixed-size chunks hold the whole load without
// ever being copied to grow.
const bulkChunk = 4096

// deferClause records a clause for Bulk to add, followed by a 0.
func (s *Solver) deferClause(lits []Lit) {
	n := len(s.bulk)
	if n == 0 || len(s.bulk[n-1])+len(lits)+1 > cap(s.bulk[n-1]) {
		s.bulk = append(s.bulk, make([]Lit, 0, max(bulkChunk, len(lits)+1)))
		n++
	}
	s.bulk[n-1] = append(append(s.bulk[n-1], lits...), 0)
}

// AddClause adds a clause over DIMACS-style literals. Variables referenced
// beyond NumVars are allocated implicitly. The empty clause makes the
// instance trivially unsatisfiable. AddClause may only be called at
// decision level 0, i.e. not from within a Solve callback.
//
// Returns false if the clause makes the instance unsatisfiable at the top
// level (the solver remains usable; Solve will report Unsat).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.okay {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called above decision level 0")
	}
	// Allocate implicit variables, then normalize.
	maxVar := 0
	for _, l := range lits {
		if l == 0 {
			panic("sat: literal 0 is invalid")
		}
		if l.Var() > maxVar {
			maxVar = l.Var()
		}
	}
	s.EnsureVars(maxVar)
	if s.bulking {
		s.deferClause(lits)
		return true
	}

	// Normalize: drop false/duplicate literals, detect satisfied or
	// tautological clauses. Duplicate detection marks s.seen with a bit
	// per polarity (1 positive, 2 negative); all marks are cleared before
	// any return. s.seen is all-zero here: AddClause runs at level 0,
	// never from inside analyze.
	norm := s.addBuf[:0]
	trivial := false // satisfied at level 0, or a tautology
	shrunk := false
	for _, ext := range lits {
		l := toInternal(ext)
		switch s.value(l) {
		case lTrue:
			trivial = true
		case lFalse:
			shrunk = true
			continue // falsified at level 0: drop
		}
		if trivial {
			break
		}
		v := l.v()
		bit := byte(1)
		if l.sign() {
			bit = 2
		}
		if s.seen[v]&(bit^3) != 0 {
			trivial = true // tautology
			break
		}
		if s.seen[v]&bit != 0 {
			shrunk = true
			continue
		}
		s.seen[v] |= bit
		norm = append(norm, l)
	}
	for _, l := range norm {
		s.seen[l.v()] = 0
	}
	s.addBuf = norm[:0]
	if trivial {
		return true
	}
	// Clauses shortened against level-0 units are RUP lemmas; record them
	// so the proof checker sees the clause the solver actually uses.
	if shrunk && s.proof != nil {
		s.logLearnt(norm)
	}
	switch len(norm) {
	case 0:
		s.okay = false
		s.logEmpty()
		return false
	case 1:
		s.uncheckedEnqueue(norm[0], crefUndef)
		if s.propagate() != crefUndef {
			s.okay = false
			s.logEmpty()
			return false
		}
		return true
	case 2:
		s.nBinary++
		s.attachBinary(norm[0], norm[1], crefBinary)
		return true
	}
	// The arena copies the scratch buffer into the slab; no per-clause
	// allocation.
	c := s.ca.alloc(norm, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// attach registers the first two literals of c as watched.
func (s *Solver) attach(c cref) {
	cl := s.ca.lits(c)
	s.watches.push(cl[0].flip(), watcher{c, cl[1]})
	s.watches.push(cl[1].flip(), watcher{c, cl[0]})
}

// attachBinary stores the binary clause (a ∨ b) as its two watchers,
// tagged tag (crefBinary, or crefBinary|binLearnt), in the lists and the
// order attach gives an arena clause [a, b].
func (s *Solver) attachBinary(a, b lit, tag cref) {
	s.watches.push(a.flip(), watcher{tag, b})
	s.watches.push(b.flip(), watcher{tag, a})
}

// detachAll lazily detaches a clause by marking it deleted; propagate
// skips and removes deleted watchers as it encounters them, and arena
// compaction reclaims the slab words.
func (s *Solver) detachAll(c cref) { s.ca.setDeleted(c) }

// value returns the current assignment of an internal literal.
func (s *Solver) value(l lit) lbool { return s.vals[l] }

// assigned reports whether variable v has a value.
func (s *Solver) assigned(v uint32) bool { return s.vals[2*v] != lUndef }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// uncheckedEnqueue records an assignment implied by from (a clause, a
// reasonBinary, or crefUndef for a decision or top-level fact).
func (s *Solver) uncheckedEnqueue(l lit, from cref) {
	v := l.v()
	s.vals[l] = lTrue
	s.vals[l.flip()] = lFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.polarity[v] = l.sign()
	s.trail = append(s.trail, l)
	if len(s.trail) > s.stats.MaxTrail {
		s.stats.MaxTrail = len(s.trail)
	}
}

// Model returns the satisfying assignment found by the last Sat solve;
// index i holds the value of variable i+1. The returned slice is owned by
// the solver and valid until the next Solve.
func (s *Solver) Model() []bool { return s.model }

// FinalConflict returns, after an Unsat result from SolveAssuming, a subset
// of the assumptions whose conjunction is already unsatisfiable (the
// "final conflict" or assumption core), as the literals that were assumed.
func (s *Solver) FinalConflict() []Lit { return s.conflict }

// Solve decides the instance with no assumptions.
func (s *Solver) Solve() Status { return s.SolveAssuming(nil) }

// SolveAssuming decides the instance under the given assumption literals.
// On Unsat, FinalConflict reports the subset of assumptions used. On
// Unknown, StopCause reports which limit stopped the solve.
func (s *Solver) SolveAssuming(assumps []Lit) Status {
	st := s.solveAssuming(assumps)
	if st == Unknown {
		s.stopCause = s.unknownCause()
	} else {
		s.stopCause = StopNone
	}
	return st
}

func (s *Solver) solveAssuming(assumps []Lit) Status {
	s.model = nil
	s.conflict = nil
	if s.fireFault(EventSolve) {
		s.Interrupt()
	}
	if s.interrupted() {
		// Sticky interrupt (see Interrupt): refuse to start.
		return Unknown
	}
	if s.conflictsExhausted() || s.decisionsExhausted() {
		// A budget already spent by earlier calls: refuse to start
		// rather than run an unbounded search (see SetBudget).
		return Unknown
	}
	if !s.okay {
		return Unsat
	}
	if s.opts.NoLearning {
		if len(assumps) > 0 {
			panic("sat: assumptions unsupported with NoLearning")
		}
		return s.solveDPLL()
	}
	s.assumptions = s.assumptions[:0]
	for _, a := range assumps {
		if a == 0 {
			panic("sat: literal 0 is invalid")
		}
		s.EnsureVars(a.Var())
		s.assumptions = append(s.assumptions, toInternal(a))
	}
	if s.maxLearnts == 0 {
		s.maxLearnts = float64(s.NumClauses()) / 3
		if s.maxLearnts < 1000 {
			s.maxLearnts = 1000
		}
	}
	defer s.cancelUntil(0)

	var curRestarts int64
	for {
		budget := restartBase * luby(2, curRestarts)
		if s.opts.NoRestarts {
			budget = -1
		}
		st := s.search(budget)
		if st != Unknown {
			return st
		}
		if s.interrupted() {
			return Unknown
		}
		if s.conflictsExhausted() || s.decisionsExhausted() {
			return Unknown
		}
		curRestarts++
		s.stats.Restarts++
	}
}

// search runs CDCL until a verdict, a conflict budget is exhausted
// (returns Unknown to trigger a restart), or the global conflict cap hits.
func (s *Solver) search(conflictBudget int64) Status {
	var conflicts int64
	for {
		if s.interrupted() || s.decisionsExhausted() {
			s.cancelUntil(0)
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.stats.Conflicts++
			conflicts++
			if s.fireFault(EventConflict) {
				// Forced interrupt at this conflict boundary. A verdict
				// reached at the same boundary (top-level conflict below)
				// still wins; otherwise the loop-top check stops us.
				s.Interrupt()
			}
			if s.decisionLevel() == 0 {
				s.okay = false
				s.logEmpty()
				return Unsat
			}
			learnt, backLevel, lbd := s.analyze(confl)
			s.cancelUntil(backLevel)
			s.logLearnt(learnt)
			s.recordLearnt(learnt, lbd)
			s.decayActivities()
			continue
		}
		if conflictBudget >= 0 && conflicts >= conflictBudget {
			s.cancelUntil(0)
			return Unknown
		}
		if s.conflictsExhausted() {
			s.cancelUntil(0)
			return Unknown
		}
		if float64(s.NumLearnts()) >= s.maxLearnts {
			s.reduceDB()
			s.maxLearnts *= s.learntGrowth
		}
		// Assumptions become pseudo-decisions at successive levels.
		next := lit(0)
		haveNext := false
		for s.decisionLevel() < len(s.assumptions) {
			a := s.assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied; open an empty level to keep
				// decisionLevel aligned with assumption index.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				s.analyzeFinal(a.flip())
				return Unsat
			default:
				next = a
				haveNext = true
			}
			break
		}
		if !haveNext {
			v := s.pickBranchVar()
			if v < 0 {
				// All variables assigned: model found.
				s.extractModel()
				return Sat
			}
			s.stats.Decisions++
			next = s.decisionLit(v)
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, crefUndef)
	}
}

// decisionLit chooses the phase for a decision on variable v: the saved
// phase (false before the first assignment).
func (s *Solver) decisionLit(v int) lit {
	if s.polarity[v] {
		return lit(2*uint32(v) + 1)
	}
	return lit(2 * uint32(v))
}

// pickBranchVar returns the next unassigned decision variable (0-based),
// or -1 if all variables are assigned.
func (s *Solver) pickBranchVar() int {
	if s.opts.StaticOrder {
		for v := 0; v < s.nVars; v++ {
			if !s.assigned(uint32(v)) {
				return v
			}
		}
		return -1
	}
	for !s.order.empty() {
		v := s.order.removeMax()
		if !s.assigned(uint32(v)) {
			return v
		}
	}
	return -1
}

// extractModel snapshots the current full assignment as the model.
func (s *Solver) extractModel() {
	s.model = make([]bool, s.nVars)
	for v := 0; v < s.nVars; v++ {
		s.model[v] = s.vals[2*v] == lTrue
	}
}

// cancelUntil undoes all assignments above the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.v()
		s.vals[l] = lUndef
		s.vals[l.flip()] = lUndef
		s.reason[v] = crefUndef
		if !s.opts.StaticOrder {
			s.order.insert(int(v))
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = bound
}

// recordLearnt installs a learnt clause and asserts its first literal.
// learnt may alias the analyze scratch buffer; the arena copies it. A
// learnt binary goes to the watch table only: DB reduction keeps every
// binary, so it needs no LBD or activity.
func (s *Solver) recordLearnt(learnt []lit, lbd int) {
	s.stats.Learnts++
	switch len(learnt) {
	case 1:
		s.uncheckedEnqueue(learnt[0], crefUndef)
		return
	case 2:
		s.nLearntBin++
		s.attachBinary(learnt[0], learnt[1], crefBinary|binLearnt)
		s.uncheckedEnqueue(learnt[0], reasonBinary(learnt[1]))
		return
	}
	c := s.ca.alloc(learnt, true)
	s.ca.setLBD(c, lbd)
	s.ca.setActivity(c, s.claInc)
	s.learnts = append(s.learnts, c)
	s.attach(c)
	s.uncheckedEnqueue(learnt[0], c)
}

// restartBase is the Luby restart unit in conflicts.
const restartBase = 100

// luby computes the Luby restart sequence value for index i with base y.
func luby(y, i int64) int64 {
	size, seq := int64(1), int64(0)
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i %= size
	}
	pow := int64(1)
	for ; seq > 0; seq-- {
		pow *= y
	}
	return pow
}
