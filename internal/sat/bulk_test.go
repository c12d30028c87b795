package sat

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// TestBulkByteIdentity pins Bulk's contract: a solver that adds a load
// through Bulk snapshots byte-identically to one that adds the same
// clauses one by one, with units (and so level-0 propagation) and new
// variables interleaved, and Bulk sizes the solver's storage once. Inside
// the load nothing is stored; afterwards every per-variable slice holds
// exactly NumVars variables, the clause arena holds the load's words
// plus the room for a first solve's learnt clauses, and the watcher slab
// the load's slots plus that solve's room, with no list moved. Clauses
// written to the stream before Bulk load the same as clauses added
// inside it.
func TestBulkByteIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const nVars = 40
	clauses := randomInstance(r, nVars, 160, 3)
	for i := 0; i < len(clauses); i += 23 {
		clauses[i] = clauses[i][:1] // a unit every 23 clauses
	}
	load := func(s *Solver) {
		for i, cl := range clauses {
			if i%40 == 0 {
				s.NewVar() // a variable no clause mentions
			}
			s.AddClause(cl...)
		}
	}
	eager := NewSolver()
	eager.EnsureVars(nVars)
	load(eager)

	bulk := NewSolver()
	bulk.EnsureVars(nVars)
	bulk.Bulk(new(Clauses), func() { load(bulk) })
	if !bytes.Equal(eager.Snapshot(), bulk.Snapshot()) {
		t.Fatal("Bulk changed the solver state")
	}
	// A stream written before Bulk loads ahead of the clauses load adds,
	// and Bulk empties it.
	streamed := NewSolver()
	streamed.EnsureVars(nVars)
	var cs Clauses
	half := len(clauses) / 2
	for _, cl := range clauses[:half] {
		cs.Add(cl...)
	}
	streamed.Bulk(&cs, func() {
		for i, cl := range clauses {
			if i%40 == 0 {
				streamed.NewVar()
			}
			if i >= half {
				streamed.AddClause(cl...)
			}
		}
	})
	if !bytes.Equal(eager.Snapshot(), streamed.Snapshot()) {
		t.Fatal("Bulk of a prewritten stream changed the solver state")
	}
	if cs.chunks != nil {
		t.Fatal("Bulk left its stream holding clauses")
	}
	if !slices.Equal(eager.order.heap, bulk.order.heap) || !slices.Equal(eager.order.indices, bulk.order.indices) {
		t.Fatal("Bulk changed the order heap")
	}
	if eager.Okay() != bulk.Okay() || eager.Solve() != bulk.Solve() || eager.Stats() != bulk.Stats() {
		t.Fatal("Bulk changed the search")
	}

	reserved := NewSolver()
	reserved.EnsureVars(nVars)
	var arenaCap, slabCap, varCap int
	reserved.Bulk(new(Clauses), func() {
		load(reserved)
		arenaCap, slabCap, varCap = cap(reserved.ca.data), cap(reserved.watches.slab), cap(reserved.level)
	})
	if arenaCap != 0 || slabCap != 0 {
		t.Fatalf("Bulk added clauses before its load returned (arena cap %d, slab cap %d)", arenaCap, slabCap)
	}
	if varCap != nVars {
		t.Fatalf("NewVar inside Bulk grew the per-variable slices to %d before the load returned", varCap)
	}
	n := reserved.NumVars()
	if n == nVars {
		t.Fatal("the load created no variable; the test exercises nothing")
	}
	for name, c := range map[string]int{
		"spans": cap(reserved.watches.spans) / 2, "vals": cap(reserved.vals) / 2,
		"level": cap(reserved.level), "reason": cap(reserved.reason),
		"polarity": cap(reserved.polarity), "activity": cap(reserved.activity),
		"seen": cap(reserved.seen), "heap": cap(reserved.order.heap),
		"heap indices": cap(reserved.order.indices),
	} {
		if c != n {
			t.Errorf("%s capacity holds %d variables after Bulk, want NumVars = %d", name, c, n)
		}
	}
	if got := reserved.VarCapacity(); got != n {
		t.Errorf("VarCapacity %d after Bulk, want NumVars = %d", got, n)
	}
	// The arena holds the clauses of three or more literals, each behind
	// a one-word header; each list gets one slot per clause of two or
	// more literals holding its literal's negation.
	nWords, nSlots := 0, 0
	for _, cl := range clauses {
		if len(cl) >= 3 {
			nWords += origHeaderWords + len(cl)
		}
		if len(cl) >= 2 {
			nSlots += len(cl)
		}
	}
	if got := cap(reserved.ca.data); got != nWords+learntRoomWords {
		t.Fatalf("arena capacity %d after Bulk, want the one reservation of %d words plus the %d-word learnt room",
			got, nWords, learntRoomWords)
	}
	if got := cap(reserved.watches.slab); got != nSlots+learntRoomWatchers || reserved.watches.wasted != 0 {
		t.Fatalf("watcher slab capacity %d (%d wasted) after Bulk, want the one layout of %d plus the %d-watcher learnt room and no list moved",
			got, reserved.watches.wasted, nSlots, learntRoomWatchers)
	}
}

// TestBulkUnsatisfiableLoad: AddClause inside Bulk cannot know the
// verdict and returns true; the contradiction shows once Bulk returns.
func TestBulkUnsatisfiableLoad(t *testing.T) {
	s := NewSolver()
	s.Bulk(new(Clauses), func() {
		if !s.AddClause(1) || !s.AddClause(-1) {
			t.Fatal("AddClause inside Bulk returned false")
		}
	})
	if s.Okay() {
		t.Fatal("contradictory load left the solver okay")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("contradictory load: got %v, want Unsat", st)
	}
}

// TestClausesRenumber: Renumber moves the variables above its first
// argument, in both polarities, and leaves the rest and the clause
// boundaries as they are.
func TestClausesRenumber(t *testing.T) {
	var cs Clauses
	cs.Add(1, -2)
	cs.Add(101, -3, -102)
	cs.Add()
	cs.Add(-101)
	cs.Renumber(100, 3)
	var got [][]Lit
	cs.Each(func(cl []Lit) { got = append(got, slices.Clone(cl)) })
	want := [][]Lit{{1, -2}, {4, -3, -5}, {}, {-4}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
