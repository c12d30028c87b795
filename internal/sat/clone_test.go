package sat

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// php builds the pigeonhole principle PHP(n+1, n): unsatisfiable, with a
// non-trivial search, so clones exercise learning and restarts. Literals
// in guard are added to every pigeon's row clause, so PHP holds only
// under assumptions that falsify them.
func php(s *Solver, holes int, guard ...Lit) {
	pigeons := holes + 1
	v := func(p, h int) Lit { return Lit(p*holes + h + 1) }
	for p := 0; p < pigeons; p++ {
		row := make([]Lit, holes, holes+len(guard))
		for h := 0; h < holes; h++ {
			row[h] = v(p, h)
		}
		s.AddClause(append(row, guard...)...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
}

// satInstance builds a satisfiable instance with some structure.
func satInstance(s *Solver) {
	s.EnsureVars(12)
	s.AddClause(1, 2, 3)
	s.AddClause(-1, 4)
	s.AddClause(-2, 5)
	s.AddClause(-3, 6)
	s.AddClause(-4, -5)
	s.AddClause(7, 8)
	s.AddClause(-7, 9, 10)
	s.AddClause(-9, -10)
	s.AddClause(11, -12)
	s.AddClause(-11, 12, 1)
}

// deletedLearnts leaves s alive at decision level 0 with learnt clauses
// that reduceDB deleted still lingering in its arena and watch lists: a
// pigeonhole instance guarded by variable 31 is refuted under the guard,
// with the learnt limit lowered so reduceDB runs during the search while
// the garbage stays far below the compaction threshold. It reports
// whether reduceDB deleted clauses that are still in the arena.
func deletedLearnts(s *Solver) bool {
	const guard = Lit(31)
	php(s, 5, -guard)
	s.maxLearnts = 20
	if s.SolveAssuming([]Lit{guard}) != Unsat {
		return false
	}
	return s.Stats().Deleted > 0 && s.ca.wasted > 0
}

func TestCloneSolvesIdentically(t *testing.T) {
	a := NewSolver()
	satInstance(a)
	b := a.Clone(LearntRoom, nil)

	stA := a.Solve()
	stB := b.Solve()
	if stA != Sat || stB != Sat {
		t.Fatalf("statuses: original %v, clone %v; want Sat, Sat", stA, stB)
	}
	if !reflect.DeepEqual(a.Model(), b.Model()) {
		t.Fatalf("models differ:\noriginal %v\nclone    %v", a.Model(), b.Model())
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("search diverged: original %+v, clone %+v", a.Stats(), b.Stats())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewSolver()
	satInstance(a)
	b := a.Clone(LearntRoom, nil)

	// Constrain only the clone; the original must keep its solutions.
	b.AddClause(-1)
	b.AddClause(-2)
	b.AddClause(-3)
	if st := b.Solve(); st != Unsat {
		t.Fatalf("clone with extra clauses: got %v, want Unsat (1∨2∨3 blocked)", st)
	}
	if st := a.Solve(); st != Sat {
		t.Fatalf("original after clone mutated: got %v, want Sat", st)
	}

	// And the reverse: solving the original must not disturb a new clone.
	c := a.Clone(LearntRoom, nil)
	a.AddClause(-1)
	if st := c.Solve(); st != Sat {
		t.Fatalf("clone after original mutated: got %v, want Sat", st)
	}
}

func TestCloneAfterSolveContinuesIdentically(t *testing.T) {
	// Solve once so the original holds learnt clauses and heuristic state,
	// then clone and run an incremental query on both.
	a := NewSolver()
	php(a, 5)
	if st := a.Solve(); st != Unsat {
		t.Fatalf("php(6,5): got %v, want Unsat", st)
	}

	b := NewSolver()
	satInstance(b)
	if st := b.Solve(); st != Sat {
		t.Fatalf("setup: got %v, want Sat", st)
	}
	c := b.Clone(LearntRoom, nil)
	assumps := []Lit{-1, 7}
	stB := b.SolveAssuming(assumps)
	stC := c.SolveAssuming(assumps)
	if stB != stC {
		t.Fatalf("post-solve clone diverged: original %v, clone %v", stB, stC)
	}
	if stB == Sat && !reflect.DeepEqual(b.Model(), c.Model()) {
		t.Fatalf("models differ after incremental solve")
	}
}

func TestCloneFinalConflictMatches(t *testing.T) {
	a := NewSolver()
	a.EnsureVars(4)
	a.AddClause(-1, -2) // assuming 1 and 2 together is contradictory
	a.AddClause(3, 4)
	b := a.Clone(LearntRoom, nil)

	assumps := []Lit{1, 2, 3}
	if st := a.SolveAssuming(assumps); st != Unsat {
		t.Fatalf("original: got %v, want Unsat", st)
	}
	if st := b.SolveAssuming(assumps); st != Unsat {
		t.Fatalf("clone: got %v, want Unsat", st)
	}
	if !reflect.DeepEqual(a.FinalConflict(), b.FinalConflict()) {
		t.Fatalf("final conflicts differ: original %v, clone %v",
			a.FinalConflict(), b.FinalConflict())
	}
}

func TestCloneResetsRunState(t *testing.T) {
	a := NewSolver()
	satInstance(a)
	a.Interrupt()
	a.SetBudget(1, 1)
	if st := a.Solve(); st != Unknown {
		t.Fatalf("interrupted original: got %v, want Unknown", st)
	}

	// The clone must not inherit the interrupt, the budgets, or the stats.
	b := a.Clone(LearntRoom, nil)
	if st := b.Solve(); st != Sat {
		t.Fatalf("clone of interrupted solver: got %v, want Sat (interrupt must not be inherited)", st)
	}
	if b.StopCause() != StopNone {
		t.Fatalf("clone StopCause: got %v, want StopNone", b.StopCause())
	}

	c := a.Clone(LearntRoom, nil)
	if got := c.Stats(); got != (Stats{}) {
		t.Fatalf("clone stats not zeroed: %+v", got)
	}
}

// TestCloneOwnsItsModelBuffer: every Sat solve writes its model into
// the solver's one buffer, so a clone must never share its source's
// buffer. A clone of a solver that has solved Sat starts with no model
// and no buffer, and its searches leave the source's model untouched
// while the source reads it from another goroutine (make race checks
// that the two never touch the same bytes). ResetRun drops the buffer,
// so a frozen base retains no model.
func TestCloneOwnsItsModelBuffer(t *testing.T) {
	for _, room := range []Room{MoveRoom, LearntRoom} {
		src := NewSolver()
		satInstance(src)
		if st := src.SolveAssuming([]Lit{1}); st != Sat {
			t.Fatalf("room %d: source: got %v, want Sat", room, st)
		}
		want := slices.Clone(src.Model())
		buf := &src.Model()[0]
		if st := src.SolveAssuming([]Lit{1}); st != Sat || &src.Model()[0] != buf {
			t.Fatalf("room %d: a second Sat solve did not reuse the model buffer", room)
		}

		c := src.Clone(room, nil)
		if c.Model() != nil || c.modelBuf != nil {
			t.Fatalf("room %d: the clone inherited a model", room)
		}
		done := make(chan Status)
		go func() {
			// Variable 1 false: a model that differs from the source's.
			done <- c.SolveAssuming([]Lit{-1})
		}()
		for i := 0; i < 100; i++ {
			if !slices.Equal(src.Model(), want) {
				t.Errorf("room %d: the source's model changed while its clone searched", room)
				break
			}
		}
		if st := <-done; st != Sat {
			t.Fatalf("room %d: clone: got %v, want Sat", room, st)
		}
		if &c.Model()[0] == buf || c.Model()[0] || !slices.Equal(src.Model(), want) {
			t.Fatalf("room %d: the clone's model shares the source's buffer", room)
		}

		src.ResetRun()
		if src.Model() != nil || src.modelBuf != nil {
			t.Fatalf("room %d: ResetRun left a model buffer behind", room)
		}
	}
}

func TestCloneWithDeletedClauses(t *testing.T) {
	a := NewSolver()
	if !deletedLearnts(a) {
		t.Fatalf("setup left no deleted clauses in the arena (deleted %d)", a.Stats().Deleted)
	}
	b := a.Clone(LearntRoom, nil)
	stA, stB := a.Solve(), b.Solve()
	if stA != Sat || stB != Sat {
		t.Fatalf("with deleted clauses: original %v, clone %v; want Sat, Sat", stA, stB)
	}
	if !reflect.DeepEqual(a.Model(), b.Model()) {
		t.Fatalf("models differ after Clone with deleted clauses")
	}
}

func TestClonePanicsAboveLevelZero(t *testing.T) {
	// Drive the solver to a nonzero decision level via a fault hook that
	// fires mid-search, then observe that Clone refuses. Simpler: fake it
	// by checking the guard through a trail limit push is not reachable
	// from the public API at rest — instead verify the panic path directly.
	s := NewSolver()
	satInstance(s)
	s.trailLim = append(s.trailLim, len(s.trail)) // simulate an open decision level
	defer func() {
		if recover() == nil {
			t.Fatalf("Clone above level 0 did not panic")
		}
	}()
	s.Clone(LearntRoom, nil)
}

func TestCloneUnsatisfiableInstance(t *testing.T) {
	a := NewSolver()
	a.AddClause(1)
	a.AddClause(-1) // top-level contradiction: okay=false
	b := a.Clone(LearntRoom, nil)
	if st := b.Solve(); st != Unsat {
		t.Fatalf("clone of contradictory instance: got %v, want Unsat", st)
	}
}

// TestCloneSearchesIdenticallyUnderRelocation runs one search two ways
// — on a Clone and on its source — over random instances hard enough
// that the learnt clauses outgrow the arena headroom Clone leaves, watch
// lists move past the watcher slab's headroom so the slab grows, and
// reduceDB deletes clauses. Where a
// slab or a list sits in memory must not steer the search: the two
// runs must report equal Stats and models and end in byte-equal level-0
// snapshots.
func TestCloneSearchesIdenticallyUnderRelocation(t *testing.T) {
	grew, reduced := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		const nVars = 200
		src := NewSolver()
		src.EnsureVars(nVars)
		loadClauses(src, randomInstance(r, nVars, nVars*426/100, 3))
		// A short first search leaves learnt clauses, phases and
		// activities on the source, as a compiled base's probe does.
		src.SetBudget(50, 0)
		src.Solve()
		src.SetBudget(0, 0)
		src.ResetRun()

		clone := src.Clone(LearntRoom, nil)
		_, arenaRoom := clone.ArenaWords()
		slabRoom := cap(clone.watches.slab)
		runs := []struct {
			name string
			s    *Solver
		}{{"clone", clone}, {"source", src}}
		var stats []Stats
		var models [][]bool
		var snaps [][]byte
		var statuses []Status
		for _, run := range runs {
			statuses = append(statuses, run.s.Solve())
			stats = append(stats, run.s.Stats())
			models = append(models, run.s.Model())
			snaps = append(snaps, run.s.Snapshot())
		}
		if _, c := clone.ArenaWords(); c > arenaRoom && cap(clone.watches.slab) > slabRoom {
			grew++
		}
		if stats[0].Deleted > 0 {
			reduced++
		}
		for i := 1; i < len(runs); i++ {
			if statuses[i] != statuses[0] || stats[i] != stats[0] {
				t.Errorf("seed %d: %s %v %+v, clone %v %+v", seed, runs[i].name, statuses[i], stats[i], statuses[0], stats[0])
			}
			if !reflect.DeepEqual(models[i], models[0]) {
				t.Errorf("seed %d: %s model differs from the clone's", seed, runs[i].name)
			}
			if !bytes.Equal(snaps[i], snaps[0]) {
				t.Errorf("seed %d: %s level-0 snapshot differs from the clone's", seed, runs[i].name)
			}
		}
	}
	if grew == 0 || reduced == 0 {
		t.Fatalf("%d clones outgrew their arena and watcher-slab headroom and %d searches reduced the clause database; want at least one of each", grew, reduced)
	}
}

// TestConcurrentClonesOfFrozenSolver clones one frozen, binary-heavy
// solver from many goroutines at once and solves every clone, as
// concurrent queries over one cached base do. Every clone must share the
// source's implication table and run the same search, and the source's
// snapshot must not change. Under the race detector (make race) this
// also pins that Clone only reads its source and that concurrent
// searches only read the shared table.
func TestConcurrentClonesOfFrozenSolver(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	nVars, clauses, _ := binaryHeavyInstance(r, 100, 6, 4.0)
	base := NewSolver()
	base.EnsureVars(nVars)
	loadClauses(base, clauses)
	base.SetBudget(50, 0) // a cut-short probe: a prior, but no verdict
	base.Solve()
	base.SetBudget(0, 0)
	base.ResetRun()
	frozen := base.Snapshot()

	assumps := []Lit{-1, 2}
	ref := base.Clone(LearntRoom, nil)
	if base.bins == nil || ref.bins != base.bins {
		t.Fatal("the clone does not share the frozen solver's implication table")
	}
	refStatus := ref.SolveAssuming(assumps)
	refStats := ref.Stats()
	if refStats.Conflicts == 0 {
		t.Fatal("the clones' search needs no conflict; the test exercises too little")
	}

	const workers, rounds = 8, 4
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := base.Clone(LearntRoom, nil)
				if c.bins != base.bins {
					errs <- fmt.Errorf("a concurrent clone does not share the implication table")
				}
				if st := c.SolveAssuming(assumps); st != refStatus || c.Stats() != refStats {
					errs <- fmt.Errorf("clone answered %v %+v, want %v %+v", st, c.Stats(), refStatus, refStats)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !bytes.Equal(base.Snapshot(), frozen) {
		t.Fatal("cloning changed the source solver")
	}
}

// BenchmarkClone clones a frozen binary-heavy solver, as a warm query
// clones its cached base. The implication table is shared, so the bytes
// per clone are the arena, the private watch lists and the per-variable
// state, not the problem binaries.
func BenchmarkClone(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	nVars, clauses, _ := binaryHeavyInstance(r, 300, 6, 4.0)
	base := NewSolver()
	base.EnsureVars(nVars)
	loadClauses(base, clauses)
	base.SetBudget(50, 0)
	base.Solve()
	base.SetBudget(0, 0)
	base.ResetRun()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.Clone(LearntRoom, nil)
	}
}

// TestWatchTableReclaim: once the watcher slab is full, a list that must
// move is first made room for by reclaim, which slides the lists down
// over the runs moved lists left behind inside the same slab; every list
// keeps its watchers in order, and after maxReclaims reclaims the slab
// grows instead. Each step moves a watcher from one list to another, as
// propagate does, so the live watchers stay as many as at the start.
func TestWatchTableReclaim(t *testing.T) {
	const lits = 64
	r := rand.New(rand.NewSource(1))
	tab := watchTable{spans: make([]span, lits)}
	want := make([][]watcher, lits)
	push := func(l int) {
		w := watcher{c: cref(r.Intn(1 << 20)), blocker: lit(r.Intn(2 * lits))}
		tab.push(lit(l), w)
		want[l] = append(want[l], w)
	}
	for l := 0; l < lits; l++ {
		push(l)
	}
	// A frozen layout with a clone's headroom.
	tab.compact(nil, 0)
	tab.slab = grown(tab.slab, len(tab.slab)/2+8)
	capacity := cap(tab.slab)
	reclaims := 0
	for cap(tab.slab) == capacity {
		from := r.Intn(lits)
		if n := len(want[from]); n > 0 {
			tab.spans[from].n--
			want[from] = want[from][:n-1]
		}
		before := tab.reclaims
		push(r.Intn(lits))
		if tab.reclaims > before {
			reclaims++
		}
		for l, ws := range want {
			sp := tab.spans[l]
			if got := tab.slab[sp.off : sp.off+sp.n]; !reflect.DeepEqual(got, ws) {
				t.Fatalf("after %d reclaims, list %d holds %v, want %v", reclaims, l, got, ws)
			}
		}
	}
	if reclaims != maxReclaims {
		t.Fatalf("the slab grew after %d reclaims, want %d", reclaims, maxReclaims)
	}
}
