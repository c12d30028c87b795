package sat

import (
	"context"
	"testing"
	"time"
)

func TestSetBudgetConflicts(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 8, 7) // needs far more than 5 conflicts
	s.SetBudget(5, 0)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("budgeted solve returned %v, want Unknown", st)
	}
	if s.StopCause() != StopConflicts {
		t.Fatalf("StopCause = %v, want StopConflicts", s.StopCause())
	}
	if got := s.Stats().Conflicts; got < 5 {
		t.Fatalf("stats report %d conflicts, want >= 5", got)
	}
	// Lifting the budget lets the same solver finish the proof.
	s.SetBudget(0, 0)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("unbudgeted re-solve returned %v, want Unsat", st)
	}
	if s.StopCause() != StopNone {
		t.Fatalf("StopCause after verdict = %v, want StopNone", s.StopCause())
	}
}

func TestSetBudgetDecisions(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 8, 7)
	s.SetBudget(0, 3)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("decision-budgeted solve returned %v, want Unknown", st)
	}
	if s.StopCause() != StopDecisions {
		t.Fatalf("StopCause = %v, want StopDecisions", s.StopCause())
	}
}

func TestSetBudgetReArm(t *testing.T) {
	// Each SetBudget call grants a fresh allowance relative to work
	// already done, so repeated phases make forward progress and the
	// accumulated budget eventually completes the proof.
	s := NewSolver()
	pigeonhole(s, 7, 6)
	for phase := 0; phase < 10000; phase++ {
		s.SetBudget(20, 0)
		switch st := s.Solve(); st {
		case Unsat:
			return // proof finished across re-armed phases
		case Unknown:
			if s.StopCause() != StopConflicts {
				t.Fatalf("phase %d: StopCause = %v, want StopConflicts", phase, s.StopCause())
			}
		default:
			t.Fatalf("phase %d: got %v", phase, st)
		}
	}
	t.Fatal("re-armed phases never completed the proof")
}

func TestFaultHookSolveEntry(t *testing.T) {
	s := NewSolver()
	s.AddClause(1, 2)
	s.SetFaultHook(func(ev FaultEvent, _ Stats) bool { return ev == EventSolve })
	if st := s.Solve(); st != Unknown {
		t.Fatalf("solve-entry fault returned %v, want Unknown", st)
	}
	if s.StopCause() != StopInterrupt {
		t.Fatalf("StopCause = %v, want StopInterrupt", s.StopCause())
	}
	// Removing the hook and clearing the (sticky) interrupt restores the
	// solver.
	s.SetFaultHook(nil)
	s.ClearInterrupt()
	if st := s.Solve(); st != Sat {
		t.Fatalf("recovered solve returned %v, want Sat", st)
	}
}

func TestFaultHookNthConflict(t *testing.T) {
	const n = 4
	s := NewSolver()
	pigeonhole(s, 8, 7)
	s.SetFaultHook(func(ev FaultEvent, st Stats) bool {
		return ev == EventConflict && st.Conflicts >= n
	})
	if st := s.Solve(); st != Unknown {
		t.Fatalf("Nth-conflict fault returned %v, want Unknown", st)
	}
	if s.StopCause() != StopInterrupt {
		t.Fatalf("StopCause = %v, want StopInterrupt", s.StopCause())
	}
	if got := s.Stats().Conflicts; got != n {
		t.Fatalf("stopped after %d conflicts, want exactly %d", got, n)
	}
}

func TestFaultHookObservesWithoutTripping(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 6, 5)
	sawSolve, sawConflict := false, false
	s.SetFaultHook(func(ev FaultEvent, _ Stats) bool {
		switch ev {
		case EventSolve:
			sawSolve = true
		case EventConflict:
			sawConflict = true
		}
		return false
	})
	if st := s.Solve(); st != Unsat {
		t.Fatalf("observed solve returned %v, want Unsat", st)
	}
	if !sawSolve || !sawConflict {
		t.Fatalf("hook saw solve=%v conflict=%v, want both", sawSolve, sawConflict)
	}
}

func TestWatchExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSolver()
	s.AddClause(1)
	release := Watch(ctx, s)
	defer release()
	// The interrupt is set synchronously for an already-done context, so
	// the refusal is deterministic, not racy.
	if st := s.Solve(); st != Unknown {
		t.Fatalf("solve under expired context returned %v, want Unknown", st)
	}
	if s.StopCause() != StopInterrupt {
		t.Fatalf("StopCause = %v, want StopInterrupt", s.StopCause())
	}
}

func TestWatchDeadlineStopsHardSolve(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 12, 11) // minutes of work, far past the deadline
	deadline := 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	release := Watch(ctx, s)
	defer release()
	start := time.Now()
	st := s.Solve()
	elapsed := time.Since(start)
	if st != Unknown {
		t.Fatalf("deadline solve returned %v, want Unknown", st)
	}
	if s.StopCause() != StopInterrupt {
		t.Fatalf("StopCause = %v, want StopInterrupt", s.StopCause())
	}
	// Generous bound: the solver polls at conflict boundaries, so it must
	// stop within a small multiple of the deadline, never hang.
	if elapsed > 10*deadline+2*time.Second {
		t.Fatalf("solve ran %s past a %s deadline", elapsed, deadline)
	}
}

func TestWatchReleaseDisarms(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSolver()
	s.AddClause(1, 2)
	release := Watch(ctx, s)
	release() // disarm before the cancel fires
	cancel()
	if st := s.Solve(); st != Sat {
		t.Fatalf("solve after released watchdog returned %v, want Sat", st)
	}
	// Background contexts are a no-op watch.
	release = Watch(context.Background(), s)
	release()
	if st := s.Solve(); st != Sat {
		t.Fatalf("solve under background watch returned %v, want Sat", st)
	}
}

func TestWatchGroupInterruptsRegisteredSolvers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := WatchAll(ctx)
	defer g.Release()
	var solvers []*Solver
	for i := 0; i < 3; i++ {
		s := NewSolver()
		pigeonhole(s, 12, 11) // minutes of work without the interrupt
		g.Add(s)
		solvers = append(solvers, s)
	}
	done := make(chan Status, len(solvers))
	for _, s := range solvers {
		s := s
		go func() { done <- s.Solve() }()
	}
	cancel()
	for range solvers {
		select {
		case st := <-done:
			if st != Unknown {
				t.Fatalf("interrupted worker returned %v, want Unknown", st)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a registered worker hung past the group cancel")
		}
	}
	for i, s := range solvers {
		if s.StopCause() != StopInterrupt {
			t.Fatalf("worker %d: StopCause = %v, want StopInterrupt", i, s.StopCause())
		}
	}
}

func TestWatchGroupAddAfterFire(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := WatchAll(ctx)
	defer g.Release()
	// The group starts fired: Add must interrupt synchronously, so a
	// drained pool cannot start new work.
	s := NewSolver()
	s.AddClause(1)
	g.Add(s)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("solve after fired Add returned %v, want Unknown", st)
	}
	if s.StopCause() != StopInterrupt {
		t.Fatalf("StopCause = %v, want StopInterrupt", s.StopCause())
	}
}

func TestWatchGroupDetachAndRelease(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := WatchAll(ctx)
	s := NewSolver()
	s.AddClause(1, 2)
	detach := g.Add(s)
	detach() // worker finished before the context fired
	g.Release()
	detach() // safe after Release
	cancel()
	if st := s.Solve(); st != Sat {
		t.Fatalf("detached solver returned %v, want Sat", st)
	}

	// An inert group (no cancellable context) is pure bookkeeping.
	inert := WatchAll(context.Background())
	d := inert.Add(s)
	d()
	inert.Release()
	s2 := NewSolver()
	s2.AddClause(3)
	inert2 := WatchAll(nil)
	inert2.Add(s2)
	inert2.Release()
	if st := s2.Solve(); st != Sat {
		t.Fatalf("solver under inert group returned %v, want Sat", st)
	}
}

func TestStopCauseStrings(t *testing.T) {
	cases := map[StopCause]string{
		StopNone:      "none",
		StopInterrupt: "interrupt",
		StopConflicts: "conflict budget",
		StopDecisions: "decision budget",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
	if EventSolve.String() != "solve" || EventConflict.String() != "conflict" {
		t.Error("FaultEvent strings wrong")
	}
}

func TestInterruptStopsSolve(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 12, 11) // far beyond quick solving
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(20 * time.Millisecond)
	s.Interrupt()
	select {
	case st := <-done:
		if st != Unknown && st != Unsat {
			t.Fatalf("interrupted solve returned %v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Interrupt did not stop the solve")
	}
	// The solver must remain usable afterwards.
	s2 := NewSolver()
	s2.AddClause(1)
	if s2.Solve() != Sat {
		t.Fatal("fresh solve after interrupt broken")
	}
}

func TestInterruptIsSticky(t *testing.T) {
	s := NewSolver()
	s.AddClause(1, 2)
	s.Interrupt()
	if s.Solve() != Unknown {
		t.Fatal("a pending interrupt must stop Solve before it starts")
	}
	s.ClearInterrupt()
	if s.Solve() != Sat {
		t.Fatal("ClearInterrupt must re-arm the solver")
	}
}
