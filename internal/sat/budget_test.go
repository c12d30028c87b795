package sat

import (
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
	s.clearInterrupt()
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
	s.clearInterrupt()
	if s.Solve() != Sat {
		t.Fatal("clearing the interrupt must re-arm the solver")
	}
}
