package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"netarch/internal/sat"
)

// pigeonholeSolver loads PHP(m, n), m pigeons into n holes: unsat for
// m > n, and exponentially hard for resolution as n grows.
func pigeonholeSolver(m, n int) *sat.Solver {
	s := sat.NewSolver()
	v := func(p, h int) sat.Lit { return sat.Lit(p*n + h + 1) }
	for p := 0; p < m; p++ {
		c := make([]sat.Lit, n)
		for h := 0; h < n; h++ {
			c[h] = v(p, h)
		}
		s.AddClause(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < m; p1++ {
			for p2 := p1 + 1; p2 < m; p2++ {
				s.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
	return s
}

func TestGovernorExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := govern(ctx, "test", Budget{})
	defer g.done()
	s := sat.NewSolver()
	s.AddClause(1)
	g.adopt(s)
	// The interrupt is set synchronously for an already-done context, so
	// the refusal is deterministic, not racy.
	if st := s.Solve(); st != sat.Unknown {
		t.Fatalf("solve under expired context returned %v, want Unknown", st)
	}
	if s.StopCause() != sat.StopInterrupt {
		t.Fatalf("StopCause = %v, want StopInterrupt", s.StopCause())
	}
}

func TestGovernorDeadlineStopsHardSolve(t *testing.T) {
	s := pigeonholeSolver(12, 11) // minutes of work, far past the deadline
	deadline := 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	g := govern(ctx, "test", Budget{})
	defer g.done()
	g.adopt(s)
	start := time.Now()
	st := s.Solve()
	elapsed := time.Since(start)
	if st != sat.Unknown {
		t.Fatalf("deadline solve returned %v, want Unknown", st)
	}
	if s.StopCause() != sat.StopInterrupt {
		t.Fatalf("StopCause = %v, want StopInterrupt", s.StopCause())
	}
	// Generous bound: the solver polls at conflict boundaries, so it must
	// stop within a small multiple of the deadline, never hang.
	if elapsed > 10*deadline+2*time.Second {
		t.Fatalf("solve ran %s past a %s deadline", elapsed, deadline)
	}
}

func TestGovernorReleaseDisarms(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := sat.NewSolver()
	s.AddClause(1, 2)
	g := govern(ctx, "test", Budget{})
	g.adopt(s)
	g.release(s) // disarm before the cancel fires
	cancel()
	g.done()
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("solve after released adoption returned %v, want Sat", st)
	}
	// Background contexts register nothing.
	g = govern(context.Background(), "test", Budget{})
	g.adopt(s)
	g.release(s)
	g.done()
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("solve under background governor returned %v, want Sat", st)
	}
}

func TestGovernorInterruptsAdoptedSolvers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := govern(ctx, "test", Budget{})
	defer g.done()
	var solvers []*sat.Solver
	for i := 0; i < 3; i++ {
		s := pigeonholeSolver(12, 11) // minutes of work without the interrupt
		g.adopt(s)
		solvers = append(solvers, s)
	}
	done := make(chan sat.Status, len(solvers))
	for _, s := range solvers {
		s := s
		go func() { done <- s.Solve() }()
	}
	cancel()
	for range solvers {
		select {
		case st := <-done:
			if st != sat.Unknown {
				t.Fatalf("interrupted worker returned %v, want Unknown", st)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("an adopted worker hung past the cancel")
		}
	}
	for i, s := range solvers {
		if s.StopCause() != sat.StopInterrupt {
			t.Fatalf("worker %d: StopCause = %v, want StopInterrupt", i, s.StopCause())
		}
	}
}

func TestGovernorAdoptAfterFire(t *testing.T) {
	// The context fires after the query started: adopt must interrupt
	// synchronously, so a drained pool cannot start new work.
	ctx, cancel := context.WithCancel(context.Background())
	g := govern(ctx, "test", Budget{})
	defer g.done()
	cancel()
	s := sat.NewSolver()
	s.AddClause(1)
	g.adopt(s)
	if st := s.Solve(); st != sat.Unknown {
		t.Fatalf("solve after fired adopt returned %v, want Unknown", st)
	}
	if s.StopCause() != sat.StopInterrupt {
		t.Fatalf("StopCause = %v, want StopInterrupt", s.StopCause())
	}

	// A trip drains the pool the same way, under a context that can
	// never fire.
	g2 := govern(context.Background(), "test", Budget{})
	defer g2.done()
	first := sat.NewSolver()
	first.AddClause(1)
	g2.adopt(first)
	first.Interrupt()
	if first.Solve() != sat.Unknown {
		t.Fatal("interrupted solver must stop")
	}
	g2.trip(first.StopCause())
	late := sat.NewSolver()
	late.AddClause(1)
	g2.adopt(late)
	if st := late.Solve(); st != sat.Unknown {
		t.Fatalf("solve adopted after a trip returned %v, want Unknown", st)
	}
	if ex := g2.exhausted(); ex == nil || ex.Cause != "interrupt" {
		t.Fatalf("exhausted = %v, want the interrupt trip", ex)
	}
}

func TestGovernorReleaseAndDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := govern(ctx, "test", Budget{})
	s := sat.NewSolver()
	s.AddClause(1, 2)
	g.adopt(s)
	g.release(s) // worker finished before the context fired
	g.done()
	cancel()
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("released solver returned %v, want Sat", st)
	}

	// A governor whose context can never fire is pure bookkeeping.
	inert := govern(context.Background(), "test", Budget{})
	inert.adopt(s)
	inert.release(s)
	inert.done()
	s2 := sat.NewSolver()
	s2.AddClause(3)
	inert2 := govern(nil, "test", Budget{})
	inert2.adopt(s2)
	inert2.done()
	if st := s2.Solve(); st != sat.Sat {
		t.Fatalf("solver under an inert governor returned %v, want Sat", st)
	}
}

func TestGovernedQueryStartsNoGoroutine(t *testing.T) {
	// A cancellable context is turned into interrupts by
	// context.AfterFunc, which runs nothing until the context fires: the
	// query must not add a goroutine while it solves.
	e := mustEngine(t, miniKB())
	if _, err := e.Synthesize(Scenario{}); err != nil { // warm the base
		t.Fatal(err)
	}
	during := 0
	e.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev == sat.EventSolve {
			during = max(during, runtime.NumGoroutine())
		}
		return false
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	if _, err := e.SynthesizeCtx(ctx, Scenario{}, Budget{}); err != nil {
		t.Fatal(err)
	}
	if during == 0 {
		t.Fatal("the fault hook never saw a solve")
	}
	if during > before {
		t.Fatalf("%d goroutines during the solve, %d before it", during, before)
	}
}
