package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"netarch/internal/sat"
)

// This file is the engine's resource-governance layer. Every query entry
// point has a *Ctx variant threading a context.Context plus an explicit
// Budget down into the SAT solver; one governor per query converts
// cancellation and deadline expiry into solver interrupts, and per-phase
// conflict/decision budgets arm the solver's work limits. Queries degrade gracefully
// instead of hanging or silently truncating: Unknown verdicts surface as
// a typed *ErrResourceExhausted, explanation minimization falls back to
// an unminimized-but-correct core (Explanation.Approximate), and
// enumeration reports truncation explicitly.

// Budget bounds the resources one query may spend. The zero value means
// unbounded (beyond any deadline already carried by the context).
type Budget struct {
	// Timeout caps wall-clock time for the whole query. It composes
	// with any deadline on the context — the earlier one wins. Zero
	// means no extra deadline.
	Timeout time.Duration
	// MaxConflicts bounds solver conflicts per phase: the main decision
	// and each degradable follow-up phase (explanation minimization, one
	// objective level, one enumeration class) get a fresh allowance.
	// Zero means unlimited.
	MaxConflicts int64
	// MaxDecisions bounds solver decisions per phase. Zero means
	// unlimited.
	MaxDecisions int64
}

// BudgetSpent reports the resources a query actually consumed. It is
// populated on every path — feasible, infeasible, and exhausted.
type BudgetSpent struct {
	Conflicts int64
	Decisions int64
	Wall      time.Duration
}

// String renders the spent budget.
func (b BudgetSpent) String() string {
	return fmt.Sprintf("%d conflicts, %d decisions, %s wall",
		b.Conflicts, b.Decisions, b.Wall.Round(time.Microsecond))
}

// ErrResourceExhausted reports that a query stopped because a resource
// budget tripped, naming which one and what was spent. Retrieve it with
// errors.As or IsResourceExhausted; when a context deadline or cancel
// was the cause, errors.Is(err, context.DeadlineExceeded) (respectively
// context.Canceled) also holds via Unwrap.
type ErrResourceExhausted struct {
	// Query names the entry point that stopped ("synthesize", "check",
	// "explain", "enumerate", "optimize", "suggest").
	Query string
	// Cause names the budget that tripped: "deadline", "canceled",
	// "conflict budget", "decision budget", or "interrupt".
	Cause string
	// Spent is what the query consumed before stopping.
	Spent BudgetSpent

	ctxErr error // the context error when it caused the stop
}

// Error renders the exhaustion report.
func (e *ErrResourceExhausted) Error() string {
	return fmt.Sprintf("core: %s stopped: %s exhausted after %s", e.Query, e.Cause, e.Spent)
}

// Unwrap exposes the underlying context error (nil for pure work-budget
// trips), so errors.Is against context.DeadlineExceeded/Canceled works.
func (e *ErrResourceExhausted) Unwrap() error { return e.ctxErr }

// IsResourceExhausted reports whether err is (or wraps) a resource-
// exhaustion error.
func IsResourceExhausted(err error) bool {
	var e *ErrResourceExhausted
	return errors.As(err, &e)
}

// governor governs one query: its context and wall-clock deadline, the
// per-phase work budgets, and every solver the query runs on — one for
// a single-solver query, one per cube clone for an enumeration or
// Pareto pool. Adoption registers context.AfterFunc(ctx, s.Interrupt):
// nothing runs until the context fires, so a query whose context does
// not fire starts no goroutine. The first solver to stop records the
// query's cause and interrupts every other adopted solver, which drains
// a pool. Spent sums every solver's counters.
type governor struct {
	ctx    context.Context
	cancel context.CancelFunc // the Budget.Timeout deadline's, when armed
	budget Budget
	query  string
	start  time.Time

	mu        sync.Mutex
	live      []adoption  // adopted solvers not yet released
	one       [1]adoption // backs live, so a single-solver query allocates no slice
	conflicts int64       // summed over released solvers
	decisions int64
	tripped   bool
	cause     string
	ctxErr    error
}

// adoption is one solver under governance and its AfterFunc
// registration (nil when the context can never fire).
type adoption struct {
	s    *sat.Solver
	stop func() bool
}

// govern starts governance for one query. Callers adopt the solvers the
// query runs on and must defer g.done().
func govern(ctx context.Context, query string, b Budget) *governor {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &governor{ctx: ctx, budget: b, query: query, start: time.Now()}
	g.live = g.one[:0]
	if b.Timeout > 0 {
		g.ctx, g.cancel = context.WithTimeout(ctx, b.Timeout)
	}
	return g
}

// adopt places s under governance and arms its first phase. A context
// that can never fire registers nothing. If the context is already done,
// or the query has already tripped, s is interrupted before adopt
// returns, so its next Solve refuses deterministically.
func (g *governor) adopt(s *sat.Solver) {
	a := adoption{s: s}
	if g.ctx.Err() != nil {
		s.Interrupt()
	} else if g.ctx.Done() != nil {
		a.stop = context.AfterFunc(g.ctx, s.Interrupt)
	}
	g.mu.Lock()
	g.live = append(g.live, a)
	if g.tripped {
		s.Interrupt()
	}
	g.mu.Unlock()
	g.phase(s)
}

// release ends s's governance and folds its counters into the query's
// spent. Call it once, after s's last solve. It does not clear a
// delivered interrupt: every governed solver is private to its query.
func (g *governor) release(s *sat.Solver) {
	st := s.Stats()
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, a := range g.live {
		if a.s == s {
			if a.stop != nil {
				a.stop()
			}
			last := len(g.live) - 1
			g.live[i] = g.live[last]
			g.live = g.live[:last]
			break
		}
	}
	g.conflicts += st.Conflicts
	g.decisions += st.Decisions
}

// phase re-arms the per-phase budgets on s: its next solver calls get a
// fresh MaxConflicts/MaxDecisions allowance on top of whatever earlier
// phases spent. The wall-clock deadline is query-global and is NOT
// re-armed: a delivered interrupt stays sticky across phases.
func (g *governor) phase(s *sat.Solver) {
	s.SetBudget(g.budget.MaxConflicts, g.budget.MaxDecisions)
}

// trip classifies a solver's stop (its StopCause after an Unknown
// verdict) and returns the cause. The first trip is the query's: it is
// recorded and interrupts every adopted solver, which drains a pool.
func (g *governor) trip(c sat.StopCause) string {
	cause, ctxErr := stopCause(c, g.ctx)
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.tripped {
		g.tripped, g.cause, g.ctxErr = true, cause, ctxErr
		for _, a := range g.live {
			a.s.Interrupt()
		}
	}
	return cause
}

// stopped reports whether a pool must stop taking work because the
// query tripped or its context fired. A fired context is recorded as the
// trip here, so the result is labelled even when no solver was
// mid-solve at the time.
func (g *governor) stopped() bool {
	if g.ctx.Err() != nil {
		g.trip(sat.StopInterrupt)
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tripped
}

// stopCause classifies a solver stop under the query's context: work
// budgets are named directly; an interrupt is attributed to the context
// (deadline vs cancel) when it fired.
func stopCause(c sat.StopCause, ctx context.Context) (string, error) {
	switch c {
	case sat.StopConflicts:
		return "conflict budget", nil
	case sat.StopDecisions:
		return "decision budget", nil
	}
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return "deadline", err
		}
		return "canceled", err
	}
	return "interrupt", nil
}

// spent reports the query's consumption: the counters of every released
// solver plus those of the solvers still adopted, and the wall time
// since the query started.
func (g *governor) spent() BudgetSpent {
	g.mu.Lock()
	defer g.mu.Unlock()
	sp := BudgetSpent{Conflicts: g.conflicts, Decisions: g.decisions, Wall: time.Since(g.start)}
	for _, a := range g.live {
		st := a.s.Stats()
		sp.Conflicts += st.Conflicts
		sp.Decisions += st.Decisions
	}
	return sp
}

// exhausted builds the typed error for the query's first trip, or
// returns nil when nothing tripped.
func (g *governor) exhausted() *ErrResourceExhausted {
	sp := g.spent()
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.tripped {
		return nil
	}
	return &ErrResourceExhausted{Query: g.query, Cause: g.cause, Spent: sp, ctxErr: g.ctxErr}
}

// done stops every remaining registration and the query's deadline.
// Call exactly once, when the query ends.
func (g *governor) done() {
	g.mu.Lock()
	for _, a := range g.live {
		if a.stop != nil {
			a.stop()
		}
	}
	g.mu.Unlock()
	if g.cancel != nil {
		g.cancel()
	}
}
