package core

import (
	"context"
	"errors"
	"fmt"
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
	// Timeout caps wall-clock time for the whole query, from its entry.
	// It composes with any deadline on the context — the earlier one
	// wins. Zero means no extra deadline. A compile is not interrupted:
	// a deadline that passes during one stops the query at its first
	// solve.
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
	// Wall runs from the query's entry: it covers the slice, the compile
	// and the clone as well as the solves.
	Wall time.Duration
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
// per-phase work budgets, and the one solver the query runs on. Adoption
// registers context.AfterFunc(ctx, s.Interrupt): nothing runs until the
// context fires, so a query whose context does not fire starts no
// goroutine. A governor is used only by its query's goroutine.
type governor struct {
	ctx    context.Context
	cancel context.CancelFunc // the Budget.Timeout deadline's, when armed
	budget Budget
	query  string
	start  time.Time

	s    *sat.Solver // the adopted solver
	stop func() bool // its AfterFunc registration; nil when the context can never fire

	tripped bool
	cause   string
	ctxErr  error
}

// govern starts governance for one query at its entry. Callers adopt the
// solver the query runs on once it is built and must call g.done() when
// the query ends.
func govern(ctx context.Context, query string, b Budget) *governor {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &governor{ctx: ctx, budget: b, query: query, start: time.Now()}
	if b.Timeout > 0 {
		g.ctx, g.cancel = context.WithTimeout(ctx, b.Timeout)
	}
	return g
}

// refuse trips the governor and returns the query's
// *ErrResourceExhausted when its context is already done, so such a
// query stops before it compiles anything; otherwise it returns nil.
func (g *governor) refuse() error {
	if g.ctx.Err() == nil {
		return nil
	}
	g.trip(sat.StopInterrupt)
	return g.exhausted()
}

// adopt places s under governance and arms its first phase. Call it
// once per query. A context that can never fire registers nothing; an
// already-done context interrupts s before adopt returns, so its next
// Solve refuses deterministically.
func (g *governor) adopt(s *sat.Solver) {
	g.s = s
	if g.ctx.Err() != nil {
		s.Interrupt()
	} else if g.ctx.Done() != nil {
		g.stop = context.AfterFunc(g.ctx, s.Interrupt)
	}
	g.phase()
}

// phase re-arms the per-phase budgets on the adopted solver: its next
// solver calls get a fresh MaxConflicts/MaxDecisions allowance on top of
// whatever earlier phases spent. The wall-clock deadline is query-global
// and is NOT re-armed: a delivered interrupt stays sticky across phases.
func (g *governor) phase() {
	g.s.SetBudget(g.budget.MaxConflicts, g.budget.MaxDecisions)
}

// trip classifies the solver's stop (its StopCause after an Unknown
// verdict) and returns the cause. The first trip is the query's and is
// recorded for exhausted.
func (g *governor) trip(c sat.StopCause) string {
	cause, ctxErr := stopCause(c, g.ctx)
	if !g.tripped {
		g.tripped, g.cause, g.ctxErr = true, cause, ctxErr
	}
	return cause
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

// spent reports the query's consumption: the adopted solver's counters,
// zero before adoption, and the wall time since the query started.
func (g *governor) spent() BudgetSpent {
	sp := BudgetSpent{Wall: time.Since(g.start)}
	if g.s != nil {
		st := g.s.Stats()
		sp.Conflicts, sp.Decisions = st.Conflicts, st.Decisions
	}
	return sp
}

// exhausted builds the typed error for the query's first trip, or
// returns nil when nothing tripped.
func (g *governor) exhausted() *ErrResourceExhausted {
	if !g.tripped {
		return nil
	}
	return &ErrResourceExhausted{Query: g.query, Cause: g.cause, Spent: g.spent(), ctxErr: g.ctxErr}
}

// done releases the adopted solver from the context and stops the
// query's deadline. Call exactly once, when the query ends.
func (g *governor) done() {
	if g.stop != nil {
		g.stop()
	}
	if g.cancel != nil {
		g.cancel()
	}
}
