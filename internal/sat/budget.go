package sat

// This file is the solver's resource-governance surface: per-call work
// budgets (SetBudget), a typed reason for every Unknown verdict
// (StopCause), Interrupt for callers that govern a solver from another
// goroutine (internal/core registers it with context.AfterFunc), and a
// deterministic fault-injection seam (SetFaultHook) so callers can
// exercise every degraded path in tests.

// Interrupt asks the solver to stop: a running Solve returns Unknown at
// the next conflict boundary, and any Solve started while the interrupt
// is pending returns Unknown immediately. The flag is sticky — call
// ClearInterrupt to make the solver runnable again. Interrupt is safe to
// call from other goroutines and is idempotent.
func (s *Solver) Interrupt() { s.stop.Store(true) }

// ClearInterrupt re-arms a solver that was stopped with Interrupt.
func (s *Solver) ClearInterrupt() { s.stop.Store(false) }

// interrupted polls the flag without clearing it: an interrupt stays
// set across Solve calls until ClearInterrupt.
func (s *Solver) interrupted() bool { return s.stop.Load() }

// StopCause explains why the last Solve call returned Unknown.
type StopCause int

// Stop causes.
const (
	// StopNone: the last solve reached a verdict (or none ran yet).
	StopNone StopCause = iota
	// StopInterrupt: Interrupt was called (directly, by a governing
	// context, or by a fault hook).
	StopInterrupt
	// StopConflicts: the conflict budget was exhausted.
	StopConflicts
	// StopDecisions: the decision budget was exhausted.
	StopDecisions
)

// String names the stop cause.
func (c StopCause) String() string {
	switch c {
	case StopInterrupt:
		return "interrupt"
	case StopConflicts:
		return "conflict budget"
	case StopDecisions:
		return "decision budget"
	default:
		return "none"
	}
}

// StopCause reports why the last Solve returned Unknown (StopNone after a
// definitive verdict). Only meaningful from the goroutine that ran Solve.
func (s *Solver) StopCause() StopCause { return s.stopCause }

// SetBudget bounds the work of subsequent Solve calls relative to work
// already done: at most conflicts more conflicts and decisions more
// decisions may be spent (across all further calls) before Solve returns
// Unknown. A zero lifts the corresponding bound. Call again to re-arm a
// fresh allowance for a new phase. It is the solver's only work bound.
func (s *Solver) SetBudget(conflicts, decisions int64) {
	s.confLimit = 0
	s.decLimit = 0
	if conflicts > 0 {
		s.confLimit = s.stats.Conflicts + conflicts
	}
	if decisions > 0 {
		s.decLimit = s.stats.Decisions + decisions
	}
}

// SetFaultHook installs (or, with nil, removes) the fault-injection
// callback. The hook runs on the solving goroutine at every Solve entry
// and every conflict boundary; returning true interrupts the solver at
// that point (the running Solve returns Unknown with StopCause
// StopInterrupt). It exists to make degraded paths — interrupts and
// Unknown verdicts at exactly the Nth conflict — deterministically
// reproducible in tests. Clones inherit the hook.
func (s *Solver) SetFaultHook(h func(FaultEvent, Stats) bool) { s.fault = h }

// FaultEvent tells a FaultHook where in the solve it is being invoked.
type FaultEvent int

// Fault-hook invocation points.
const (
	// EventSolve fires once at the start of every Solve/SolveAssuming.
	EventSolve FaultEvent = iota
	// EventConflict fires at every conflict boundary, immediately after
	// the conflict is counted (Stats.Conflicts includes it).
	EventConflict
)

// String names the fault event.
func (e FaultEvent) String() string {
	if e == EventConflict {
		return "conflict"
	}
	return "solve"
}

func (s *Solver) fireFault(ev FaultEvent) bool {
	return s.fault != nil && s.fault(ev, s.stats)
}

func (s *Solver) conflictsExhausted() bool {
	return s.confLimit > 0 && s.stats.Conflicts >= s.confLimit
}

func (s *Solver) decisionsExhausted() bool {
	return s.decLimit > 0 && s.stats.Decisions >= s.decLimit
}

// unknownCause classifies an Unknown verdict. Interrupts dominate: a
// governing context or fault hook stopping the solver is reported even
// if a budget happens to be exhausted too.
func (s *Solver) unknownCause() StopCause {
	switch {
	case s.interrupted():
		return StopInterrupt
	case s.conflictsExhausted():
		return StopConflicts
	case s.decisionsExhausted():
		return StopDecisions
	default:
		return StopInterrupt
	}
}
