package sat

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file is the solver's resource-governance surface: per-call work
// budgets (SetBudget), a typed reason for every Unknown verdict
// (StopCause), a context watchdog that converts cancellation into
// Interrupt (Watch), and a deterministic fault-injection seam
// (SetFaultHook) so callers can exercise every degraded path in tests.

// Interrupt asks the solver to stop: a running Solve returns Unknown at
// the next conflict boundary, and any Solve started while the interrupt
// is pending returns Unknown immediately. The flag is sticky — call
// ClearInterrupt to make the solver runnable again. Interrupt is safe to
// call from other goroutines and is idempotent.
func (s *Solver) Interrupt() { s.stop.Store(true) }

// ClearInterrupt re-arms a solver that was stopped with Interrupt.
func (s *Solver) ClearInterrupt() { s.stop.Store(false) }

// interrupted polls and clears nothing — the flag is reset at the start
// of each Solve.
func (s *Solver) interrupted() bool { return s.stop.Load() }

// stopFlag is a tiny wrapper so the Solver zero-value works.
type stopFlag struct{ v atomic.Bool }

func (f *stopFlag) Store(b bool) { f.v.Store(b) }
func (f *stopFlag) Load() bool   { return f.v.Load() }

// StopCause explains why the last Solve call returned Unknown.
type StopCause int

// Stop causes.
const (
	// StopNone: the last solve reached a verdict (or none ran yet).
	StopNone StopCause = iota
	// StopInterrupt: Interrupt was called (directly, by a Watch
	// watchdog, or by a fault hook).
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
// fresh allowance for a new phase. Budgets compose with Options
// MaxConflicts/MaxDecisions (absolute caps); whichever trips first wins.
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
// callback; see Options.FaultHook. The hook runs on the solving goroutine
// at every Solve entry and every conflict boundary; returning true
// interrupts the solver at that point. It exists to make degraded paths
// — interrupts and Unknown verdicts at exactly the Nth conflict —
// deterministically reproducible in tests.
func (s *Solver) SetFaultHook(h func(FaultEvent, Stats) bool) { s.opts.FaultHook = h }

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
	return s.opts.FaultHook != nil && s.opts.FaultHook(ev, s.stats)
}

func (s *Solver) conflictsExhausted() bool {
	if s.opts.MaxConflicts > 0 && s.stats.Conflicts >= s.opts.MaxConflicts {
		return true
	}
	return s.confLimit > 0 && s.stats.Conflicts >= s.confLimit
}

func (s *Solver) decisionsExhausted() bool {
	if s.opts.MaxDecisions > 0 && s.stats.Decisions >= s.opts.MaxDecisions {
		return true
	}
	return s.decLimit > 0 && s.stats.Decisions >= s.decLimit
}

// unknownCause classifies an Unknown verdict. Interrupts dominate: a
// watchdog or fault hook stopping the solver is reported even if a budget
// happens to be exhausted too.
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

// Watch arms a watchdog that converts ctx cancellation (deadline expiry
// or explicit cancel) into Interrupt on s, making every context-governed
// query bounded: the running Solve returns Unknown at the next conflict
// boundary instead of hanging. If ctx is already done, the interrupt is
// set synchronously before Watch returns, so a subsequent Solve refuses
// to start deterministically.
//
// The returned release function stops the watchdog; call it (typically
// deferred) when the governed query ends. It does not clear a fired
// interrupt — the solver stays stopped, which is what a per-query solver
// wants; call ClearInterrupt explicitly to reuse the solver.
func Watch(ctx context.Context, s *Solver) (release func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	select {
	case <-ctx.Done():
		s.Interrupt()
		return func() {}
	default:
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			s.Interrupt()
		case <-stop:
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// WatchGroup is the fan-out analogue of Watch: one watchdog goroutine
// interrupting a dynamic set of solvers when a shared context fires.
// A parallel query registers each worker or probe solver with Add and
// detaches it when that solver's work ends; Release stops the watchdog
// when the query is over. After the context has fired, Add interrupts
// the solver synchronously, so a drained pool cannot start new work.
type WatchGroup struct {
	mu      sync.Mutex
	solvers map[*Solver]struct{}
	fired   bool

	stop chan struct{}
	done chan struct{}
}

// WatchAll arms a group watchdog on ctx. With a context that can never
// fire (nil, or a nil Done channel) the group is inert: Add and Release
// still work but cost only the registration bookkeeping. If ctx is
// already done, the group starts in the fired state — every Add
// interrupts its solver deterministically before returning, mirroring
// Watch's synchronous pre-check.
func WatchAll(ctx context.Context) *WatchGroup {
	g := &WatchGroup{solvers: make(map[*Solver]struct{})}
	if ctx == nil || ctx.Done() == nil {
		return g
	}
	select {
	case <-ctx.Done():
		g.fired = true
		return g
	default:
	}
	g.stop = make(chan struct{})
	g.done = make(chan struct{})
	go func() {
		defer close(g.done)
		select {
		case <-ctx.Done():
			g.fire()
		case <-g.stop:
		}
	}()
	return g
}

func (g *WatchGroup) fire() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.fired = true
	for s := range g.solvers {
		s.Interrupt()
	}
}

// Add registers s for interruption and returns its detach function
// (safe to call after Release). If the context already fired, s is
// interrupted synchronously and the registration is a no-op, so a
// subsequent Solve refuses to start.
func (g *WatchGroup) Add(s *Solver) (detach func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fired {
		s.Interrupt()
		return func() {}
	}
	g.solvers[s] = struct{}{}
	return func() {
		g.mu.Lock()
		delete(g.solvers, s)
		g.mu.Unlock()
	}
}

// Release stops the watchdog goroutine; call it exactly once, when the
// governed query ends. Like Watch's release, it does not clear
// interrupts already delivered — per-query solvers stay stopped.
func (g *WatchGroup) Release() {
	if g.stop == nil {
		return
	}
	close(g.stop)
	<-g.done
}
