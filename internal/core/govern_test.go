package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"netarch/internal/kb"
	"netarch/internal/sat"
)

// unsatScenario is the canonical infeasible query over miniKB: the
// pfc_no_flooding rule forbids the two context pins together.
func unsatScenario() Scenario {
	return Scenario{Context: map[string]bool{"pfc_enabled": true, "flooding_enabled": true}}
}

func TestDeadlineReturnsResourceExhausted(t *testing.T) {
	// Acceptance: an expired context must surface as *ErrResourceExhausted
	// within ~2x the deadline. The scenario itself solves in microseconds,
	// so a fault hook parks the first solve until the deadline has fired —
	// the watchdog interrupt must then stop the query promptly.
	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	e := mustEngine(t, miniKB())
	e.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev == sat.EventSolve {
			// Hold the solver until the deadline fires, then force the
			// interrupt at this boundary: deterministic, where racing the
			// watchdog goroutine's own Interrupt would not be. The
			// watchdog path itself is covered by the canceled-context
			// test (synchronous) and the sat-layer deadline test.
			<-ctx.Done()
			return true
		}
		return false
	})
	start := time.Now()
	rep, err := e.SynthesizeCtx(ctx, Scenario{}, Budget{})
	elapsed := time.Since(start)
	if rep != nil || err == nil {
		t.Fatalf("expired deadline must fail: rep=%v err=%v", rep, err)
	}
	var re *ErrResourceExhausted
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not *ErrResourceExhausted: %v", err, err)
	}
	if re.Query != "synthesize" || re.Cause != "deadline" {
		t.Errorf("exhaustion = query %q cause %q, want synthesize/deadline", re.Query, re.Cause)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("errors.Is(err, context.DeadlineExceeded) must hold")
	}
	if !IsResourceExhausted(err) {
		t.Error("IsResourceExhausted must hold")
	}
	if elapsed >= 2*deadline {
		t.Errorf("query took %s against a %s deadline (want < 2x)", elapsed, deadline)
	}
}

func TestBudgetTimeoutMapsToDeadline(t *testing.T) {
	// Budget.Timeout (no deadline on the caller's context) must behave
	// exactly like a context deadline, including errors.Is.
	const timeout = 50 * time.Millisecond
	e := mustEngine(t, miniKB())
	e.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev == sat.EventSolve {
			time.Sleep(4 * timeout) // outlive the budget's deadline
		}
		return false
	})
	_, err := e.SynthesizeCtx(context.Background(), Scenario{}, Budget{Timeout: timeout})
	var re *ErrResourceExhausted
	if !errors.As(err, &re) || re.Cause != "deadline" {
		t.Fatalf("got %v, want deadline exhaustion", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("errors.Is(err, context.DeadlineExceeded) must hold")
	}
}

func TestCanceledContextRefusesToStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := mustEngine(t, miniKB())
	_, err := e.SynthesizeCtx(ctx, Scenario{}, Budget{})
	var re *ErrResourceExhausted
	if !errors.As(err, &re) || re.Cause != "canceled" {
		t.Fatalf("got %v, want canceled exhaustion", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("errors.Is(err, context.Canceled) must hold")
	}
	// The refusal is synchronous, so no solver work may be spent.
	if re.Spent.Conflicts != 0 {
		t.Errorf("refused query spent %d conflicts, want 0", re.Spent.Conflicts)
	}
}

func TestOneConflictBudgetYieldsApproximateExplanation(t *testing.T) {
	// Acceptance: an UNSAT scenario under a 1-conflict budget must return
	// a report with Explanation.Approximate — a degraded answer, not a
	// hang and not a bare error. The main decision reaches Unsat at its
	// first conflict (verdicts at a boundary win over the budget), and
	// the minimization phase then trips its own 1-conflict allowance. The
	// fixture is the §5.1 over-constrained context on Q3's fleet (all
	// three workloads on 64 servers): minimizing its explanation takes 2
	// conflicts from the probed base. The inference_app-only
	// over-constrained scenario minimizes in none, so it cannot trip it.
	k := caseStudyKB()
	sc := Scenario{
		Workloads:  []string{"inference_app", "batch_analytics", "storage_backend"},
		NumServers: 64,
		Context: map[string]bool{
			"pfc_enabled":      true,
			"flooding_enabled": true,
			"deadline_tight":   true,
		},
		Require: []kb.Property{"low_latency_stack"},
	}
	e := mustEngine(t, k)
	rep, err := e.SynthesizeCtx(context.Background(), sc, Budget{MaxConflicts: 1})
	if err != nil {
		t.Fatalf("degraded query must not error: %v", err)
	}
	if rep.Verdict != Infeasible {
		t.Fatalf("verdict = %v, want Infeasible", rep.Verdict)
	}
	ex := rep.Explanation
	if ex == nil || !ex.Approximate {
		t.Fatalf("explanation must be approximate: %+v", ex)
	}
	if ex.ApproxCause != "conflict budget" {
		t.Errorf("ApproxCause = %q, want %q", ex.ApproxCause, "conflict budget")
	}
	if len(ex.Conflicts) == 0 {
		t.Error("approximate explanation must still name a conflict set")
	}
	if !strings.Contains(ex.String(), "approximate") {
		t.Errorf("rendering must flag approximation:\n%s", ex.String())
	}
	// The unminimized set must still contain the real culprit.
	found := false
	for _, c := range ex.Conflicts {
		if c.Name == "rule:pfc_no_flooding" {
			found = true
		}
	}
	if !found {
		t.Errorf("approximate set lost the conflicting rule: %v", ex.Conflicts)
	}
}

func TestInterruptMidMinimizationDegradesNotHangs(t *testing.T) {
	// Satellite: an interrupt landing during minimizeCore must produce an
	// approximate explanation, never a hang or a lost verdict. The hook
	// lets the main decision (solve #1) finish and interrupts the first
	// minimization trial (solve #2).
	e := mustEngine(t, miniKB())
	solves := 0
	e.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev == sat.EventSolve {
			solves++
			return solves >= 2
		}
		return false
	})
	done := make(chan struct{})
	var rep *Report
	var err error
	go func() {
		defer close(done)
		rep, err = e.SynthesizeCtx(context.Background(), unsatScenario(), Budget{})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("interrupted minimization hung")
	}
	if err != nil {
		t.Fatalf("degraded query must not error: %v", err)
	}
	if rep.Verdict != Infeasible || rep.Explanation == nil {
		t.Fatalf("verdict lost: %+v", rep)
	}
	if !rep.Explanation.Approximate || rep.Explanation.ApproxCause != "interrupt" {
		t.Fatalf("want approximate/interrupt, got %+v", rep.Explanation)
	}
	if len(rep.Explanation.Conflicts) == 0 {
		t.Error("approximate explanation must keep the unminimized conflict")
	}
	if solves != 2 {
		t.Errorf("minimization kept solving after the interrupt: %d solves", solves)
	}
}

func TestReportBudgetAccounting(t *testing.T) {
	// Satellite: Report.Spent must be populated on the Sat, Unsat, and
	// exhausted paths alike, and the legacy mirror fields must agree.
	e := mustEngine(t, miniKB())

	sat1, err := e.Synthesize(Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if sat1.Verdict != Feasible {
		t.Fatal("scenario must be feasible")
	}
	if sat1.Spent.Wall <= 0 || sat1.Spent.Decisions <= 0 {
		t.Errorf("feasible path spent not accounted: %+v", sat1.Spent)
	}

	unsat, err := e.Synthesize(unsatScenario())
	if err != nil {
		t.Fatal(err)
	}
	if unsat.Verdict != Infeasible {
		t.Fatal("scenario must be infeasible")
	}
	if unsat.Spent.Wall <= 0 {
		t.Errorf("infeasible path spent not accounted: %+v", unsat.Spent)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.SynthesizeCtx(ctx, Scenario{}, Budget{})
	var re *ErrResourceExhausted
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want exhaustion", err)
	}
	if re.Spent.Wall <= 0 {
		t.Errorf("exhausted path spent not accounted: %+v", re.Spent)
	}
	if s := re.Spent.String(); !strings.Contains(s, "conflicts") || !strings.Contains(s, "wall") {
		t.Errorf("BudgetSpent rendering wrong: %q", s)
	}
}

func TestEnumerateComplete(t *testing.T) {
	e := mustEngine(t, miniKB())
	res, err := e.EnumerateCtx(context.Background(), Scenario{}, 100, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Exhausted != nil || res.Reason != "" {
		t.Fatalf("complete enumeration mislabeled: %+v", res)
	}
	if len(res.Designs) == 0 {
		t.Fatal("no designs enumerated")
	}
	if res.Spent.Wall <= 0 {
		t.Errorf("enumeration spent not accounted: %+v", res.Spent)
	}
}

func TestEnumerateLimitTruncation(t *testing.T) {
	e := mustEngine(t, miniKB())
	res, err := e.EnumerateCtx(context.Background(), Scenario{}, 1, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Reason != "limit" || res.Exhausted != nil {
		t.Fatalf("limit truncation mislabeled: %+v", res)
	}
	if len(res.Designs) != 1 {
		t.Fatalf("got %d designs, want 1", len(res.Designs))
	}
}

func TestEnumerateBudgetTruncation(t *testing.T) {
	// The hook lets the first class be discovered and interrupts the
	// second solve (the next discovery): the partial result must come
	// back labeled, never silently.
	e := mustEngine(t, miniKB())
	solves := 0
	e.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev == sat.EventSolve {
			solves++
			return solves >= 2
		}
		return false
	})
	res, err := e.EnumerateCtx(context.Background(), Scenario{}, 100, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Exhausted == nil {
		t.Fatalf("budget truncation mislabeled: %+v", res)
	}
	if res.Reason != res.Exhausted.Cause || res.Reason != "interrupt" {
		t.Errorf("reason %q / cause %q, want interrupt", res.Reason, res.Exhausted.Cause)
	}
	if len(res.Designs) != 1 {
		t.Fatalf("got %d partial designs, want the 1 found before the trip", len(res.Designs))
	}
}

func TestEnumerateLegacyPropagatesExhaustion(t *testing.T) {
	// Satellite: the legacy Enumerate must not silently return partial
	// results — the typed error rides along with the designs found.
	e := mustEngine(t, miniKB())
	solves := 0
	e.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev == sat.EventSolve {
			solves++
			return solves >= 2
		}
		return false
	})
	designs, err := e.Enumerate(Scenario{}, 100)
	if err == nil {
		t.Fatal("mid-enumeration give-up must surface an error")
	}
	if !IsResourceExhausted(err) {
		t.Fatalf("error %v is not a resource exhaustion", err)
	}
	if len(designs) != 1 {
		t.Fatalf("partial designs must still be returned: got %d", len(designs))
	}
}

func TestOptimizeDegradesToApproximate(t *testing.T) {
	// A budget trip mid-optimization keeps the best witness seen instead
	// of discarding the query, and the [LowerBound, Value] bracket is
	// monotone in the budget: shrinking the solve allowance can only
	// weaken the proven lower bound and worsen the witnessed value.
	type bracket struct{ lb, val int64 }
	run := func(t *testing.T, allow int) (*OptimizeResult, bracket) {
		t.Helper()
		e := mustEngine(t, miniKB())
		solves := 0
		e.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
			if ev == sat.EventSolve {
				solves++
				return solves > allow
			}
			return false
		})
		res, err := e.OptimizeCtx(context.Background(), Scenario{},
			[]Objective{{Kind: MinimizeCost}}, Budget{})
		if err != nil {
			t.Fatalf("degraded optimize must not error: %v", err)
		}
		if res.Verdict != Feasible || res.Design == nil {
			t.Fatalf("witness lost: %+v", res)
		}
		if len(res.ObjectiveValues) != len(res.LowerBounds) {
			t.Fatalf("bracket lists diverge: values=%v lbs=%v", res.ObjectiveValues, res.LowerBounds)
		}
		if len(res.ObjectiveValues) == 0 {
			return res, bracket{lb: -1, val: -1}
		}
		return res, bracket{lb: res.LowerBounds[0], val: res.ObjectiveValues[0]}
	}

	// Tightest budget: feasibility passes, the objective search trips on
	// its very first solve — the classic degradation. The level never
	// produced a value, so the bracket lists are empty (the documented
	// "levels the budget never reached" tail) but the witness survives.
	res, b := run(t, 1)
	if !res.Approximate || res.ApproxCause != "interrupt" {
		t.Fatalf("want approximate/interrupt, got approx=%v cause=%q", res.Approximate, res.ApproxCause)
	}
	if b.val != -1 {
		t.Fatalf("one allowed solve cannot certify a value, got %+v", res.ObjectiveValues)
	}

	// Shrinking budgets: the bracket must stay valid and only widen.
	prev := bracket{lb: -1, val: -1}
	for i, allow := range []int{24, 8, 4, 3, 2} {
		res, b := run(t, allow)
		if b.lb > b.val {
			t.Fatalf("allow=%d: inverted bracket [%d, %d]", allow, b.lb, b.val)
		}
		if !res.Approximate && b.lb != b.val {
			t.Fatalf("allow=%d: certified result must have a tight bracket, got [%d, %d]",
				allow, b.lb, b.val)
		}
		if i > 0 {
			if b.lb > prev.lb {
				t.Errorf("allow=%d: lower bound improved under a smaller budget: %d > %d",
					allow, b.lb, prev.lb)
			}
			if b.val < prev.val {
				t.Errorf("allow=%d: witness improved under a smaller budget: %d < %d",
					allow, b.val, prev.val)
			}
		}
		prev = b
	}
}

func TestOptimizeBinarySearchExhaustion(t *testing.T) {
	// Trip the budget INSIDE the binary-search descent (after feasibility
	// and the search's initial model, mid-bisection): the query must
	// degrade to the bounded-suboptimality contract, not error.
	e := mustEngine(t, miniKB())
	solves := 0
	e.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev == sat.EventSolve {
			solves++
			return solves > 4 // feasibility + initial model + two bisection probes
		}
		return false
	})
	res, err := e.OptimizeCtx(context.Background(), Scenario{},
		[]Objective{{Kind: MinimizeCost}}, Budget{})
	if err != nil {
		t.Fatalf("mid-bisection trip must degrade, not error: %v", err)
	}
	if res.Verdict != Feasible || res.Design == nil {
		t.Fatalf("witness lost: %+v", res)
	}
	if !res.Approximate || res.ApproxCause != "interrupt" {
		t.Fatalf("want approximate/interrupt, got approx=%v cause=%q", res.Approximate, res.ApproxCause)
	}
	if res.LowerBounds[0] > res.ObjectiveValues[0] {
		t.Fatalf("inverted bracket [%d, %d]", res.LowerBounds[0], res.ObjectiveValues[0])
	}
	// The witness must be a real design for the scenario even though the
	// optimum was never certified. (Disarm the hook first: the check is a
	// fresh query, not part of the budgeted one.)
	e.SetFaultHook(nil)
	chk, err := e.Check(*res.Design, Scenario{})
	if err != nil || chk.Verdict != Feasible {
		t.Fatalf("degraded witness fails Check: %v %+v", err, chk)
	}
}

func TestOptimizeExhaustedBeforeVerdict(t *testing.T) {
	e := mustEngine(t, miniKB())
	e.SetFaultHook(func(sat.FaultEvent, sat.Stats) bool { return true })
	_, err := e.OptimizeCtx(context.Background(), Scenario{},
		[]Objective{{Kind: MinimizeCost}}, Budget{})
	var re *ErrResourceExhausted
	if !errors.As(err, &re) || re.Query != "optimize" {
		t.Fatalf("got %v, want optimize exhaustion", err)
	}
}

func TestSuggestExhaustion(t *testing.T) {
	e := mustEngine(t, miniKB())
	e.SetFaultHook(func(sat.FaultEvent, sat.Stats) bool { return true })
	_, err := e.SuggestCtx(context.Background(), unsatScenario(), 3, Budget{})
	var re *ErrResourceExhausted
	if !errors.As(err, &re) || re.Query != "suggest" {
		t.Fatalf("got %v, want suggest exhaustion", err)
	}
}

func TestDisambiguateIncomplete(t *testing.T) {
	// Each class costs one solve, so tripping on the third solve yields
	// exactly two classes before the cut.
	e := mustEngine(t, miniKB())
	solves := 0
	e.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev == sat.EventSolve {
			solves++
			return solves >= 3 // find two classes, trip on the third solve
		}
		return false
	})
	d, err := e.DisambiguateCtx(context.Background(), Scenario{}, 16, Budget{})
	if err != nil {
		t.Fatalf("cut-short disambiguation must not error: %v", err)
	}
	if !d.Incomplete {
		t.Fatalf("report must be marked incomplete: %+v", d)
	}
	if d.Classes != 2 {
		t.Errorf("got %d classes before the trip, want 2", d.Classes)
	}
	if !strings.Contains(d.String(), "cut short") {
		t.Errorf("rendering must mention the cut: %s", d.String())
	}
}

func TestIsResourceExhaustedWrapping(t *testing.T) {
	base := &ErrResourceExhausted{Query: "q", Cause: "deadline"}
	wrapped := fmt.Errorf("outer: %w", base)
	if !IsResourceExhausted(wrapped) {
		t.Error("wrapped exhaustion not detected")
	}
	if IsResourceExhausted(nil) || IsResourceExhausted(errors.New("plain")) {
		t.Error("false positive")
	}
	if !strings.Contains(base.Error(), "deadline") {
		t.Errorf("Error() = %q", base.Error())
	}
}

func TestGovernedQueriesMatchUngoverned(t *testing.T) {
	// Sanity: with a background context and zero budget, the *Ctx
	// variants must behave identically to the legacy entry points.
	e := mustEngine(t, miniKB())
	legacy, err := e.Synthesize(Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := e.SynthesizeCtx(context.Background(), Scenario{}, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Verdict != ctxed.Verdict {
		t.Fatalf("verdicts diverge: %v vs %v", legacy.Verdict, ctxed.Verdict)
	}
	if fmt.Sprint(legacy.Design.Systems) != fmt.Sprint(ctxed.Design.Systems) {
		t.Errorf("designs diverge: %v vs %v", legacy.Design.Systems, ctxed.Design.Systems)
	}
}
