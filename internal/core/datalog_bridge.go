package core

import (
	"fmt"
	"sort"
	"strconv"

	"netarch/internal/datalog"
)

// DatalogViolation is one structured-constraint violation found by the
// rule-based backend.
type DatalogViolation struct {
	Kind   string // "cap", "dep", "anyof", "conflict", "context", "need", "exclusive"
	Detail string
}

// String renders the violation.
func (v DatalogViolation) String() string { return v.Kind + ": " + v.Detail }

// DatalogCheck validates a fully-specified design with the stratified
// Datalog backend — the "rule-based systems" alternative of §3.4. It
// covers the structured constraint classes (capability requirements,
// system dependencies, any-of groups, conflicts, context conditions, need
// coverage, role exclusivity) and, by design, NOT the free-form
// predicate-logic rules or the arithmetic budgets: forward chaining over
// Horn clauses cannot express them, which is exactly the trade-off that
// pushed the paper to a SAT shim. Compare with Engine.Check.
//
// The design's context must be fully specified via sc.Context plus
// workload properties; unspecified atoms are treated as false, matching
// negation-as-failure semantics.
func (e *Engine) DatalogCheck(design Design, sc Scenario) ([]DatalogViolation, error) {
	k := e.revision().kb
	db := datalog.NewDB()
	add := func(pred string, args ...string) {
		if err := db.AddFact(pred, args...); err != nil {
			panic(fmt.Sprintf("core: datalog fact %s%v: %v", pred, args, err))
		}
	}

	// --- EDB: the knowledge base ---------------------------------------
	for i := range k.Systems {
		s := &k.Systems[i]
		add("system", s.Name, string(s.Role))
		for _, p := range s.Solves {
			add("solves", s.Name, string(p))
		}
		for kind, caps := range s.RequiresCaps {
			for _, c := range caps {
				add("requiresCap", s.Name, string(kind), string(c))
			}
		}
		for _, d := range s.RequiresSystems {
			add("requiresSystem", s.Name, d)
		}
		for gi, group := range s.RequiresAnyOf {
			gid := s.Name + "#" + strconv.Itoa(gi)
			add("anyofGroup", s.Name, gid)
			for _, d := range group {
				add("anyofMember", gid, d)
			}
		}
		for _, c := range s.ConflictsWith {
			add("conflictsWith", s.Name, c)
		}
		for _, cond := range s.RequiresContext {
			add("requiresCtx", s.Name, cond.Atom, boolStr(cond.Value))
		}
		for _, cond := range s.UsefulOnlyWhen {
			add("usefulWhen", s.Name, cond.Atom, boolStr(cond.Value))
		}
		if s.AppModification {
			add("requiresCtx", s.Name, "app_modifiable", "true")
		}
	}
	for role := range exclusiveRoles {
		add("exclusiveRole", string(role))
	}
	for kind, name := range design.Hardware {
		h := k.HardwareByName(name)
		if h == nil || h.Kind != kind {
			return nil, fmt.Errorf("core: design selects unknown %s %q", kind, name)
		}
		for _, c := range h.Caps {
			add("capAvailable", string(kind), string(c))
		}
	}

	// --- EDB: the design and query context ------------------------------
	for _, s := range design.Systems {
		if k.SystemByName(s) == nil {
			return nil, fmt.Errorf("core: design deploys unknown system %q", s)
		}
		add("deployed", s)
	}
	ctx := map[string]bool{}
	workloads := sc.Workloads
	if len(workloads) == 0 {
		for i := range k.Workloads {
			workloads = append(workloads, k.Workloads[i].Name)
		}
	}
	for _, wn := range workloads {
		w := k.WorkloadByName(wn)
		if w == nil {
			return nil, fmt.Errorf("core: unknown workload %q", wn)
		}
		for _, p := range w.Properties {
			ctx[p] = true
		}
		for _, p := range w.Needs {
			add("needed", string(p))
		}
	}
	for _, p := range sc.Require {
		add("needed", string(p))
	}
	for a, v := range sc.Context {
		ctx[a] = v
	}
	for a, v := range ctx {
		if v {
			add("ctxTrue", a)
		}
	}

	// --- IDB: the checking rules ----------------------------------------
	// Negation-as-failure over absent predicates is safe: the evaluator
	// treats a missing relation as empty.
	var p datalog.Program
	va, vb, vc := datalog.V("a"), datalog.V("b"), datalog.V("c")
	vs, vk, vg, vp, vr := datalog.V("s"), datalog.V("k"), datalog.V("g"), datalog.V("p"), datalog.V("r")

	// violationCap(S,K,C): deployed S needs cap C on K, hardware lacks it.
	p.Add(datalog.NewAtom("violationCap", vs, vk, vc),
		datalog.Pos(datalog.NewAtom("deployed", vs)),
		datalog.Pos(datalog.NewAtom("requiresCap", vs, vk, vc)),
		datalog.Neg(datalog.NewAtom("capAvailable", vk, vc)))

	// violationDep(S,D): dependency not deployed.
	p.Add(datalog.NewAtom("violationDep", vs, vb),
		datalog.Pos(datalog.NewAtom("deployed", vs)),
		datalog.Pos(datalog.NewAtom("requiresSystem", vs, vb)),
		datalog.Neg(datalog.NewAtom("deployed", vb)))

	// anyofSatisfied(G): some member deployed.
	p.Add(datalog.NewAtom("anyofSatisfied", vg),
		datalog.Pos(datalog.NewAtom("anyofMember", vg, vb)),
		datalog.Pos(datalog.NewAtom("deployed", vb)))
	p.Add(datalog.NewAtom("violationAnyof", vs, vg),
		datalog.Pos(datalog.NewAtom("deployed", vs)),
		datalog.Pos(datalog.NewAtom("anyofGroup", vs, vg)),
		datalog.Neg(datalog.NewAtom("anyofSatisfied", vg)))

	// violationConflict(S,T): both sides deployed.
	p.Add(datalog.NewAtom("violationConflict", vs, vb),
		datalog.Pos(datalog.NewAtom("deployed", vs)),
		datalog.Pos(datalog.NewAtom("conflictsWith", vs, vb)),
		datalog.Pos(datalog.NewAtom("deployed", vb)))

	// Context requirements: requiresCtx(S,A,"true") needs ctxTrue(A);
	// requiresCtx(S,A,"false") needs ¬ctxTrue(A).
	p.Add(datalog.NewAtom("violationCtx", vs, va),
		datalog.Pos(datalog.NewAtom("deployed", vs)),
		datalog.Pos(datalog.NewAtom("requiresCtx", vs, va, datalog.C("true"))),
		datalog.Neg(datalog.NewAtom("ctxTrue", va)))
	p.Add(datalog.NewAtom("violationCtx", vs, va),
		datalog.Pos(datalog.NewAtom("deployed", vs)),
		datalog.Pos(datalog.NewAtom("requiresCtx", vs, va, datalog.C("false"))),
		datalog.Pos(datalog.NewAtom("ctxTrue", va)))

	// Usefulness: a deployed system is blocked if any useful-when
	// condition fails; needs count only unblocked providers.
	p.Add(datalog.NewAtom("usefulBlocked", vs),
		datalog.Pos(datalog.NewAtom("deployed", vs)),
		datalog.Pos(datalog.NewAtom("usefulWhen", vs, va, datalog.C("true"))),
		datalog.Neg(datalog.NewAtom("ctxTrue", va)))
	p.Add(datalog.NewAtom("usefulBlocked", vs),
		datalog.Pos(datalog.NewAtom("deployed", vs)),
		datalog.Pos(datalog.NewAtom("usefulWhen", vs, va, datalog.C("false"))),
		datalog.Pos(datalog.NewAtom("ctxTrue", va)))
	p.Add(datalog.NewAtom("needSatisfied", vp),
		datalog.Pos(datalog.NewAtom("deployed", vs)),
		datalog.Pos(datalog.NewAtom("solves", vs, vp)),
		datalog.Neg(datalog.NewAtom("usefulBlocked", vs)))
	p.Add(datalog.NewAtom("violationNeed", vp),
		datalog.Pos(datalog.NewAtom("needed", vp)),
		datalog.Neg(datalog.NewAtom("needSatisfied", vp)))

	// Common-sense rule (§3.4): some network stack must be deployed.
	p.Add(datalog.NewAtom("stackDeployed"),
		datalog.Pos(datalog.NewAtom("deployed", vs)),
		datalog.Pos(datalog.NewAtom("system", vs, datalog.C("network_stack"))))
	p.Add(datalog.NewAtom("violationStack"),
		datalog.Neg(datalog.NewAtom("stackDeployed")))

	// Role exclusivity: two deployed systems of the same exclusive role.
	p.Add(datalog.NewAtom("violationExclusive", vs, vb, vr),
		datalog.Pos(datalog.NewAtom("deployed", vs)),
		datalog.Pos(datalog.NewAtom("deployed", vb)),
		datalog.Pos(datalog.NewAtom("system", vs, vr)),
		datalog.Pos(datalog.NewAtom("system", vb, vr)),
		datalog.Pos(datalog.NewAtom("exclusiveRole", vr)),
		datalog.Pos(datalog.NewAtom("distinct", vs, vb)))

	// distinct(A,B) for deployed pairs (Datalog has no built-in ≠).
	for _, a := range design.Systems {
		for _, b := range design.Systems {
			if a < b {
				add("distinct", a, b)
			}
		}
	}

	out, err := p.Eval(db)
	if err != nil {
		return nil, err
	}

	var violations []DatalogViolation
	for _, t := range out.All("violationCap") {
		violations = append(violations, DatalogViolation{"cap",
			fmt.Sprintf("%s needs %s on %s", t[0], t[2], t[1])})
	}
	for _, t := range out.All("violationDep") {
		violations = append(violations, DatalogViolation{"dep",
			fmt.Sprintf("%s requires %s", t[0], t[1])})
	}
	for _, t := range out.All("violationAnyof") {
		violations = append(violations, DatalogViolation{"anyof",
			fmt.Sprintf("%s needs one of group %s", t[0], t[1])})
	}
	for _, t := range out.All("violationConflict") {
		violations = append(violations, DatalogViolation{"conflict",
			fmt.Sprintf("%s conflicts with %s", t[0], t[1])})
	}
	for _, t := range out.All("violationCtx") {
		violations = append(violations, DatalogViolation{"context",
			fmt.Sprintf("%s requires context %s", t[0], t[1])})
	}
	for _, t := range out.All("violationNeed") {
		violations = append(violations, DatalogViolation{"need",
			fmt.Sprintf("nothing deployed usefully solves %s", t[0])})
	}
	for _, t := range out.All("violationExclusive") {
		violations = append(violations, DatalogViolation{"exclusive",
			fmt.Sprintf("%s and %s both fill exclusive role %s", t[0], t[1], t[2])})
	}
	if out.Count("violationStack") > 0 {
		violations = append(violations, DatalogViolation{"stack",
			"no network stack deployed (common-sense rule, §3.4)"})
	}
	sort.Slice(violations, func(i, j int) bool {
		if violations[i].Kind != violations[j].Kind {
			return violations[i].Kind < violations[j].Kind
		}
		return violations[i].Detail < violations[j].Detail
	})
	return violations, nil
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
