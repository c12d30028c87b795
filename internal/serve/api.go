// Package serve is the long-lived query service over the reasoning
// engine: an HTTP/JSON front end that holds warm compiled bases (memory
// plus the persistent disk tier) and answers concurrent check / synth /
// whatif / enumerate / explain requests, each on its own clone of a
// warm base.
//
// Robustness is the core of the design (DESIGN.md §12): per-request
// admission control (in-flight and queue caps), graceful load-shedding
// (429 + Retry-After when the queue is full, 503 while draining),
// per-request resource budgets derived from server policy with
// client-supplied tightening only, degraded-but-witnessed responses
// mapped onto the PR 1 exit taxonomy as typed JSON error bodies, panic
// isolation per request, and a clean SIGTERM drain. A seeded chaos
// profile (chaos.go) injects solver faults so every failure mode is
// testable end to end.
package serve

import (
	"time"

	"netarch/internal/core"
	"netarch/internal/kb"
)

// This file defines the wire types. They carry explicit JSON tags and
// are converted to/from the internal core types at the boundary, so the
// wire format is stable regardless of internal struct evolution.

// ScenarioJSON is the wire form of core.Scenario.
type ScenarioJSON struct {
	Context          map[string]bool     `json:"context,omitempty"`
	NumServers       int                 `json:"num_servers,omitempty"`
	NumSwitches      int                 `json:"num_switches,omitempty"`
	Require          []string            `json:"require,omitempty"`
	Workloads        []string            `json:"workloads,omitempty"`
	PinnedSystems    []string            `json:"pinned_systems,omitempty"`
	ForbiddenSystems []string            `json:"forbidden_systems,omitempty"`
	PinnedHardware   map[string]string   `json:"pinned_hardware,omitempty"`
	AllowedHardware  map[string][]string `json:"allowed_hardware,omitempty"`
	Bounds           []BoundJSON         `json:"bounds,omitempty"`
	MaxCostUSD       int64               `json:"max_cost_usd,omitempty"`
	RackServers      map[string]int      `json:"rack_servers,omitempty"`
}

// BoundJSON is the wire form of core.PerformanceBound.
type BoundJSON struct {
	Dimension string `json:"dimension"`
	Reference string `json:"reference"`
	Strict    bool   `json:"strict,omitempty"`
}

// toScenario converts the wire scenario into the engine's form.
func (s *ScenarioJSON) toScenario() core.Scenario {
	sc := core.Scenario{
		Context:          s.Context,
		NumServers:       s.NumServers,
		NumSwitches:      s.NumSwitches,
		Workloads:        s.Workloads,
		PinnedSystems:    s.PinnedSystems,
		ForbiddenSystems: s.ForbiddenSystems,
		MaxCostUSD:       s.MaxCostUSD,
		RackServers:      s.RackServers,
	}
	for _, p := range s.Require {
		sc.Require = append(sc.Require, kb.Property(p))
	}
	if len(s.PinnedHardware) > 0 {
		sc.PinnedHardware = make(map[kb.HardwareKind]string, len(s.PinnedHardware))
		for k, v := range s.PinnedHardware {
			sc.PinnedHardware[kb.HardwareKind(k)] = v
		}
	}
	if len(s.AllowedHardware) > 0 {
		sc.AllowedHardware = make(map[kb.HardwareKind][]string, len(s.AllowedHardware))
		for k, v := range s.AllowedHardware {
			sc.AllowedHardware[kb.HardwareKind(k)] = v
		}
	}
	for _, b := range s.Bounds {
		sc.Bounds = append(sc.Bounds, core.PerformanceBound{
			Dimension: b.Dimension, Reference: b.Reference, Strict: b.Strict,
		})
	}
	return sc
}

// DesignJSON is the wire form of a concrete design (check requests).
type DesignJSON struct {
	Systems  []string          `json:"systems"`
	Hardware map[string]string `json:"hardware,omitempty"`
}

func (d *DesignJSON) toDesign() core.Design {
	out := core.Design{Systems: d.Systems}
	if len(d.Hardware) > 0 {
		out.Hardware = make(map[kb.HardwareKind]string, len(d.Hardware))
		for k, v := range d.Hardware {
			out.Hardware[kb.HardwareKind(k)] = v
		}
	}
	return out
}

// DeltaJSON is a what-if delta: changes layered over the base scenario.
// The whatif mode answers the base and the modified scenario in one
// request, so the client sees the delta's effect directly.
type DeltaJSON struct {
	// Context entries overlay (add or override) the base context pins.
	Context map[string]bool `json:"context,omitempty"`
	// RequireAdd / PinAdd / ForbidAdd append to the base lists.
	RequireAdd []string `json:"require_add,omitempty"`
	PinAdd     []string `json:"pin_add,omitempty"`
	ForbidAdd  []string `json:"forbid_add,omitempty"`
	// MaxCostUSD overrides the budget cap when non-zero.
	MaxCostUSD int64 `json:"max_cost_usd,omitempty"`
}

// apply layers the delta over a copy of the base scenario.
func (d *DeltaJSON) apply(base core.Scenario) core.Scenario {
	sc := base
	if len(d.Context) > 0 {
		merged := make(map[string]bool, len(base.Context)+len(d.Context))
		for k, v := range base.Context {
			merged[k] = v
		}
		for k, v := range d.Context {
			merged[k] = v
		}
		sc.Context = merged
	}
	if len(d.RequireAdd) > 0 {
		sc.Require = append([]kb.Property(nil), base.Require...)
		for _, p := range d.RequireAdd {
			sc.Require = append(sc.Require, kb.Property(p))
		}
	}
	if len(d.PinAdd) > 0 {
		sc.PinnedSystems = append(append([]string(nil), base.PinnedSystems...), d.PinAdd...)
	}
	if len(d.ForbidAdd) > 0 {
		sc.ForbiddenSystems = append(append([]string(nil), base.ForbiddenSystems...), d.ForbidAdd...)
	}
	if d.MaxCostUSD != 0 {
		sc.MaxCostUSD = d.MaxCostUSD
	}
	return sc
}

// BudgetJSON is the client's requested per-request budget. It can only
// tighten the server's policy budget, never widen it (see tighten).
type BudgetJSON struct {
	TimeoutMS    int64 `json:"timeout_ms,omitempty"`
	MaxConflicts int64 `json:"max_conflicts,omitempty"`
	MaxDecisions int64 `json:"max_decisions,omitempty"`
}

// tighten composes the server policy budget with a client request: each
// client bound applies only where it is stricter than (or the policy has
// no bound on) the corresponding policy field. A policy of all zeros
// means the server imposes no ceiling, so any client bound applies.
func tighten(policy core.Budget, req *BudgetJSON) core.Budget {
	b := policy
	if req == nil {
		return b
	}
	if t := time.Duration(req.TimeoutMS) * time.Millisecond; t > 0 && (b.Timeout == 0 || t < b.Timeout) {
		b.Timeout = t
	}
	if req.MaxConflicts > 0 && (b.MaxConflicts == 0 || req.MaxConflicts < b.MaxConflicts) {
		b.MaxConflicts = req.MaxConflicts
	}
	if req.MaxDecisions > 0 && (b.MaxDecisions == 0 || req.MaxDecisions < b.MaxDecisions) {
		b.MaxDecisions = req.MaxDecisions
	}
	return b
}

// QueryRequest is the body of every POST /v1/<mode> request. Scenario is
// required; the other fields are mode-specific (Design for check, Delta
// for whatif, Max for enumerate, Objectives/Pareto for optimize).
type QueryRequest struct {
	Scenario ScenarioJSON `json:"scenario"`
	Design   *DesignJSON  `json:"design,omitempty"`
	Delta    *DeltaJSON   `json:"delta,omitempty"`
	Max      int          `json:"max,omitempty"`
	Budget   *BudgetJSON  `json:"budget,omitempty"`

	// Optimize fields. Objectives are priority-ordered level names
	// ("cost", "cores", "systems", "power", "ports", "latency",
	// "order:<dimension>"); Pareto switches from lexicographic
	// optimization to full Pareto-front enumeration over the same
	// objectives.
	Objectives []string `json:"objectives,omitempty"`
	Pareto     bool     `json:"pareto,omitempty"`
}

// DesignOut is the wire form of an answered design.
type DesignOut struct {
	Systems  []string          `json:"systems"`
	Hardware map[string]string `json:"hardware,omitempty"`
	Metrics  map[string]int64  `json:"metrics,omitempty"`
}

func designOut(d *core.Design) *DesignOut {
	if d == nil {
		return nil
	}
	out := &DesignOut{Systems: d.Systems, Metrics: d.Metrics}
	if len(d.Hardware) > 0 {
		out.Hardware = make(map[string]string, len(d.Hardware))
		for k, v := range d.Hardware {
			out.Hardware[string(k)] = v
		}
	}
	return out
}

// ExplanationOut is the wire form of a minimal conflict explanation.
type ExplanationOut struct {
	Conflicts []ConflictOut `json:"conflicts"`
	// Approximate: minimization stopped on a tripped budget; the
	// conflicts are a correct but possibly non-minimal set.
	Approximate bool   `json:"approximate,omitempty"`
	Cause       string `json:"cause,omitempty"`
}

// ConflictOut names one conflicting constraint group.
type ConflictOut struct {
	Name string `json:"name"`
	Note string `json:"note,omitempty"`
}

func explanationOut(ex *core.Explanation) *ExplanationOut {
	if ex == nil {
		return nil
	}
	out := &ExplanationOut{Approximate: ex.Approximate, Cause: ex.ApproxCause}
	for _, c := range ex.Conflicts {
		out.Conflicts = append(out.Conflicts, ConflictOut{Name: c.Name, Note: c.Note})
	}
	return out
}

// Outcome is one verdict + witness/explanation pair (whatif returns two).
type Outcome struct {
	Verdict     string          `json:"verdict"`
	Design      *DesignOut      `json:"design,omitempty"`
	Explanation *ExplanationOut `json:"explanation,omitempty"`
}

func outcomeOf(rep *core.Report) *Outcome {
	return &Outcome{
		Verdict:     rep.Verdict.String(),
		Design:      designOut(rep.Design),
		Explanation: explanationOut(rep.Explanation),
	}
}

// SpentJSON accounts for the resources a request consumed.
type SpentJSON struct {
	Conflicts int64   `json:"conflicts"`
	Decisions int64   `json:"decisions"`
	WallMS    float64 `json:"wall_ms"`
}

func spentJSON(sp core.BudgetSpent) SpentJSON {
	return SpentJSON{
		Conflicts: sp.Conflicts,
		Decisions: sp.Decisions,
		WallMS:    float64(sp.Wall) / float64(time.Millisecond),
	}
}

// QueryResponse is the 200 body of every query mode. Degraded reports a
// budget-tripped-but-still-witnessed answer (approximate explanation,
// budget-truncated enumeration); DegradedCause names the tripped budget.
type QueryResponse struct {
	Mode        string          `json:"mode"`
	Verdict     string          `json:"verdict,omitempty"`
	Design      *DesignOut      `json:"design,omitempty"`
	Explanation *ExplanationOut `json:"explanation,omitempty"`

	// Enumerate fields.
	Designs        []*DesignOut `json:"designs,omitempty"`
	Truncated      bool         `json:"truncated,omitempty"`
	TruncateReason string       `json:"truncate_reason,omitempty"`

	// Whatif fields.
	Before *Outcome `json:"before,omitempty"`
	After  *Outcome `json:"after,omitempty"`

	// Optimize fields. ObjectiveValues[i] is the best witnessed value of
	// the i-th requested objective; LowerBounds[i] is its proven lower
	// bound. On a certified (non-degraded) response the two are equal
	// level by level; on a degraded response the true optimum of the
	// last present level lies in [LowerBounds[i], ObjectiveValues[i]] —
	// the bounded-suboptimality contract (DESIGN.md §15).
	ObjectiveValues []int64 `json:"objective_values,omitempty"`
	LowerBounds     []int64 `json:"lower_bounds,omitempty"`
	// ParetoPoints is the non-dominated frontier (pareto=true), sorted
	// by objective vector; Complete reports it is provably the whole
	// frontier (false under a budget trip, with Degraded set).
	ParetoPoints []*ParetoPointOut `json:"pareto_points,omitempty"`
	Complete     bool              `json:"complete,omitempty"`

	Degraded      bool      `json:"degraded,omitempty"`
	DegradedCause string    `json:"degraded_cause,omitempty"`
	Spent         SpentJSON `json:"spent"`
}

// ParetoPointOut is one non-dominated objective vector with a witness.
type ParetoPointOut struct {
	Values []int64    `json:"values"`
	Design *DesignOut `json:"design,omitempty"`
}

// ErrorBody is the typed JSON body of every non-200 response — the PR 1
// exit taxonomy mapped onto HTTP (see DESIGN.md §12 for the full table):
//
//	kind                HTTP  meaning
//	bad_request         400   malformed body / unknown names
//	sliced_enumeration  422   enumerate over a relevance-sliced base
//	shed                429   admission queue full (Retry-After set)
//	draining            503   server shutting down (Retry-After set)
//	client_gone         499*  request context canceled by the client
//	resource_exhausted  504   budget tripped before any verdict
//	internal            500   recovered panic; the clone is discarded
//
// (*written as 504 on the wire: Go's http package has no 499; Kind
// distinguishes them.)
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo describes one typed failure.
type ErrorInfo struct {
	Kind string `json:"kind"`
	// Cause names the tripped budget for resource_exhausted errors
	// ("deadline", "conflict budget", "decision budget", "interrupt",
	// "canceled"), matching ErrResourceExhausted.Cause.
	Cause  string `json:"cause,omitempty"`
	Detail string `json:"detail,omitempty"`
	// RetryAfterMS mirrors the Retry-After header for shed/draining.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Spent is populated for resource_exhausted errors.
	Spent *SpentJSON `json:"spent,omitempty"`
}
