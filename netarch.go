// Package netarch is a lightweight automated reasoning framework for
// network architectures — a reproduction of Bothra et al., "Lightweight
// Automated Reasoning for Network Architectures" (HotNets '24).
//
// The framework encodes what the paper calls "rules of thumb": shallow,
// broad facts about deployable systems (network stacks, congestion
// control, monitoring, firewalls, virtual switches, load balancers,
// transports), hardware components, and application workloads — without
// modelling any system's internals. A SAT-based reasoning engine then
// answers architects' questions:
//
//	k := netarch.DefaultCatalog()          // 50+ systems, ~200 hardware specs
//	eng, _ := netarch.NewEngine(k)
//	rep, _ := eng.Synthesize(netarch.Scenario{
//	    Require: []netarch.Property{"congestion_control"},
//	    Context: map[string]bool{"deadline_tight": true},
//	})
//	if rep.Verdict == netarch.Feasible {
//	    fmt.Println(rep.Design.Systems)
//	} else {
//	    fmt.Println(rep.Explanation)       // minimal conflicting facts
//	}
//
// Everything is built on the standard library: the CDCL SAT solver,
// cardinality and integer-arithmetic encodings, conditional partial
// orders, the topology substrate with PFC deadlock analysis, and the
// extraction/checking tooling of the paper's §4 study.
package netarch

import (
	"fmt"

	"netarch/internal/catalog"
	"netarch/internal/core"
	"netarch/internal/dsl"
	"netarch/internal/kb"
	"netarch/internal/order"
	"netarch/internal/topo"
)

// Re-exported knowledge-base types. See package kb for field docs.
type (
	// KB is a knowledge base: systems, hardware, workloads, rules, orders.
	KB = kb.KB
	// System is one deployable system encoding (Listing 2 of the paper).
	System = kb.System
	// Hardware is one hardware component encoding (Listing 1).
	Hardware = kb.Hardware
	// Workload is an application from the architect's view (Listing 3).
	Workload = kb.Workload
	// Rule is a free-form predicate-logic fact.
	Rule = kb.Rule
	// Expr is the serializable rule expression tree.
	Expr = kb.Expr
	// Condition is a context-atom literal.
	Condition = kb.Condition
	// OrderSpec is a serialized conditional partial order.
	OrderSpec = kb.OrderSpec
	// Property names an objective a system can solve.
	Property = kb.Property
	// Capability names a boolean hardware feature.
	Capability = kb.Capability
	// Resource names a countable quantity.
	Resource = kb.Resource
	// Role is a deployment slot (network stack, congestion control, …).
	Role = kb.Role
	// HardwareKind classifies hardware (switch, NIC, server).
	HardwareKind = kb.HardwareKind
)

// Re-exported engine types. See package core for details.
type (
	// Engine is the SAT-backed reasoning engine. It is safe for
	// concurrent queries: compilation is amortized through a compiled-
	// base cache and every query solves on a private clone, so repeated
	// or parallel queries over the same scenario shape never recompile.
	// Engine.CacheStats, Engine.SetCacheCapacity and
	// Engine.InvalidateCache observe and control the cache.
	// Engine.SetCacheDir adds a persistent disk tier: frozen bases are
	// snapshotted to versioned, checksummed files and revived on startup,
	// so even a fresh process skips the first compile (corrupt or stale
	// files downgrade to a silent recompile, never a wrong answer), and
	// mtime-ordered eviction bounds the directory.
	// Every query, enumeration and Pareto included, runs on one private
	// solver, and every compile runs on the goroutine that needs the base.
	Engine = core.Engine
	// CacheStats reports the engine's compiled-base cache: size,
	// capacity, lifetime hit/miss counters, and — when a cache directory
	// is set — the disk tier's hit/miss/write/evict/corrupt counters.
	CacheStats = core.CacheStats
	// GreedyReasoner is the weak baseline of the §5.2 comparison.
	GreedyReasoner = core.GreedyReasoner
	// Scenario describes one query: context, fleet, requirements, pins.
	Scenario = core.Scenario
	// Design is a concrete architecture (systems + hardware + context).
	Design = core.Design
	// Report is the engine's answer: verdict, witness or explanation.
	Report = core.Report
	// Explanation is a minimal set of conflicting constraint groups.
	Explanation = core.Explanation
	// Objective is one level of a lexicographic optimization goal.
	Objective = core.Objective
	// OptimizeResult carries the optimum design, the achieved objective
	// values, and the proven lower bounds (the bounded-suboptimality
	// bracket when a budget trips mid-search).
	OptimizeResult = core.OptimizeResult
	// ParetoResult is the non-dominated frontier over several objectives.
	ParetoResult = core.ParetoResult
	// ParetoPoint is one frontier point: objective vector plus witness.
	ParetoPoint = core.ParetoPoint
	// PerformanceBound is a Listing 3-style hard bound against an order.
	PerformanceBound = core.PerformanceBound
	// Verdict is Feasible or Infeasible.
	Verdict = core.Verdict
	// Suggestion is a minimal correction set for an infeasible scenario.
	Suggestion = core.Suggestion
	// Disambiguation reports where the solution space still forks.
	Disambiguation = core.Disambiguation
	// Fork is one undecided role choice in a Disambiguation.
	Fork = core.Fork
)

// Resource-governance types: every query has a *Ctx variant taking a
// context.Context plus a Budget, and degrades gracefully when a budget
// trips. See package core for the degradation contract.
type (
	// Budget bounds wall-clock time and per-phase solver work for one
	// query. The zero value means unbounded.
	Budget = core.Budget
	// BudgetSpent reports the resources a query actually consumed.
	BudgetSpent = core.BudgetSpent
	// ErrResourceExhausted is the typed error returned when a budget
	// trips before a verdict; errors.Is against context.DeadlineExceeded
	// or context.Canceled also works when the context was the cause.
	ErrResourceExhausted = core.ErrResourceExhausted
	// EnumerateResult is a governed enumeration outcome: designs plus an
	// explicit truncation account.
	EnumerateResult = core.EnumerateResult
)

// ErrSlicedEnumeration is returned by EnumerateCtx and DisambiguateCtx
// when the scenario resolves to a relevance-sliced base: a slice omits
// the design classes of out-of-cone systems, so enumeration over it is
// refused. Set SliceOff to enumerate.
var ErrSlicedEnumeration = core.ErrSlicedEnumeration

// IsResourceExhausted reports whether err is (or wraps) a resource-
// exhaustion error from a governed query.
func IsResourceExhausted(err error) bool { return core.IsResourceExhausted(err) }

// Query verdicts.
const (
	Feasible   = core.Feasible
	Infeasible = core.Infeasible
)

// Objective kinds for Engine.Optimize.
const (
	MinimizeCost    = core.MinimizeCost
	MinimizeCores   = core.MinimizeCores
	MinimizeSystems = core.MinimizeSystems
	MinimizePower   = core.MinimizePower
	MinimizePorts   = core.MinimizePorts
	PreferOrder     = core.PreferOrder
)

// SliceMode selects the relevance-slicing policy for Engine.SetSliceMode:
// whether compiles run against the scenario's cone of influence (the
// systems, rules, and hardware SKUs that can affect its verdict) instead
// of the full knowledge base. Answers are mode-independent; only compile
// time and base size change.
type SliceMode = core.SliceMode

// Relevance-slicing policies.
const (
	// SliceAuto (the default) slices only when the catalog is large
	// enough for slicing to pay for itself.
	SliceAuto = core.SliceAuto
	// SliceOff always compiles the full knowledge base.
	SliceOff = core.SliceOff
	// SliceOn always compiles the relevance slice.
	SliceOn = core.SliceOn
)

// ParseSliceMode parses the CLI/serve slice-mode spelling: "auto" (or
// empty, the default), "on", and "off".
func ParseSliceMode(s string) (SliceMode, error) { return core.ParseSliceMode(s) }

// ParseObjective parses the CLI/serve spelling of one objective level:
// "cost", "cores", "systems", "power", "ports", "latency", or
// "order:<dimension>".
func ParseObjective(name string) (Objective, error) { return core.ParseObjective(name) }

// Hardware kinds.
const (
	KindSwitch = kb.KindSwitch
	KindNIC    = kb.KindNIC
	KindServer = kb.KindServer
)

// Topology types for the PFC substrate. See package topo.
type (
	// Topology is a Clos network (leaf-spine or fat-tree).
	Topology = topo.Topology
	// DeadlockReport is the outcome of a PFC safety analysis.
	DeadlockReport = topo.DeadlockReport
	// ResolvedOrder is a conditional partial order resolved under one
	// context (one concrete Figure 1 panel).
	ResolvedOrder = order.Resolved
)

// NewLeafSpine builds a two-tier Clos topology.
func NewLeafSpine(spines, leaves, serversPerLeaf int, coresPerServer int64) (*Topology, error) {
	return topo.NewLeafSpine(spines, leaves, serversPerLeaf, coresPerServer)
}

// NewFatTree builds a k-ary fat-tree topology (k even).
func NewFatTree(k int, coresPerServer int64) (*Topology, error) {
	return topo.NewFatTree(k, coresPerServer)
}

// ResolveOrder resolves one of the knowledge base's partial-order
// dimensions under the given context atoms, registering extraNodes so
// incomparable items still appear.
func ResolveOrder(k *KB, dimension string, ctx map[string]bool, extraNodes ...string) (*ResolvedOrder, error) {
	spec := k.OrderByDimension(dimension)
	if spec == nil {
		return nil, fmt.Errorf("netarch: unknown order dimension %q", dimension)
	}
	return spec.Resolve(ctx, extraNodes...)
}

// Fig1Stacks lists the six network stacks drawn in the paper's Figure 1.
func Fig1Stacks() []string { return catalog.Fig1Stacks() }

// RacksOf builds a Scenario.RackServers map: every named rack holds
// serversPerRack servers of the selected SKU.
func RacksOf(racks []string, serversPerRack int) map[string]int {
	return core.RacksOf(racks, serversPerRack)
}

// ParseDSL parses a knowledge base written in the textual encoding DSL
// (see internal/dsl for the grammar) and validates it.
func ParseDSL(src string) (*KB, error) { return dsl.ParseString(src) }

// FormatDSL renders a knowledge base in the DSL syntax; ParseDSL
// round-trips it.
func FormatDSL(k *KB) string { return dsl.Format(k) }

// NewEngine validates the knowledge base and returns a reasoning engine.
func NewEngine(k *KB) (*Engine, error) { return core.New(k) }

// NewGreedy returns the deliberately weak greedy baseline (§5.2).
func NewGreedy(k *KB) *GreedyReasoner { return core.NewGreedy(k) }

// DefaultCatalog returns the seed knowledge compendium: 50+ system
// encodings across the paper's seven roles, ~200 hardware specs, the
// Figure 1 partial orders, and the expert rules.
func DefaultCatalog() *KB { return catalog.Default() }

// CaseStudy returns DefaultCatalog extended with the §2.3 ML-inference
// workload (Listing 3).
func CaseStudy() *KB { return catalog.CaseStudy() }

// ScaledCatalog returns the seed compendium grown to approximately
// total hardware SKUs (vendor families × speed grades × port counts ×
// firmware variants) plus ~24 derived workload profiles — the corpus
// behind the scale-out benchmarks. The seed catalog is always an exact
// prefix, so every seed query runs unchanged against a scaled KB.
func ScaledCatalog(total int) *KB { return catalog.ScaledCatalog(total) }
