// Package core implements the paper's primary contribution: the
// lightweight automated reasoning engine — "a shim layer over SAT solvers"
// (§5.1) that compiles knowledge-base encodings into propositional logic
// plus bounded arithmetic and answers architects' queries:
//
//   - Check: is a concrete design compliant with every encoded fact?
//   - Synthesize: does any compliant design exist; produce a witness.
//   - Optimize: find the best design under lexicographic objectives
//     (Listing 3's "Optimize(latency > Hardware cost > monitoring)").
//   - Explain: when no design exists, name the minimal set of conflicting
//     requirements (§6 "Explainability").
//   - Enumerate: list distinct compliant designs as equivalence classes
//     over hardware choices (§6).
//
// A deliberately weak greedy reasoner (heuristic.go) reproduces the
// paper's LLM-as-reasoner baseline (§5.2).
package core

import (
	"fmt"
	"sort"
	"strings"

	"netarch/internal/kb"
)

// Scenario describes one reasoning query: the environment, the fleet
// shape, extra requirements, and any pinned decisions.
type Scenario struct {
	// Context pins environment atoms (e.g. "deadline_tight": true).
	// Unpinned atoms are free: the solver may choose them, subject to
	// the rules.
	Context map[string]bool

	// NumServers and NumSwitches give the fleet shape used for resource
	// and cost accounting. Zero values default to 48 servers, 4 switches.
	NumServers  int
	NumSwitches int

	// Require lists objectives that must be solved in addition to the
	// workloads' needs.
	Require []kb.Property

	// Workloads to support, by name (must exist in the KB). Empty means
	// every workload in the KB.
	Workloads []string

	// PinnedSystems must be deployed; ForbiddenSystems must not.
	PinnedSystems    []string
	ForbiddenSystems []string

	// PinnedHardware fixes the SKU for a hardware kind ("I can't change
	// my servers", §5.1 query 1). AllowedHardware restricts the
	// candidate SKUs for a kind; nil means the whole catalog.
	PinnedHardware  map[kb.HardwareKind]string
	AllowedHardware map[kb.HardwareKind][]string

	// Bounds are hard performance bounds in the Listing 3 style: the
	// deployed system for the dimension must be at least as good as the
	// reference system under the resolved partial order.
	Bounds []PerformanceBound

	// MaxCostUSD caps total hardware cost; 0 means unlimited.
	MaxCostUSD int64

	// RackServers, when non-nil, enables rack-level placement checking:
	// it maps rack names to server counts, and every workload with a
	// DeployedAt list must fit its share of peak cores into those racks
	// (each rack holds RackServers[r] servers of the selected SKU).
	// Workloads without a DeployedAt list are unconstrained. Use
	// RacksOf to build the map when every rack holds the same count.
	RackServers map[string]int
}

// RacksOf builds a RackServers map in which every named rack holds
// serversPerRack servers.
func RacksOf(racks []string, serversPerRack int) map[string]int {
	out := make(map[string]int, len(racks))
	for _, r := range racks {
		out[r] = serversPerRack
	}
	return out
}

// PerformanceBound requires the design to include, for the given order
// dimension, some system that is better than or equal to the reference
// (Listing 3: set_performance_bound(load_balancing, better_than=PacketSpray)).
type PerformanceBound struct {
	Dimension string
	Reference string
	// Strict requires strictly better (default: at least as good, i.e.
	// the reference itself also qualifies).
	Strict bool
}

// fingerprint returns a canonical string identifying the scenario for
// compiled-base caching: two scenarios with equal fingerprints compile to
// identical solver instances. Map-valued fields are serialized in sorted
// key order; list-valued fields keep their order, because workload and
// pin order determine selector order and hence the search trajectory.
// Every string element is quoted so names containing separator characters
// cannot collide.
func (s *Scenario) fingerprint() string {
	var b strings.Builder
	writeBoolMap := func(tag string, m map[string]bool) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(tag)
		b.WriteByte('=')
		for _, k := range keys {
			fmt.Fprintf(&b, "%q:%t,", k, m[k])
		}
		b.WriteByte(';')
	}

	writeList(&b, "w", s.Workloads)
	fmt.Fprintf(&b, "ns=%d;nsw=%d;", s.numServers(), s.numSwitches())
	writeBoolMap("ctx", s.Context)
	reqs := make([]string, len(s.Require))
	for i, p := range s.Require {
		reqs[i] = string(p)
	}
	writeList(&b, "req", reqs)
	writeList(&b, "pin", s.PinnedSystems)
	writeList(&b, "forbid", s.ForbiddenSystems)

	kinds := make([]string, 0, len(s.PinnedHardware))
	for k := range s.PinnedHardware {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	b.WriteString("pinhw=")
	for _, k := range kinds {
		fmt.Fprintf(&b, "%q:%q,", k, s.PinnedHardware[kb.HardwareKind(k)])
	}
	b.WriteByte(';')
	kinds = kinds[:0]
	for k := range s.AllowedHardware {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	b.WriteString("allowhw=")
	for _, k := range kinds {
		fmt.Fprintf(&b, "%q:[", k)
		for _, name := range s.AllowedHardware[kb.HardwareKind(k)] {
			fmt.Fprintf(&b, "%q,", name)
		}
		b.WriteString("],")
	}
	b.WriteByte(';')

	b.WriteString("bounds=")
	for _, pb := range s.Bounds {
		fmt.Fprintf(&b, "%q>%q/%t,", pb.Dimension, pb.Reference, pb.Strict)
	}
	fmt.Fprintf(&b, ";maxcost=%d;", s.MaxCostUSD)

	if s.RackServers != nil {
		racks := make([]string, 0, len(s.RackServers))
		for r := range s.RackServers {
			racks = append(racks, r)
		}
		sort.Strings(racks)
		b.WriteString("racks=")
		for _, r := range racks {
			fmt.Fprintf(&b, "%q:%d,", r, s.RackServers[r])
		}
		b.WriteByte(';')
	}
	return b.String()
}

// writeList appends tag=items; to b with every item quoted, so items
// holding separator characters cannot collide. Scenario.fingerprint and
// sliceRequest.key both write their name lists with it.
func writeList(b *strings.Builder, tag string, items []string) {
	b.WriteString(tag)
	b.WriteByte('=')
	for _, it := range items {
		fmt.Fprintf(b, "%q,", it)
	}
	b.WriteByte(';')
}

func (s *Scenario) numServers() int {
	if s.NumServers <= 0 {
		return 48
	}
	return s.NumServers
}

func (s *Scenario) numSwitches() int {
	if s.NumSwitches <= 0 {
		return 4
	}
	return s.NumSwitches
}

// Design is a concrete architecture: the deployed systems, the selected
// hardware SKU per kind, and the context the design operates in.
type Design struct {
	Systems  []string                   `json:"systems"`
	Hardware map[kb.HardwareKind]string `json:"hardware"`
	Context  map[string]bool            `json:"context,omitempty"`
	// Metrics are read off the model: used cores, cost, etc.
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// HasSystem reports whether the design deploys the named system.
func (d *Design) HasSystem(name string) bool {
	for _, s := range d.Systems {
		if s == name {
			return true
		}
	}
	return false
}

// Verdict is the outcome of a query.
type Verdict int

// Query verdicts.
const (
	// Feasible: a compliant design exists (and is attached).
	Feasible Verdict = iota
	// Infeasible: no compliant design exists; see Explanation.
	Infeasible
)

// String renders the verdict.
func (v Verdict) String() string {
	if v == Feasible {
		return "FEASIBLE"
	}
	return "INFEASIBLE"
}

// Report is the engine's answer to a query.
type Report struct {
	Verdict Verdict
	Design  *Design
	// Explanation names the conflicting constraint groups when
	// Infeasible (a minimal unsatisfiable subset).
	Explanation *Explanation
	// Spent accounts for the resources the query consumed (conflicts,
	// decisions, wall time). Populated on feasible, infeasible, and
	// degraded paths alike.
	Spent BudgetSpent
}

// Explanation is a minimal set of constraint groups that cannot hold
// together, each with the provenance note from the knowledge base.
type Explanation struct {
	Conflicts []ConflictItem
	// Approximate reports that minimization stopped early because a
	// resource budget tripped: Conflicts is still a correct
	// unsatisfiable set, but possibly not minimal.
	Approximate bool
	// ApproxCause names the tripped budget when Approximate ("deadline",
	// "conflict budget", ...).
	ApproxCause string
}

// ConflictItem names one constraint group participating in the conflict.
type ConflictItem struct {
	Name string // e.g. "rule:pfc_no_flooding", "system:simon:requires_caps"
	Note string // provenance / human reading
}

// String renders the explanation for architects.
func (e *Explanation) String() string {
	if e == nil || len(e.Conflicts) == 0 {
		return "no explanation available"
	}
	out := "requirements in conflict:\n"
	if e.Approximate {
		out = fmt.Sprintf("requirements in conflict (approximate: minimization stopped on %s):\n",
			e.ApproxCause)
	}
	for _, c := range e.Conflicts {
		out += fmt.Sprintf("  - %s", c.Name)
		if c.Note != "" {
			out += fmt.Sprintf(" (%s)", c.Note)
		}
		out += "\n"
	}
	return out
}

// Objective is one level of a lexicographic optimization goal.
type Objective struct {
	Kind ObjectiveKind
	// Dimension names the partial order for PreferOrder objectives.
	Dimension string
}

// ObjectiveKind selects what an optimization level minimizes.
type ObjectiveKind int

// Objective kinds.
const (
	// MinimizeCost minimizes total hardware cost in USD.
	MinimizeCost ObjectiveKind = iota
	// MinimizeCores minimizes total cores consumed by systems+workloads.
	MinimizeCores
	// MinimizeSystems minimizes the number of deployed systems.
	MinimizeSystems
	// PreferOrder minimizes the number of violated preference edges of
	// the named dimension: deploying a system while some strictly
	// better same-role alternative is left undeployed counts as one
	// violation.
	PreferOrder
	// MinimizePower minimizes the fleet's total power draw in watts
	// (per-SKU power_w rules of thumb times the deployment counts).
	MinimizePower
	// MinimizePorts minimizes the total switch port count — a proxy for
	// fabric size and cabling.
	MinimizePorts
)

// String names the objective kind.
func (k ObjectiveKind) String() string {
	switch k {
	case MinimizeCost:
		return "minimize_cost"
	case MinimizeCores:
		return "minimize_cores"
	case MinimizeSystems:
		return "minimize_systems"
	case PreferOrder:
		return "prefer_order"
	case MinimizePower:
		return "minimize_power"
	case MinimizePorts:
		return "minimize_ports"
	default:
		return fmt.Sprintf("ObjectiveKind(%d)", int(k))
	}
}
