// Package kb defines the knowledge model of the lightweight reasoning
// framework: encodings of deployable systems, hardware components, and
// application workloads, plus free-form predicate-logic rules and
// conditional partial orders ("rules of thumb").
//
// The model follows the paper's design decisions (§3):
//
//   - Broad but shallow: a system encoding says what the system solves and
//     what it needs, never how it works (Listing 2).
//   - Quantitative facts are limited to the easily-characterized ones —
//     core counts, memory, ports, bandwidth (§3.1).
//   - Performance comparisons are partial orders, not numbers (§3.2,
//     Figure 1).
//   - Everything is serializable so encodings can be crowd-sourced,
//     checked, and diffed (§3.3, §4).
package kb

import (
	"fmt"
)

// Role is a deployment slot a system can fill. The paper's prototype spans
// seven roles (§5.1).
type Role string

// The seven roles of the paper's prototype (§5.1).
const (
	RoleNetworkStack      Role = "network_stack"
	RoleCongestionControl Role = "congestion_control"
	RoleMonitoring        Role = "monitoring"
	RoleFirewall          Role = "firewall"
	RoleVirtualSwitch     Role = "virtual_switch"
	RoleLoadBalancer      Role = "load_balancer"
	RoleTransport         Role = "transport"
)

// Roles lists every known role in canonical order.
func Roles() []Role {
	return []Role{
		RoleNetworkStack, RoleCongestionControl, RoleMonitoring,
		RoleFirewall, RoleVirtualSwitch, RoleLoadBalancer, RoleTransport,
	}
}

// Property is a named objective a system can achieve — Listing 2's
// "solves" list (capture_delays, detect_queue_length, load_balancing, …).
type Property string

// Capability is a boolean hardware feature (ECN support, NIC timestamps,
// INT, programmability, …).
type Capability string

// Common hardware capabilities referenced by the catalog.
const (
	CapECN           Capability = "ECN"
	CapINT           Capability = "INT"
	CapQCN           Capability = "QCN"
	CapPFC           Capability = "PFC"
	CapP4            Capability = "P4_PROGRAMMABLE"
	CapNICTimestamps Capability = "NIC_TIMESTAMPS"
	CapSmartNICFPGA  Capability = "SMARTNIC_FPGA"
	CapSmartNICCPU   Capability = "SMARTNIC_CPU"
	CapRDMA          Capability = "RDMA"
	CapSRIOV         Capability = "SRIOV"
	CapInterruptPoll Capability = "INTERRUPT_POLLING"
	CapDPDK          Capability = "DPDK"
	CapCXL           Capability = "CXL"
)

// HardwareKind classifies hardware components.
type HardwareKind string

// Hardware kinds.
const (
	KindSwitch HardwareKind = "switch"
	KindNIC    HardwareKind = "nic"
	KindServer HardwareKind = "server"
)

// Resource is a named, countable quantity that systems consume and
// hardware provides (§3.1: "hardware properties such as the amount of
// memory, number of ports/queues and various bandwidth measures are easy
// to accurately characterize").
type Resource string

// Common resources referenced by the catalog.
const (
	ResCores         Resource = "cores"
	ResMemoryGB      Resource = "memory_gb"
	ResSRAMMB        Resource = "sram_mb"
	ResP4Stages      Resource = "p4_stages"
	ResQoSClasses    Resource = "qos_classes"
	ResBandwidthGbps Resource = "bandwidth_gbps"
	ResPortCount     Resource = "ports"
	ResPowerW        Resource = "power_w"
	ResBufferMB      Resource = "buffer_mb"
	ResReorderBufKB  Resource = "reorder_buffer_kb"
	ResMACEntries    Resource = "mac_entries"
)

// Hardware encodes one hardware component (Listing 1): a kind, boolean
// capabilities, quantitative resources, and the raw spec fields it was
// extracted from.
type Hardware struct {
	Name    string             `json:"name"`
	Kind    HardwareKind       `json:"kind"`
	Vendor  string             `json:"vendor,omitempty"`
	Caps    []Capability       `json:"caps,omitempty"`
	Quant   map[Resource]int64 `json:"quant,omitempty"`
	CostUSD int64              `json:"cost_usd,omitempty"`
	// Attrs preserves raw spec-sheet fields (e.g. "Ports": "40x 10
	// Gigabit Ethernet SFP+") for round-tripping and checking (§4.2).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// HasCap reports whether the hardware provides the capability.
func (h *Hardware) HasCap(c Capability) bool {
	for _, x := range h.Caps {
		if x == c {
			return true
		}
	}
	return false
}

// Q returns the quantity of a resource (0 when absent).
func (h *Hardware) Q(r Resource) int64 { return h.Quant[r] }

// Condition is a literal over a context atom: the atom's value must equal
// Value. Context atoms describe the deployment environment ("wan_dc_mix",
// "load_ge_40gbps", "deadline_tight", …).
type Condition struct {
	Atom  string `json:"atom"`
	Value bool   `json:"value"`
}

// System encodes one deployable system (Listing 2): the objectives it
// solves, its hardware and system dependencies, its conflicts, the
// conditions under which it is useful at all, and its resource costs.
type System struct {
	Name string `json:"name"`
	Role Role   `json:"role"`
	// Solves lists objectives this system achieves when deployed.
	Solves []Property `json:"solves,omitempty"`

	// RequiresCaps: deploying the system requires every listed
	// capability on the given hardware kind (e.g. Simon needs
	// NIC_TIMESTAMPS on NICs; HPCC needs INT on switches).
	RequiresCaps map[HardwareKind][]Capability `json:"requires_caps,omitempty"`

	// RequiresSystems: hard dependencies on other systems by name.
	RequiresSystems []string `json:"requires_systems,omitempty"`

	// RequiresAnyOf: for each group, at least one named system must be
	// co-deployed (e.g. a kernel-bypass stack needs some virtualization
	// layer that supports it).
	RequiresAnyOf [][]string `json:"requires_any_of,omitempty"`

	// ConflictsWith: systems that cannot be co-deployed.
	ConflictsWith []string `json:"conflicts_with,omitempty"`

	// RequiresContext: environmental preconditions for deployability
	// (e.g. a research system cannot be used under a tight deadline).
	RequiresContext []Condition `json:"requires_context,omitempty"`

	// UsefulOnlyWhen: conditions under which deploying the system
	// contributes its Solves properties; outside them it deploys but
	// solves nothing (§4.1's Annulus nuance: "required only when there
	// is competing WAN and DC traffic").
	UsefulOnlyWhen []Condition `json:"useful_only_when,omitempty"`

	// Resources: fixed per-deployment resource consumption.
	Resources map[Resource]int64 `json:"resources,omitempty"`

	// CoresPerKFlows: CPU cost proportional to workload flows (Listing
	// 2's CPU_FACTOR*num_flows), in cores per thousand flows.
	CoresPerKFlows int64 `json:"cores_per_kflows,omitempty"`

	// AppModification: deploying this system requires modifying
	// applications (Figure 1's blue dimension).
	AppModification bool `json:"app_modification,omitempty"`

	// Maturity is "production" or "research"; subjective rules key on it.
	Maturity string `json:"maturity,omitempty"`

	// Notes holds provenance: which paper/spec each fact came from.
	Notes map[string]string `json:"notes,omitempty"`
}

// SolvesProp reports whether the system lists the property.
func (s *System) SolvesProp(p Property) bool {
	for _, x := range s.Solves {
		if x == p {
			return true
		}
	}
	return false
}

// Workload encodes an application from the architect's point of view
// (Listing 3): its properties, placement, resource peaks, and the
// objectives it needs solved.
type Workload struct {
	Name string `json:"name"`
	// Properties become context atoms while reasoning about this
	// workload (dc_flows, short_flows, high_priority).
	Properties []string `json:"properties,omitempty"`
	// DeployedAt lists rack names.
	DeployedAt []string `json:"deployed_at,omitempty"`
	PeakCores  int64    `json:"peak_cores,omitempty"`
	// PeakMemoryGB is the workload's aggregate memory footprint.
	PeakMemoryGB int64 `json:"peak_memory_gb,omitempty"`
	// PeakBandwidthGbps is the workload's peak per-server network load.
	PeakBandwidthGbps int64 `json:"peak_bandwidth_gbps,omitempty"`
	// KFlows is the number of concurrent flows in thousands.
	KFlows int64 `json:"kflows,omitempty"`
	// Needs lists objectives that some deployed system must solve.
	Needs []Property `json:"needs,omitempty"`
}

// Rule is a free-form predicate-logic fact (§3.4): e.g. "PFC cannot be
// used with any flooding algorithm". Expr is over the shared atom
// namespace (see Expr documentation).
type Rule struct {
	Name string `json:"name"`
	Expr Expr   `json:"expr"`
	Note string `json:"note,omitempty"`
}

// OrderEdge is a guarded preference edge in a serialized partial order.
type OrderEdge struct {
	Better string `json:"better"`
	Worse  string `json:"worse"`
	Guard  *Expr  `json:"guard,omitempty"` // nil means always
	Note   string `json:"note,omitempty"`
}

// OrderEq is a guarded equivalence in a serialized partial order.
type OrderEq struct {
	A     string `json:"a"`
	B     string `json:"b"`
	Guard *Expr  `json:"guard,omitempty"`
	Note  string `json:"note,omitempty"`
}

// OrderSpec serializes one conditional partial order (one dimension of
// Figure 1).
type OrderSpec struct {
	Dimension string      `json:"dimension"`
	Edges     []OrderEdge `json:"edges,omitempty"`
	Equals    []OrderEq   `json:"equals,omitempty"`
}

// KB is a complete knowledge base.
type KB struct {
	Systems   []System    `json:"systems,omitempty"`
	Hardware  []Hardware  `json:"hardware,omitempty"`
	Workloads []Workload  `json:"workloads,omitempty"`
	Rules     []Rule      `json:"rules,omitempty"`
	Orders    []OrderSpec `json:"orders,omitempty"`
}

// SystemByName returns the named system, or nil.
func (k *KB) SystemByName(name string) *System {
	for i := range k.Systems {
		if k.Systems[i].Name == name {
			return &k.Systems[i]
		}
	}
	return nil
}

// HardwareByName returns the named hardware, or nil.
func (k *KB) HardwareByName(name string) *Hardware {
	for i := range k.Hardware {
		if k.Hardware[i].Name == name {
			return &k.Hardware[i]
		}
	}
	return nil
}

// WorkloadByName returns the named workload, or nil.
func (k *KB) WorkloadByName(name string) *Workload {
	for i := range k.Workloads {
		if k.Workloads[i].Name == name {
			return &k.Workloads[i]
		}
	}
	return nil
}

// SystemsByRole returns all systems filling the role, in catalog order.
func (k *KB) SystemsByRole(r Role) []*System {
	var out []*System
	for i := range k.Systems {
		if k.Systems[i].Role == r {
			out = append(out, &k.Systems[i])
		}
	}
	return out
}

// HardwareByKind returns all hardware of the kind, in catalog order.
func (k *KB) HardwareByKind(kind HardwareKind) []*Hardware {
	var out []*Hardware
	for i := range k.Hardware {
		if k.Hardware[i].Kind == kind {
			out = append(out, &k.Hardware[i])
		}
	}
	return out
}

// OrderByDimension returns the order spec for the dimension, or nil.
func (k *KB) OrderByDimension(dim string) *OrderSpec {
	for i := range k.Orders {
		if k.Orders[i].Dimension == dim {
			return &k.Orders[i]
		}
	}
	return nil
}

// Merge appends another knowledge base's entries; duplicate names are
// rejected (encodings are meant to be modular and contributed
// independently, §6 "proof modularity").
func (k *KB) Merge(other *KB) error {
	for i := range other.Systems {
		if k.SystemByName(other.Systems[i].Name) != nil {
			return fmt.Errorf("kb: duplicate system %q", other.Systems[i].Name)
		}
		k.Systems = append(k.Systems, other.Systems[i])
	}
	for i := range other.Hardware {
		if k.HardwareByName(other.Hardware[i].Name) != nil {
			return fmt.Errorf("kb: duplicate hardware %q", other.Hardware[i].Name)
		}
		k.Hardware = append(k.Hardware, other.Hardware[i])
	}
	for i := range other.Workloads {
		if k.WorkloadByName(other.Workloads[i].Name) != nil {
			return fmt.Errorf("kb: duplicate workload %q", other.Workloads[i].Name)
		}
		k.Workloads = append(k.Workloads, other.Workloads[i])
	}
	k.Rules = append(k.Rules, other.Rules...)
	for _, o := range other.Orders {
		if existing := k.OrderByDimension(o.Dimension); existing != nil {
			existing.Edges = append(existing.Edges, o.Edges...)
			existing.Equals = append(existing.Equals, o.Equals...)
		} else {
			k.Orders = append(k.Orders, o)
		}
	}
	return nil
}

// Stats summarizes a knowledge base; SpecSize is the §3.1 success metric
// ("the length of specification should grow linearly with the number of
// systems, hardware and workloads included").
type Stats struct {
	Systems    int
	Hardware   int
	Workloads  int
	Rules      int
	OrderEdges int
	// SpecSize counts atomic encoded facts: one per solve/requirement/
	// conflict/resource/capability/quantity/edge/rule-node.
	SpecSize int
}

// ComputeStats returns summary statistics for the KB.
func (k *KB) ComputeStats() Stats {
	st := Stats{
		Systems:   len(k.Systems),
		Hardware:  len(k.Hardware),
		Workloads: len(k.Workloads),
		Rules:     len(k.Rules),
	}
	size := 0
	for i := range k.Systems {
		s := &k.Systems[i]
		size++ // existence
		size += len(s.Solves) + len(s.RequiresSystems) + len(s.ConflictsWith) +
			len(s.RequiresContext) + len(s.UsefulOnlyWhen) + len(s.Resources)
		for _, caps := range s.RequiresCaps {
			size += len(caps)
		}
		for _, g := range s.RequiresAnyOf {
			size += len(g)
		}
		if s.CoresPerKFlows != 0 {
			size++
		}
	}
	for i := range k.Hardware {
		h := &k.Hardware[i]
		size++
		size += len(h.Caps) + len(h.Quant)
	}
	for i := range k.Workloads {
		w := &k.Workloads[i]
		size++
		size += len(w.Properties) + len(w.Needs) + len(w.DeployedAt)
	}
	for _, r := range k.Rules {
		size += r.Expr.size()
	}
	for _, o := range k.Orders {
		st.OrderEdges += len(o.Edges) + len(o.Equals)
		size += len(o.Edges) + len(o.Equals)
	}
	st.SpecSize = size
	return st
}
