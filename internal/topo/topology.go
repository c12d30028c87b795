// Package topo provides the network-topology substrate: Clos (leaf-spine
// and fat-tree) builders, up-down and ECMP routing, L2 flooding behaviour,
// buffer-dependency graphs, and PFC deadlock detection.
//
// It exists to ground the paper's motivating incident (§2.2, §3.4): PFC
// requires an absence of cyclic buffer dependencies; Microsoft's up-down
// routing guaranteed acyclicity, but Ethernet flooding broke the routing
// invariant and deadlocked the production network [Guo et al., SIGCOMM'16].
// The expert rule the paper proposes ("PFC cannot be used with any flooding
// algorithm") is checkable here against the actual graph-theoretic
// condition, which is how the reproduction validates the rule.
package topo

import (
	"fmt"
	"sort"
)

// Tier is a switch's layer in the Clos.
type Tier int

// Switch tiers, bottom-up.
const (
	TierLeaf Tier = iota
	TierSpine
	TierCore
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierLeaf:
		return "leaf"
	case TierSpine:
		return "spine"
	case TierCore:
		return "core"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Switch is a switching element.
type Switch struct {
	Name string
	Tier Tier
	// Pod groups fat-tree leaf/spine switches; -1 for core or leaf-spine.
	Pod int
}

// Server is an end host attached to a leaf.
type Server struct {
	Name string
	Leaf string // leaf switch name
	Rack string // rack name (one rack per leaf)
	// Cores available for system/workload placement.
	Cores int64
}

// Topology is an immutable Clos network. Build with NewLeafSpine or
// NewFatTree.
type Topology struct {
	switches map[string]*Switch
	servers  map[string]*Server
	// adj[u] lists neighbours of switch u (switch names only).
	adj map[string][]string
	// serversAt[leaf] lists server names attached to a leaf.
	serversAt map[string][]string
	racks     []string
}

// NewLeafSpine builds a two-tier Clos: every leaf connects to every spine,
// serversPerLeaf servers per leaf, one rack per leaf, coresPerServer cores
// each.
func NewLeafSpine(spines, leaves, serversPerLeaf int, coresPerServer int64) (*Topology, error) {
	if spines < 1 || leaves < 1 || serversPerLeaf < 0 {
		return nil, fmt.Errorf("topo: invalid leaf-spine shape %d/%d/%d", spines, leaves, serversPerLeaf)
	}
	t := newTopology()
	for s := 0; s < spines; s++ {
		t.addSwitch(&Switch{Name: fmt.Sprintf("spine%d", s), Tier: TierSpine, Pod: -1})
	}
	for l := 0; l < leaves; l++ {
		leaf := fmt.Sprintf("leaf%d", l)
		t.addSwitch(&Switch{Name: leaf, Tier: TierLeaf, Pod: -1})
		for s := 0; s < spines; s++ {
			t.link(leaf, fmt.Sprintf("spine%d", s))
		}
		rack := fmt.Sprintf("rack%d", l)
		t.racks = append(t.racks, rack)
		for h := 0; h < serversPerLeaf; h++ {
			t.addServer(&Server{
				Name:  fmt.Sprintf("srv-%d-%d", l, h),
				Leaf:  leaf,
				Rack:  rack,
				Cores: coresPerServer,
			})
		}
	}
	return t, nil
}

// NewFatTree builds a k-ary fat tree (k even): k pods, each with k/2 edge
// (leaf) and k/2 aggregation (spine) switches, (k/2)² core switches, and
// k/2 servers per edge switch.
func NewFatTree(k int, coresPerServer int64) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree arity must be even and ≥ 2, got %d", k)
	}
	t := newTopology()
	half := k / 2
	// Core switches, grouped: core[g][i] connects to aggregation g of
	// each pod.
	for g := 0; g < half; g++ {
		for i := 0; i < half; i++ {
			t.addSwitch(&Switch{Name: fmt.Sprintf("core%d-%d", g, i), Tier: TierCore, Pod: -1})
		}
	}
	rackID := 0
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			agg := fmt.Sprintf("agg%d-%d", p, a)
			t.addSwitch(&Switch{Name: agg, Tier: TierSpine, Pod: p})
			for i := 0; i < half; i++ {
				t.link(agg, fmt.Sprintf("core%d-%d", a, i))
			}
		}
		for e := 0; e < half; e++ {
			edge := fmt.Sprintf("edge%d-%d", p, e)
			t.addSwitch(&Switch{Name: edge, Tier: TierLeaf, Pod: p})
			for a := 0; a < half; a++ {
				t.link(edge, fmt.Sprintf("agg%d-%d", p, a))
			}
			rack := fmt.Sprintf("rack%d", rackID)
			rackID++
			t.racks = append(t.racks, rack)
			for h := 0; h < half; h++ {
				t.addServer(&Server{
					Name:  fmt.Sprintf("srv-%d-%d-%d", p, e, h),
					Leaf:  edge,
					Rack:  rack,
					Cores: coresPerServer,
				})
			}
		}
	}
	return t, nil
}

func newTopology() *Topology {
	return &Topology{
		switches:  make(map[string]*Switch),
		servers:   make(map[string]*Server),
		adj:       make(map[string][]string),
		serversAt: make(map[string][]string),
	}
}

func (t *Topology) addSwitch(s *Switch) { t.switches[s.Name] = s }

func (t *Topology) addServer(s *Server) {
	t.servers[s.Name] = s
	t.serversAt[s.Leaf] = append(t.serversAt[s.Leaf], s.Name)
}

func (t *Topology) link(a, b string) {
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
}

// Switches returns all switch names, sorted.
func (t *Topology) Switches() []string {
	out := make([]string, 0, len(t.switches))
	for n := range t.switches {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Servers returns all server names, sorted.
func (t *Topology) Servers() []string {
	out := make([]string, 0, len(t.servers))
	for n := range t.servers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Racks returns rack names in construction order.
func (t *Topology) Racks() []string { return append([]string(nil), t.racks...) }

// Switch returns the named switch, or nil.
func (t *Topology) Switch(name string) *Switch { return t.switches[name] }

// Server returns the named server, or nil.
func (t *Topology) Server(name string) *Server { return t.servers[name] }

// Neighbors returns the switch neighbours of a switch, sorted.
func (t *Topology) Neighbors(name string) []string {
	out := append([]string(nil), t.adj[name]...)
	sort.Strings(out)
	return out
}

// ServersAtLeaf returns server names attached to a leaf switch.
func (t *Topology) ServersAtLeaf(leaf string) []string {
	return append([]string(nil), t.serversAt[leaf]...)
}

// ServersInRack returns server names in a rack, sorted.
func (t *Topology) ServersInRack(rack string) []string {
	var out []string
	for n, s := range t.servers {
		if s.Rack == rack {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// RackCores returns the total core count of a rack.
func (t *Topology) RackCores(rack string) int64 {
	var total int64
	for _, s := range t.servers {
		if s.Rack == rack {
			total += s.Cores
		}
	}
	return total
}

// upNeighbors returns neighbours one tier up.
func (t *Topology) upNeighbors(sw string) []string {
	self := t.switches[sw]
	var out []string
	for _, n := range t.adj[sw] {
		if t.switches[n].Tier == self.Tier+1 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
