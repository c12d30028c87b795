// Package order implements conditional partial orders — the paper's
// "rules of thumb" (§3.1, Figure 1). An order relates systems along one
// dimension (throughput, isolation, deployment ease, …) with edges that
// may be guarded by a context formula: "Snap > Linux for throughput if
// Pony is enabled", "Linux is sufficient below 40 Gbps".
//
// Guards are propositional formulas over a logic.Vocabulary shared with
// the knowledge base, so the same context atoms drive both the partial
// orders and the deployability constraints.
package order

import (
	"fmt"
	"sort"

	"netarch/internal/logic"
)

// Edge is a guarded preference: Better is preferred to Worse along the
// graph's dimension whenever Guard evaluates true in the query context.
// An always-on edge has Guard logic.True.
type Edge struct {
	Better string
	Worse  string
	Guard  logic.Formula
	// Note records the provenance of the rule (paper citation, operator
	// experience), surfaced in explanations.
	Note string
}

// Equivalence records that two items are considered equal along the
// dimension (Figure 1's dashed lines), under a guard.
type Equivalence struct {
	A, B  string
	Guard logic.Formula
	Note  string
}

// Graph is a conditional partial order along a single dimension.
// The zero value is unusable; create with New.
type Graph struct {
	dimension string
	nodes     []string
	nodeSet   map[string]bool
	edges     []Edge
	equals    []Equivalence
}

// New returns an empty conditional partial order for the given dimension.
func New(dimension string) *Graph {
	return &Graph{dimension: dimension, nodeSet: make(map[string]bool)}
}

// AddNode registers an item. Adding edges registers endpoints implicitly;
// explicit registration is useful for items with no known comparisons
// (the paper stresses incompleteness is expected).
func (g *Graph) AddNode(name string) {
	if !g.nodeSet[name] {
		g.nodeSet[name] = true
		g.nodes = append(g.nodes, name)
	}
}

// AddEdge records "better > worse when guard". Self-loops are rejected.
func (g *Graph) AddEdge(better, worse string, guard logic.Formula, note string) error {
	if better == worse {
		return fmt.Errorf("order: self-comparison of %q", better)
	}
	g.AddNode(better)
	g.AddNode(worse)
	g.edges = append(g.edges, Edge{Better: better, Worse: worse, Guard: guard, Note: note})
	return nil
}

// AddEqual records "a = b when guard" (Figure 1's dashed line).
func (g *Graph) AddEqual(a, b string, guard logic.Formula, note string) error {
	if a == b {
		return fmt.Errorf("order: self-equivalence of %q", a)
	}
	g.AddNode(a)
	g.AddNode(b)
	g.equals = append(g.equals, Equivalence{A: a, B: b, Guard: guard, Note: note})
	return nil
}

// Context is an assignment of the guard atoms; missing atoms are false.
type Context map[logic.Var]bool

// Resolve evaluates every guard under ctx and returns the concrete partial
// order that applies: equivalent nodes are merged into classes, and an
// error is returned if the active edges create a preference cycle (which
// indicates contradictory rules of thumb — worth surfacing, not masking).
func (g *Graph) Resolve(ctx Context) (*Resolved, error) {
	// Union-find over nodes for active equivalences.
	parent := make(map[string]string, len(g.nodes))
	for _, n := range g.nodes {
		parent[n] = n
	}
	var find func(string) string
	find = func(x string) string {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, eq := range g.equals {
		if eq.Guard.Eval(ctx) {
			ra, rb := find(eq.A), find(eq.B)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}

	r := &Resolved{}
	classOf := make(map[string]int)
	memberOf := make(map[string][]string)
	for _, n := range g.nodes {
		memberOf[find(n)] = append(memberOf[find(n)], n)
	}
	roots := make([]string, 0, len(memberOf))
	for root := range memberOf {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for _, root := range roots {
		members := memberOf[root]
		sort.Strings(members)
		idx := len(r.classes)
		r.classes = append(r.classes, members)
		for _, m := range members {
			classOf[m] = idx
		}
	}
	r.classOf = classOf

	n := len(r.classes)
	r.adj = make([][]bool, n)
	for i := range r.adj {
		r.adj[i] = make([]bool, n)
	}
	for _, e := range g.edges {
		if !e.Guard.Eval(ctx) {
			continue
		}
		a, b := classOf[e.Better], classOf[e.Worse]
		if a == b {
			return nil, fmt.Errorf(
				"order[%s]: %q > %q contradicts an active equivalence (%s)",
				g.dimension, e.Better, e.Worse, e.Note)
		}
		r.adj[a][b] = true
	}

	// Transitive closure (Floyd–Warshall over booleans).
	r.closure = make([][]bool, n)
	for i := range r.closure {
		r.closure[i] = append([]bool(nil), r.adj[i]...)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !r.closure[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if r.closure[k][j] {
					r.closure[i][j] = true
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if r.closure[i][i] {
			return nil, fmt.Errorf(
				"order[%s]: preference cycle through %v — contradictory rules",
				g.dimension, r.classes[i])
		}
	}
	return r, nil
}

// Resolved is a concrete (guard-free) partial order over equivalence
// classes of items.
type Resolved struct {
	classes [][]string // equivalence classes, each sorted
	classOf map[string]int
	adj     [][]bool // direct better-than edges between classes
	closure [][]bool // transitive closure
}

// Better reports whether a is strictly preferred to b (transitively).
// Unknown items are never preferred.
func (r *Resolved) Better(a, b string) bool {
	ia, oka := r.classOf[a]
	ib, okb := r.classOf[b]
	if !oka || !okb || ia == ib {
		return false
	}
	return r.closure[ia][ib]
}

// Equal reports whether a and b were merged by an equivalence.
func (r *Resolved) Equal(a, b string) bool {
	ia, oka := r.classOf[a]
	ib, okb := r.classOf[b]
	return oka && okb && ia == ib
}

// Comparable reports whether a and b are related (either direction or equal).
func (r *Resolved) Comparable(a, b string) bool {
	return r.Equal(a, b) || r.Better(a, b) || r.Better(b, a)
}

// Maximal returns the items not dominated by any other item — the
// candidates an architect should consider along this dimension.
func (r *Resolved) Maximal() []string {
	var out []string
	for i, members := range r.classes {
		dominated := false
		for j := range r.classes {
			if j != i && r.closure[j][i] {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, members...)
		}
	}
	sort.Strings(out)
	return out
}

// IncomparablePairs returns all unordered item pairs with no relation —
// the gaps in the knowledge base that §3.1 says architects can fill only
// if the answer would change a design decision.
func (r *Resolved) IncomparablePairs() [][2]string {
	var out [][2]string
	items := make([]string, 0, len(r.classOf))
	for it := range r.classOf {
		items = append(items, it)
	}
	sort.Strings(items)
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			if !r.Comparable(items[i], items[j]) {
				out = append(out, [2]string{items[i], items[j]})
			}
		}
	}
	return out
}

// HasseEdges returns the transitive reduction as (better, worse) pairs of
// representative items (first member of each class), the minimal edge set
// drawn in a Hasse diagram like Figure 1.
func (r *Resolved) HasseEdges() [][2]string {
	n := len(r.classes)
	var out [][2]string
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !r.closure[i][j] {
				continue
			}
			// Edge i→j is redundant if some k has i→k→j.
			redundant := false
			for k := 0; k < n && !redundant; k++ {
				if k != i && k != j && r.closure[i][k] && r.closure[k][j] {
					redundant = true
				}
			}
			if !redundant {
				out = append(out, [2]string{r.classes[i][0], r.classes[j][0]})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}
