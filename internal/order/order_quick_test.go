package order

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"netarch/internal/logic"
)

// randomDAGOrder builds a random acyclic conditional order over n items:
// edges only point from lower to higher index, so every context resolves
// acyclically.
func randomDAGOrder(r *rand.Rand, n, nEdges, nAtoms int, vo *logic.Vocabulary) *Graph {
	g := New("prop")
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("s%d", i))
	}
	for e := 0; e < nEdges; e++ {
		i := r.Intn(n - 1)
		j := i + 1 + r.Intn(n-i-1)
		guard := logic.Formula(logic.True)
		if r.Intn(2) == 0 {
			v := vo.Get(fmt.Sprintf("a%d", r.Intn(nAtoms)))
			guard = logic.V(v)
			if r.Intn(2) == 0 {
				guard = logic.Not(guard)
			}
		}
		if err := g.AddEdge(fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", j), guard, ""); err != nil {
			panic(err)
		}
	}
	return g
}

func TestQuickResolvedIsStrictPartialOrder(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vo := logic.NewVocabulary()
		n := 3 + r.Intn(6)
		g := randomDAGOrder(r, n, 1+r.Intn(2*n), 3, vo)
		ctx := Context{}
		for i := 1; i <= vo.Len(); i++ {
			ctx[logic.Var(i)] = r.Intn(2) == 0
		}
		res, err := g.Resolve(ctx)
		if err != nil {
			return false // DAG construction guarantees acyclicity
		}
		names := g.nodes
		// Irreflexive, antisymmetric, transitive.
		for _, a := range names {
			if res.Better(a, a) {
				return false
			}
			for _, b := range names {
				if res.Better(a, b) && res.Better(b, a) {
					return false
				}
				for _, c := range names {
					if res.Better(a, b) && res.Better(b, c) && !res.Better(a, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickHasseRegeneratesClosure(t *testing.T) {
	// Property: the transitive closure of the Hasse edges equals the
	// full Better relation.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vo := logic.NewVocabulary()
		n := 3 + r.Intn(5)
		g := randomDAGOrder(r, n, 1+r.Intn(2*n), 2, vo)
		res, err := g.Resolve(nil)
		if err != nil {
			return false
		}
		hasse := res.HasseEdges()
		// Rebuild closure from Hasse edges.
		adj := map[string]map[string]bool{}
		for _, e := range hasse {
			if adj[e[0]] == nil {
				adj[e[0]] = map[string]bool{}
			}
			adj[e[0]][e[1]] = true
		}
		var reach func(from, to string, seen map[string]bool) bool
		reach = func(from, to string, seen map[string]bool) bool {
			if adj[from][to] {
				return true
			}
			for next := range adj[from] {
				if !seen[next] {
					seen[next] = true
					if reach(next, to, seen) {
						return true
					}
				}
			}
			return false
		}
		for _, a := range g.nodes {
			for _, b := range g.nodes {
				if a == b {
					continue
				}
				want := res.Better(a, b)
				got := reach(a, b, map[string]bool{a: true})
				if want != got {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickMaximalNeverDominated(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vo := logic.NewVocabulary()
		n := 3 + r.Intn(6)
		g := randomDAGOrder(r, n, 1+r.Intn(2*n), 2, vo)
		res, err := g.Resolve(nil)
		if err != nil {
			return false
		}
		maximal := map[string]bool{}
		for _, m := range res.Maximal() {
			maximal[m] = true
		}
		for _, a := range g.nodes {
			dominated := false
			for _, b := range g.nodes {
				if res.Better(b, a) {
					dominated = true
				}
			}
			if maximal[a] == dominated {
				return false // maximal iff not dominated
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
