package order

import (
	"strings"
	"testing"

	"netarch/internal/logic"
)

func mustEdge(t *testing.T, g *Graph, better, worse string, guard logic.Formula) {
	t.Helper()
	if err := g.AddEdge(better, worse, guard, "test"); err != nil {
		t.Fatal(err)
	}
}

func TestBasicChain(t *testing.T) {
	g := New("throughput")
	mustEdge(t, g, "a", "b", logic.True)
	mustEdge(t, g, "b", "c", logic.True)
	r, err := g.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Better("a", "b") || !r.Better("b", "c") {
		t.Error("direct edges missing")
	}
	if !r.Better("a", "c") {
		t.Error("transitivity missing")
	}
	if r.Better("c", "a") || r.Better("a", "a") {
		t.Error("spurious preference")
	}
	if r.Better("a", "ghost") || r.Better("ghost", "a") {
		t.Error("unknown items must be unpreferred")
	}
}

func TestGuardedEdges(t *testing.T) {
	vo := logic.NewVocabulary()
	hiRate := vo.Get("load_ge_40g")
	g := New("throughput")
	mustEdge(t, g, "netchannel", "linux", logic.V(hiRate))
	mustEdge(t, g, "linux", "netchannel", logic.Not(logic.V(hiRate)))

	low, err := g.Resolve(Context{})
	if err != nil {
		t.Fatal(err)
	}
	if !low.Better("linux", "netchannel") || low.Better("netchannel", "linux") {
		t.Error("below 40G linux should win")
	}
	high, err := g.Resolve(Context{hiRate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !high.Better("netchannel", "linux") || high.Better("linux", "netchannel") {
		t.Error("above 40G netchannel should win")
	}
}

func TestEquivalenceMerging(t *testing.T) {
	g := New("isolation")
	if err := g.AddEqual("x", "y", logic.True, "same paper"); err != nil {
		t.Fatal(err)
	}
	mustEdge(t, g, "x", "z", logic.True)
	r, err := g.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal("x", "y") {
		t.Error("x and y must be merged")
	}
	if !r.Better("y", "z") {
		t.Error("preference must apply through the merged class")
	}
	found := false
	for _, c := range r.classes {
		if len(c) == 2 && c[0] == "x" && c[1] == "y" {
			found = true
		}
	}
	if !found {
		t.Errorf("classes wrong: %v", r.classes)
	}
}

func TestEquivalenceContradiction(t *testing.T) {
	g := New("d")
	if err := g.AddEqual("a", "b", logic.True, ""); err != nil {
		t.Fatal(err)
	}
	mustEdge(t, g, "a", "b", logic.True)
	if _, err := g.Resolve(nil); err == nil {
		t.Error("edge inside an equivalence class must be an error")
	}
}

func TestCycleDetection(t *testing.T) {
	g := New("d")
	mustEdge(t, g, "a", "b", logic.True)
	mustEdge(t, g, "b", "c", logic.True)
	mustEdge(t, g, "c", "a", logic.True)
	if _, err := g.Resolve(nil); err == nil {
		t.Error("preference cycle must be an error")
	}
}

func TestGuardedCycleOnlyWhenActive(t *testing.T) {
	vo := logic.NewVocabulary()
	p := vo.Get("p")
	g := New("d")
	mustEdge(t, g, "a", "b", logic.True)
	mustEdge(t, g, "b", "a", logic.V(p))
	if _, err := g.Resolve(Context{}); err != nil {
		t.Errorf("inactive guard must not cycle: %v", err)
	}
	if _, err := g.Resolve(Context{p: true}); err == nil {
		t.Error("active guard must cycle")
	}
}

func TestMaximalMinimal(t *testing.T) {
	g := New("d")
	mustEdge(t, g, "top", "mid", logic.True)
	mustEdge(t, g, "mid", "bot", logic.True)
	g.AddNode("island")
	r, err := g.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMax := []string{"island", "top"}
	gotMax := r.Maximal()
	if len(gotMax) != 2 || gotMax[0] != wantMax[0] || gotMax[1] != wantMax[1] {
		t.Errorf("Maximal: got %v, want %v", gotMax, wantMax)
	}
}

func TestIncomparablePairs(t *testing.T) {
	g := New("isolation")
	mustEdge(t, g, "a", "b", logic.True)
	g.AddNode("c")
	r, err := g.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs := r.IncomparablePairs()
	// a-c and b-c are incomparable.
	if len(pairs) != 2 {
		t.Fatalf("got %v, want two pairs", pairs)
	}
}

func TestHasseReduction(t *testing.T) {
	g := New("d")
	mustEdge(t, g, "a", "b", logic.True)
	mustEdge(t, g, "b", "c", logic.True)
	mustEdge(t, g, "a", "c", logic.True) // redundant
	r, err := g.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	edges := r.HasseEdges()
	if len(edges) != 2 {
		t.Fatalf("Hasse edges: got %v, want 2 edges", edges)
	}
	for _, e := range edges {
		if e == [2]string{"a", "c"} {
			t.Error("redundant edge a->c must be reduced away")
		}
	}
}

func TestSelfEdgeRejected(t *testing.T) {
	g := New("d")
	if err := g.AddEdge("a", "a", logic.True, ""); err == nil {
		t.Error("self edge must be rejected")
	}
	if err := g.AddEqual("a", "a", logic.True, ""); err == nil {
		t.Error("self equivalence must be rejected")
	}
}

func TestAccessors(t *testing.T) {
	g := New("throughput")
	mustEdge(t, g, "a", "b", logic.True)
	r, _ := g.Resolve(nil)
	if !r.Comparable("a", "b") || r.Comparable("a", "ghost") {
		t.Error("Comparable wrong")
	}
}

func TestDOTOutput(t *testing.T) {
	vo := logic.NewVocabulary()
	pony := vo.Get("pony_enabled")
	g := New("throughput")
	mustEdge(t, g, "snap", "linux", logic.V(pony))
	if err := g.AddEqual("snap", "shenango", logic.True, ""); err != nil {
		t.Fatal(err)
	}
	dot := g.DOT(vo, "yellow")
	for _, want := range []string{
		"digraph", `"snap" -> "linux"`, "pony_enabled",
		"style=dashed", `color="yellow"`, `label="throughput"`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q in:\n%s", want, dot)
		}
	}
}
