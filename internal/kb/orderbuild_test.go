package kb

import (
	"strings"
	"testing"

	"netarch/internal/logic"
	"netarch/internal/order"
)

func guardedOrderSpec() OrderSpec {
	g := CtxAtom("fast")
	return OrderSpec{
		Dimension: "quality",
		Edges: []OrderEdge{
			{Better: "a", Worse: "b", Note: "always"},
			{Better: "b", Worse: "c", Guard: &g, Note: "only when fast"},
		},
		Equals: []OrderEq{
			{A: "c", B: "d", Guard: &g},
		},
	}
}

func TestOrderSpecBuild(t *testing.T) {
	spec := guardedOrderSpec()
	vo := logic.NewVocabulary()
	g, err := spec.Build(vo)
	if err != nil {
		t.Fatal(err)
	}
	off, err := g.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !off.Better("a", "b") || off.Better("b", "c") || off.Equal("c", "d") {
		t.Error("built graph wrong without its guard: want only a > b")
	}
	r, err := g.Resolve(order.Context{vo.Lookup("ctx:fast"): true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Better("a", "c") {
		t.Error("built graph lacks the guarded edge")
	}
	if !r.Equal("c", "d") {
		t.Error("built graph lacks the guarded equal")
	}
}

func TestOrderSpecBuildBadGuard(t *testing.T) {
	bad := Expr{Op: "bogus"}
	spec := OrderSpec{
		Dimension: "d",
		Edges:     []OrderEdge{{Better: "a", Worse: "b", Guard: &bad}},
	}
	if _, err := spec.Build(logic.NewVocabulary()); err == nil {
		t.Error("bad guard must fail Build")
	}
	specEq := OrderSpec{
		Dimension: "d",
		Equals:    []OrderEq{{A: "a", B: "b", Guard: &bad}},
	}
	if _, err := specEq.Build(logic.NewVocabulary()); err == nil {
		t.Error("bad equal guard must fail Build")
	}
}

func TestOrderSpecResolveWithContext(t *testing.T) {
	spec := guardedOrderSpec()
	slow, err := spec.Resolve(nil, "island")
	if err != nil {
		t.Fatal(err)
	}
	if !slow.Better("a", "b") || slow.Better("b", "c") {
		t.Error("guard must be inactive without the atom")
	}
	if slow.Equal("c", "d") {
		t.Error("guarded equal must be inactive")
	}
	if !slow.Comparable("a", "b") || slow.Comparable("island", "a") {
		t.Error("extra node must appear, unrelated")
	}

	fast, err := spec.Resolve(map[string]bool{"fast": true})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Better("a", "c") {
		t.Error("transitive chain must activate under the atom")
	}
	if !fast.Equal("c", "d") {
		t.Error("guarded equal must activate")
	}
}

func TestOrderSpecDOT(t *testing.T) {
	spec := guardedOrderSpec()
	dot, err := spec.DOT("red3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", `"a" -> "b"`, "ctx:fast", `color="red3"`, "style=dashed"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	bad := Expr{Op: "bogus"}
	broken := OrderSpec{Dimension: "d", Edges: []OrderEdge{{Better: "a", Worse: "b", Guard: &bad}}}
	if _, err := broken.DOT(""); err == nil {
		t.Error("bad guard must fail DOT")
	}
}
