package kb

import (
	"encoding/json"
	"testing"

	"netarch/internal/logic"
)

func TestExprConstructors(t *testing.T) {
	e := Implies(And(SystemAtom("pfc"), CtxAtom("flooding")), FalseExpr())
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "((system:pfc & ctx:flooding) -> false)" {
		t.Errorf("String: got %q", got)
	}
	if CapAtom(KindNIC, CapECN).Atom != "cap:nic:ECN" {
		t.Error("CapAtom wrong")
	}
}

func TestExprValidateErrors(t *testing.T) {
	bad := []Expr{
		{Op: "atom"}, // empty atom
		{Op: "atom", Atom: "a", Args: []Expr{{}}}, // atom with args
		{Op: "not"},                              // wrong arity
		{Op: "implies", Args: []Expr{Atom("a")}}, // wrong arity
		{Op: "nand", Args: nil},                  // unknown op
		{Op: "true", Atom: "x"},                  // decorated constant
		And(Atom("a"), Expr{Op: "bogus"}),        // nested failure
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d (%v): expected error", i, e)
		}
	}
}

func TestExprCompileSemantics(t *testing.T) {
	vo := logic.NewVocabulary()
	resolve := vo.Get

	cases := []struct {
		expr   Expr
		assign map[string]bool
		want   bool
	}{
		{Implies(CtxAtom("a"), CtxAtom("b")), map[string]bool{"ctx:a": true, "ctx:b": false}, false},
		{Implies(CtxAtom("a"), CtxAtom("b")), map[string]bool{"ctx:a": false}, true},
		{Iff(CtxAtom("a"), CtxAtom("b")), map[string]bool{"ctx:a": true, "ctx:b": true}, true},
		{Iff(CtxAtom("a"), CtxAtom("b")), map[string]bool{"ctx:a": true}, false},
		{And(), nil, true},
		{Or(), nil, false},
		{TrueExpr(), nil, true},
		{FalseExpr(), nil, false},
		{Not(CtxAtom("a")), nil, true},
	}
	for i, c := range cases {
		f, err := c.expr.Compile(resolve)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		assign := map[logic.Var]bool{}
		for name, v := range c.assign {
			assign[vo.Get(name)] = v
		}
		if got := f.Eval(assign); got != c.want {
			t.Errorf("case %d (%v): got %v, want %v", i, c.expr, got, c.want)
		}
	}
}

func TestExprCompileRejectsInvalid(t *testing.T) {
	vo := logic.NewVocabulary()
	if _, err := (Expr{Op: "nope"}).Compile(vo.Get); err == nil {
		t.Error("invalid expr must fail to compile")
	}
}

func TestExprAtoms(t *testing.T) {
	e := And(SystemAtom("a"), Or(CtxAtom("b"), Not(SystemAtom("a"))))
	atoms := e.Atoms(nil)
	if len(atoms) != 3 {
		t.Fatalf("Atoms: got %v", atoms)
	}
}

func TestExprJSON(t *testing.T) {
	e := Implies(CtxAtom("pfc_enabled"), Not(CtxAtom("flooding_enabled")))
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Expr
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != e.String() {
		t.Errorf("JSON roundtrip: %q vs %q", back.String(), e.String())
	}
}

func TestConditionExpr(t *testing.T) {
	pos := ConditionExpr(Condition{Atom: "x", Value: true})
	if pos.String() != "ctx:x" {
		t.Errorf("got %q", pos.String())
	}
	neg := ConditionExpr(Condition{Atom: "x", Value: false})
	if neg.String() != "!(ctx:x)" {
		t.Errorf("got %q", neg.String())
	}
}
