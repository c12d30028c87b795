package logic

import (
	"math/rand"
	"testing"
)

// varSet returns the distinct variables occurring in f, in first-occurrence
// order.
func varSet(f Formula) []Var {
	var out []Var
	seen := make(map[Var]bool)
	var walk func(Formula)
	walk = func(f Formula) {
		if f.kind == KindVar && !seen[f.v] {
			seen[f.v] = true
			out = append(out, f.v)
		}
		for _, a := range f.args {
			walk(a)
		}
	}
	walk(f)
	return out
}

// enumEquivalent checks logical equivalence of two formulas by enumerating
// all assignments over the union of their variables. Only usable for small
// variable counts.
func enumEquivalent(t *testing.T, a, b Formula) bool {
	t.Helper()
	vars := varSet(And(a, b))
	if len(vars) > 20 {
		t.Fatalf("enumEquivalent: too many variables (%d)", len(vars))
	}
	assign := make(map[Var]bool, len(vars))
	for mask := 0; mask < 1<<len(vars); mask++ {
		for i, v := range vars {
			assign[v] = mask&(1<<i) != 0
		}
		if a.Eval(assign) != b.Eval(assign) {
			return false
		}
	}
	return true
}

func TestConstants(t *testing.T) {
	if True.Eval(nil) != true {
		t.Error("True must evaluate to true")
	}
	if False.Eval(nil) != false {
		t.Error("False must evaluate to false")
	}
	if !True.IsConst() || !False.IsConst() || V(1).IsConst() {
		t.Error("IsConst misclassifies")
	}
}

func TestNotFolding(t *testing.T) {
	if !Equal(Not(True), False) || !Equal(Not(False), True) {
		t.Error("constant negation must fold")
	}
	x := V(1)
	if !Equal(Not(Not(x)), x) {
		t.Error("double negation must cancel")
	}
}

func TestAndOrIdentities(t *testing.T) {
	x, y := V(1), V(2)
	cases := []struct {
		name string
		got  Formula
		want Formula
	}{
		{"And()", And(), True},
		{"Or()", Or(), False},
		{"And(x)", And(x), x},
		{"Or(y)", Or(y), y},
		{"And(x,True)", And(x, True), x},
		{"Or(x,False)", Or(x, False), x},
		{"And(x,False)", And(x, False), False},
		{"Or(x,True)", Or(x, True), True},
		{"And flatten", And(And(x, y), x), And(x, y, x)},
	}
	for _, c := range cases {
		if !Equal(c.got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestDerivedConnectives(t *testing.T) {
	x, y := V(1), V(2)
	assign := map[Var]bool{}
	for mask := 0; mask < 4; mask++ {
		assign[1] = mask&1 != 0
		assign[2] = mask&2 != 0
		a, b := assign[1], assign[2]
		if Implies(x, y).Eval(assign) != (!a || b) {
			t.Fatalf("Implies wrong at %v", assign)
		}
		if Iff(x, y).Eval(assign) != (a == b) {
			t.Fatalf("Iff wrong at %v", assign)
		}
	}
}

func TestVZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("V(0) must panic")
		}
	}()
	V(0)
}

func TestVocabulary(t *testing.T) {
	vo := NewVocabulary()
	a := vo.Get("pfc")
	b := vo.Get("flooding")
	if a == b {
		t.Fatal("distinct names must get distinct vars")
	}
	if vo.Get("pfc") != a {
		t.Error("Get must be idempotent per name")
	}
	if vo.Lookup("pfc") != a || vo.Lookup("nope") != 0 {
		t.Error("Lookup wrong")
	}
	if vo.Name(a) != "pfc" || vo.Name(0) != "" || vo.Name(Var(99)) != "" {
		t.Error("Name wrong")
	}
	if vo.Len() != 2 {
		t.Errorf("Len: got %d, want 2", vo.Len())
	}
	anon := vo.Fresh("")
	if vo.Name(anon) != "" {
		t.Error("anonymous var must have empty name")
	}
	f := Implies(V(vo.Get("pfc")), Not(V(vo.Get("flooding"))))
	if got := vo.Render(f); got != "!pfc | !flooding" {
		t.Errorf("Render: got %q", got)
	}
	if u := vo.FreshUnindexed("pfc"); vo.Name(u) != "pfc" || vo.Lookup("pfc") != a || vo.Get("pfc") != a {
		t.Error("FreshUnindexed must name its variable without indexing it")
	}
	vo.FreshAnonymous(2)
	if vo.Len() != 6 || vo.Name(6) != "" || cap(vo.names) != 6 || vo.Lookup("pfc") != a {
		t.Errorf("FreshAnonymous(2): Len %d, names cap %d; want 6 and 6, names kept", vo.Len(), cap(vo.names))
	}
}

func TestVocabularyDuplicateNames(t *testing.T) {
	vo := NewVocabulary()
	a := vo.Fresh("dup")
	b := vo.Fresh("dup")
	if a == b {
		t.Fatal("Fresh must always allocate")
	}
	if vo.Lookup("dup") != a {
		t.Error("Lookup must return the first registration")
	}
}

// randFormula builds a random formula over nv variables with the given
// node budget, for property tests.
func randFormula(r *rand.Rand, nv, budget int) Formula {
	if budget <= 1 {
		return V(Var(r.Intn(nv) + 1))
	}
	switch r.Intn(6) {
	case 0:
		return Not(randFormula(r, nv, budget-1))
	case 1:
		return True
	case 2:
		return False
	default:
		n := 2 + r.Intn(3)
		args := make([]Formula, n)
		for i := range args {
			args[i] = randFormula(r, nv, budget/n)
		}
		if r.Intn(2) == 0 {
			return And(args...)
		}
		return Or(args...)
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		f := randFormula(r, 5, 30)
		if !enumEquivalent(t, f, Simplify(f)) {
			t.Fatalf("Simplify changed semantics of %v -> %v", f, Simplify(f))
		}
	}
}

func TestSimplifyIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		f := randFormula(r, 5, 30)
		once := Simplify(f)
		twice := Simplify(once)
		if !Equal(once, twice) {
			t.Fatalf("Simplify not idempotent: %v vs %v", once, twice)
		}
	}
}

func TestSimplifyComplement(t *testing.T) {
	x := V(1)
	if !Equal(Simplify(And(x, Not(x))), False) {
		t.Error("x & !x must simplify to false")
	}
	if !Equal(Simplify(Or(x, Not(x))), True) {
		t.Error("x | !x must simplify to true")
	}
	if !Equal(Simplify(And(x, x, x)), x) {
		t.Error("x & x & x must simplify to x")
	}
}

func TestNNFPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		f := randFormula(r, 5, 30)
		if !enumEquivalent(t, f, NNF(f)) {
			t.Fatalf("NNF changed semantics of %v", f)
		}
	}
}

func TestNNFShape(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var check func(f Formula) bool
	check = func(f Formula) bool {
		if f.Kind() == KindNot && f.args[0].Kind() != KindVar {
			return false
		}
		for _, a := range f.args {
			if !check(a) {
				return false
			}
		}
		return true
	}
	for i := 0; i < 200; i++ {
		f := NNF(randFormula(r, 5, 30))
		if !check(f) {
			t.Fatalf("NNF left a non-atomic negation in %v", f)
		}
	}
}

func TestStringRendering(t *testing.T) {
	f := And(V(1), Or(V(2), Not(V(3))))
	if got := f.String(); got != "x1 & (x2 | !x3)" {
		t.Errorf("String: got %q", got)
	}
	if got := Not(And(V(1), V(2))).String(); got != "!(x1 & x2)" {
		t.Errorf("String: got %q", got)
	}
}

func TestEqual(t *testing.T) {
	if !Equal(And(V(1), V(2)), And(V(1), V(2))) {
		t.Error("identical formulas must be Equal")
	}
	if Equal(And(V(1), V(2)), And(V(2), V(1))) {
		t.Error("Equal is structural; operand order matters")
	}
	if Equal(V(1), Not(V(1))) {
		t.Error("x and !x must differ")
	}
}
