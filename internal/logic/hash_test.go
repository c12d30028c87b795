package logic

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"netarch/internal/sat"
)

// The oracle below is the String()-keyed Simplify and Tseitin converter
// that the structural hash replaced. The hashed versions must agree with
// it exactly: the same simplified formulas and byte-identical CNF.

func oracleSimplify(f Formula) Formula {
	switch f.kind {
	case KindTrue, KindFalse, KindVar:
		return f
	case KindNot:
		return Not(oracleSimplify(f.args[0]))
	case KindAnd, KindOr:
		args := make([]Formula, 0, len(f.args))
		for _, a := range f.args {
			args = append(args, oracleSimplify(a))
		}
		g := nary(f.kind, args)
		if g.kind != KindAnd && g.kind != KindOr {
			return g
		}
		return oracleDedupComplement(g)
	}
	panic("logic: invalid formula kind " + f.kind.String())
}

func oracleDedupComplement(f Formula) Formula {
	seen := make(map[string]bool, len(f.args))
	neg := make(map[string]bool, len(f.args))
	out := make([]Formula, 0, len(f.args))
	for _, a := range f.args {
		key := a.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		var nkey string
		if a.kind == KindNot {
			nkey = a.args[0].String()
		} else {
			nkey = Not(a).String()
		}
		if neg[key] || seen[nkey] {
			if f.kind == KindAnd {
				return False
			}
			return True
		}
		neg[nkey] = true
		out = append(out, a)
	}
	return nary(f.kind, out)
}

type oracleConverter struct {
	next  int // the last auxiliary variable allocated
	cnf   *CNF
	cache map[string]sat.Lit
}

// newOracleConverter numbers auxiliary variables from base+1, as a
// Converter over a CNF of base variables does.
func newOracleConverter(base int) *oracleConverter {
	return &oracleConverter{next: base, cnf: &CNF{NumVars: base}, cache: make(map[string]sat.Lit)}
}

func (cv *oracleConverter) Assert(f Formula) {
	f = oracleSimplify(f)
	switch f.kind {
	case KindTrue:
		return
	case KindFalse:
		cv.cnf.AddClause()
		return
	case KindAnd:
		for _, a := range f.args {
			cv.Assert(a)
		}
		return
	}
	if f.kind == KindOr {
		clause := make(Clause, 0, len(f.args))
		for _, a := range f.args {
			clause = append(clause, cv.lit(a))
		}
		cv.cnf.AddClause(clause...)
		return
	}
	cv.cnf.AddClause(cv.lit(f))
}

func (cv *oracleConverter) fresh() sat.Lit {
	cv.next++
	if cv.next > cv.cnf.NumVars {
		cv.cnf.NumVars = cv.next
	}
	return sat.Lit(cv.next)
}

func (cv *oracleConverter) lit(f Formula) sat.Lit {
	switch f.kind {
	case KindVar:
		return sat.Lit(f.v)
	case KindNot:
		return cv.negLit(f.args[0])
	case KindTrue, KindFalse:
		d := cv.fresh()
		if f.kind == KindTrue {
			cv.cnf.AddClause(d)
		} else {
			cv.cnf.AddClause(-d)
		}
		return d
	}
	key := f.String()
	if l, ok := cv.cache[key]; ok {
		return l
	}
	d := cv.fresh()
	switch f.kind {
	case KindAnd:
		for _, a := range f.args {
			cv.cnf.AddClause(-d, cv.lit(a))
		}
	case KindOr:
		clause := Clause{-d}
		for _, a := range f.args {
			clause = append(clause, cv.lit(a))
		}
		cv.cnf.AddClause(clause...)
	}
	cv.cache[key] = d
	return d
}

func (cv *oracleConverter) negLit(f Formula) sat.Lit {
	switch f.kind {
	case KindVar:
		return -sat.Lit(f.v)
	case KindNot:
		return cv.lit(f.args[0])
	}
	return cv.lit(NNF(Not(f)))
}

// diffGen builds seeded random formulas aimed at the dedup and cache
// paths: deep chains, operands repeated and complemented from a pool of
// earlier subformulas, negated connectives, and nodes wider than
// smallArity.
type diffGen struct {
	r    *rand.Rand
	nv   int
	pool []Formula
}

func (g *diffGen) leaf() Formula {
	switch g.r.Intn(12) {
	case 0:
		return True
	case 1:
		return False
	}
	x := V(Var(g.r.Intn(g.nv) + 1))
	if g.r.Intn(2) == 0 {
		return Not(x)
	}
	return x
}

func (g *diffGen) formula(depth int) Formula {
	if depth == 0 || g.r.Intn(8) == 0 {
		return g.leaf()
	}
	var f Formula
	switch g.r.Intn(10) {
	case 0, 1: // an earlier subformula again, or its complement
		if len(g.pool) > 0 {
			p := g.pool[g.r.Intn(len(g.pool))]
			if g.r.Intn(2) == 0 {
				return Not(p)
			}
			return p
		}
		f = Not(g.formula(depth - 1))
	case 2: // a negated connective
		f = Not(g.node(2+g.r.Intn(3), depth-1))
	case 3: // a deep chain alternating leaves and the rest
		f = g.leaf()
		for i, n := 0, 20+g.r.Intn(60); i < n; i++ {
			if g.r.Intn(2) == 0 {
				f = And(g.leaf(), f)
			} else {
				f = Or(f, g.leaf())
			}
		}
	case 4: // wider than the pairwise cut-off
		f = g.wide(smallArity + 1 + g.r.Intn(24))
	default:
		f = g.node(2+g.r.Intn(4), depth-1)
	}
	g.pool = append(g.pool, f)
	return f
}

// wide returns an n-ary node whose operands are mostly small positive
// connectives, repeated often enough to exercise dedup but distinct
// enough that the node can stay wide; an occasional pool operand may
// complement another and collapse it.
func (g *diffGen) wide(n int) Formula {
	and := g.r.Intn(2) == 0
	args := make([]Formula, n)
	for i := range args {
		if g.r.Intn(16) == 0 {
			args[i] = g.formula(1)
			continue
		}
		x, y := V(Var(g.r.Intn(g.nv)+1)), V(Var(g.r.Intn(g.nv)+1))
		if and {
			args[i] = Or(x, y)
		} else {
			args[i] = And(x, y)
		}
	}
	if and {
		return And(args...)
	}
	return Or(args...)
}

func (g *diffGen) node(n, depth int) Formula {
	args := make([]Formula, n)
	for i := range args {
		args[i] = g.formula(depth)
	}
	if g.r.Intn(2) == 0 {
		return And(args...)
	}
	return Or(args...)
}

func TestSimplifyMatchesStringKeyedOracle(t *testing.T) {
	wide := 0
	for seed := int64(1); seed <= 40; seed++ {
		g := &diffGen{r: rand.New(rand.NewSource(seed)), nv: 3 + int(seed%10)}
		for i := 0; i < 50; i++ {
			f := g.formula(5)
			got, want := Simplify(f), oracleSimplify(f)
			if !Equal(got, want) || got.String() != want.String() {
				t.Fatalf("seed %d #%d: Simplify(%v)\n got %v\nwant %v", seed, i, f, got, want)
			}
			if maxArity(want) > smallArity {
				wide++
			}
		}
	}
	t.Logf("%d of 2000 results keep a node wider than smallArity", wide)
	if wide < 100 {
		t.Fatalf("only %d results keep a node wider than smallArity", wide)
	}
	// Nodes wider than maxStackArity take the heap-allocated table. Odd
	// seeds negate some leaves, so their nodes collapse on a complement;
	// even seeds keep every leaf positive, so only duplicates drop.
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		args := make([]Formula, maxStackArity+1+r.Intn(maxStackArity))
		for i := range args {
			x := V(Var(r.Intn(40) + 1))
			switch {
			case r.Intn(2) == 0:
				args[i] = And(x, V(Var(r.Intn(40)+1)))
			case seed%2 == 1 && r.Intn(2) == 0:
				args[i] = Not(x)
			default:
				args[i] = x
			}
		}
		f := Or(args...)
		if got, want := Simplify(f), oracleSimplify(f); !Equal(got, want) || got.String() != want.String() {
			t.Fatalf("seed %d: Simplify of an arity-%d node\n got %v\nwant %v", seed, len(f.args), got, want)
		}
	}
}

// nodes returns the number of nodes in f's tree.
func nodes(f Formula) int {
	n := 1
	for _, a := range f.args {
		n += nodes(a)
	}
	return n
}

func maxArity(f Formula) int {
	n := len(f.args)
	for _, a := range f.args {
		n = max(n, maxArity(a))
	}
	return n
}

func TestConverterMatchesStringKeyedOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		g := &diffGen{r: rand.New(rand.NewSource(seed)), nv: 4 + int(seed%8)}
		cv, ocv := &Converter{CNF: &CNF{NumVars: g.nv}}, newOracleConverter(g.nv)
		for i := 0; i < 30; i++ {
			f := g.formula(5)
			cv.Assert(f)
			ocv.Assert(f)
		}
		if !reflect.DeepEqual(cv.CNF, ocv.cnf) {
			t.Fatalf("seed %d: CNF differs from the String()-keyed converter (%d/%d vars, %d/%d clauses)",
				seed, cv.CNF.NumVars, ocv.cnf.NumVars, len(cv.CNF.Clauses), len(ocv.cnf.Clauses))
		}
	}
}

// TestHashCollisionKeepsDistinct forces two different connectives to
// share a hash: neither dedup path may merge them or read one as the
// other's complement, each must still find its own repeat, and the
// converter must define each once.
func TestHashCollisionKeepsDistinct(t *testing.T) {
	a, b := And(V(1), V(2)), And(V(1), V(3))
	b.v = a.v // overwrite the hash word
	if Equal(a, b) {
		t.Fatal("Equal must look past a shared hash")
	}
	for _, pad := range []int{0, smallArity} { // pairwise scan, then the table
		args := []Formula{a, b, b, a}
		for i := 0; i < pad; i++ {
			args = append(args, V(Var(10+i)))
		}
		if got := Simplify(Or(args...)); len(got.args) != len(args)-2 {
			t.Errorf("%d operands: want a and b kept once each, got %v", len(args), got)
		}
		args[1], args[2] = Not(b), Not(b) // hashes like ¬a
		if got := Simplify(Or(args...)); len(got.args) != len(args)-2 {
			t.Errorf("%d operands: want a and !b kept once each, got %v", len(args), got)
		}
	}

	cv, ocv := &Converter{CNF: &CNF{NumVars: 3}}, newOracleConverter(3)
	for _, f := range []Formula{Or(a, b), Or(b, a, V(3))} {
		cv.Assert(f)
		ocv.Assert(f)
	}
	if cv.CNF.NumVars != 5 || !reflect.DeepEqual(cv.CNF, ocv.cnf) {
		t.Errorf("colliding nodes need one definition each: got %v over %d vars, want %v",
			cv.CNF, cv.CNF.NumVars, ocv.cnf)
	}
}

// TestFormulaSize pins a Formula at 32 bytes: the hash lives in the
// variable word, so hashing adds no field.
func TestFormulaSize(t *testing.T) {
	if n := unsafe.Sizeof(Formula{}); n != 32 {
		t.Fatalf("Formula is %d bytes, want 32", n)
	}
}

// TestSimplifyAllocFree pins that simplifying an already-simplified
// formula allocates nothing, which is what keeps Converter.Assert's
// per-conjunct pass cheap: both for a formula whose nodes dedupComplement
// scans pairwise and for one with a node wider than smallArity, which
// goes through its stack-allocated hash table.
func TestSimplifyAllocFree(t *testing.T) {
	g := &diffGen{r: rand.New(rand.NewSource(7)), nv: 12}
	args := make([]Formula, 0, 12)
	for len(args) < cap(args) {
		f := Simplify(g.node(2+g.r.Intn(4), 4))
		if f.kind != KindAnd && !f.IsConst() && maxArity(f) <= smallArity/2 {
			args = append(args, f)
		}
	}
	narrow := Simplify(Or(Not(And(args[:6]...)), And(args[6:]...)))
	if nodes(narrow) < 50 || maxArity(narrow) > smallArity {
		t.Fatalf("narrow test formula is too small or too wide: %v", narrow)
	}
	lits := make([]Formula, 0, 3*smallArity)
	for v := 1; len(lits) < cap(lits); v++ {
		x := V(Var(v))
		if v%3 == 0 {
			x = Not(x)
		}
		lits = append(lits, x)
	}
	wide := Simplify(And(args[0], Or(lits...)))
	if maxArity(wide) <= smallArity {
		t.Fatalf("wide test formula has no node wider than %d: %v", smallArity, wide)
	}
	for _, f := range []Formula{narrow, wide} {
		allocs := testing.AllocsPerRun(100, func() {
			if g := Simplify(f); !Equal(g, f) {
				t.Fatal("Simplify of a simplified formula must return it")
			}
		})
		if allocs != 0 {
			t.Fatalf("Simplify of a simplified formula of arity %d: %.0f allocs/run, want 0",
				maxArity(f), allocs)
		}
	}
}

// decodeFormula reads a formula over x1..x8 from fuzz bytes, one node
// per byte: the low three bits pick the node, the rest its variable or
// arity (up to 24, past smallArity). Missing bytes read as x1.
func decodeFormula(data []byte) Formula {
	pos := 0
	var dec func(depth int) Formula
	dec = func(depth int) Formula {
		if pos >= len(data) {
			return V(1)
		}
		b := data[pos]
		pos++
		x := V(Var(b>>3%8 + 1))
		if depth >= 12 {
			return x
		}
		switch b % 8 {
		case 3:
			return Not(dec(depth + 1))
		case 4, 5:
			args := make([]Formula, int(b>>3)%24+1)
			for i := range args {
				args[i] = dec(depth + 1)
			}
			if b%8 == 4 {
				return And(args...)
			}
			return Or(args...)
		case 6:
			return Not(x)
		case 7:
			if b&8 != 0 {
				return True
			}
			return False
		}
		return x
	}
	return dec(0)
}

func FuzzSimplify(f *testing.F) {
	f.Add([]byte{0x04 | 3<<3, 0x00, 0x06, 0x08})
	f.Add([]byte{0x05 | 20<<3, 0x03, 0x04 | 1<<3, 0x08, 0x10, 0x06, 0x0e, 0x16})
	f.Add([]byte{0x04 | 17<<3, 0x05 | 2<<3, 0x00, 0x08, 0x03, 0x05 | 2<<3, 0x00, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeFormula(data)
		out := Simplify(in)
		if again := Simplify(out); !Equal(again, out) {
			t.Fatalf("not idempotent: %v -> %v -> %v", in, out, again)
		}
		if want := oracleSimplify(in); !Equal(out, want) {
			t.Fatalf("Simplify(%v) = %v, String()-keyed oracle gives %v", in, out, want)
		}
		assign := make(map[Var]bool, 8)
		for mask := 0; mask < 1<<8; mask++ {
			for v := Var(1); v <= 8; v++ {
				assign[v] = mask&(1<<(v-1)) != 0
			}
			if in.Eval(assign) != out.Eval(assign) {
				t.Fatalf("Simplify(%v) = %v differs under %v", in, out, assign)
			}
		}
	})
}
