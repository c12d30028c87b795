package logic

import (
	"math/rand"
	"reflect"
	"testing"

	"netarch/internal/sat"
)

// TestConvertEquisatisfiable checks the semantic side of Convert: the
// clauses of [f1, ..., fn], converted in order into one stream, are
// equisatisfiable with f1 ∧ ... ∧ fn, and any model of them restricted
// to the original variables satisfies every assertion (one assertion's
// aux variables must not cross-wire another's).
func TestConvertEquisatisfiable(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 120; i++ {
		const base = 4
		fs := []Formula{randFormula(r, base, 10), randFormula(r, base, 10), randFormula(r, base, 10)}
		cnf := convertAll(base, fs)
		if cnf.NumVars < base {
			t.Fatalf("iter %d: NumVars %d below base %d", i, cnf.NumVars, base)
		}
		wantSat := formulaSatisfiableBrute(And(fs...))
		gotSat, model := cnfSatisfiableBrute(cnf)
		if wantSat != gotSat {
			t.Fatalf("iter %d: conjunction sat=%v, CNF sat=%v", i, wantSat, gotSat)
		}
		if gotSat {
			for j, f := range fs {
				if !f.Eval(model) {
					t.Fatalf("iter %d: CNF model violates assertion %d: %v", i, j, f)
				}
			}
		}
	}
}

// TestConvertAuxBlocks checks the variable layout: aux variables start at
// base+1, every occurrence of a subformula gets an aux variable of its
// own, whether it repeats across assertions or inside one, and the
// returned count covers exactly base plus the total aux count.
func TestConvertAuxBlocks(t *testing.T) {
	vo := NewVocabulary()
	a, b, c, d := V(vo.Get("a")), V(vo.Get("b")), V(vo.Get("c")), V(vo.Get("d"))
	base := vo.Len()
	sub := And(a, b)
	cnf := convertAll(base, []Formula{Or(sub, c), Or(sub, d, sub)})
	maxVar := 0
	for _, cl := range cnf.Clauses {
		for _, l := range cl {
			if int(l.Var()) > maxVar {
				maxVar = int(l.Var())
			}
		}
	}
	if maxVar != cnf.NumVars {
		t.Errorf("NumVars %d but max literal var %d", cnf.NumVars, maxVar)
	}
	if cnf.NumVars != base+3 {
		t.Errorf("expected one aux var per occurrence (NumVars %d), got %d", base+3, cnf.NumVars)
	}
}

// TestConvertMatchesOffsetConverters pins what lets a compiler convert
// each assertion as soon as it is made, before it knows how many atoms
// its later assertions add: converting the assertions with their
// auxiliaries numbered from a placeholder far above the atoms, then
// renumbering those to follow the atoms (sat.Clauses.Renumber), gives
// exactly the clauses of converting them from the atom count, each
// assertion's block starting past every earlier one's.
func TestConvertMatchesOffsetConverters(t *testing.T) {
	const placeholder = 1 << 20
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		const base = 6
		fs := make([]Formula, 0, 7)
		for j := 0; j < 7; j++ {
			fs = append(fs, randFormula(r, base, 20))
		}
		want := convertAll(base, fs)
		var cs sat.Clauses
		vars := placeholder
		for _, f := range fs {
			vars = Convert(&cs, vars, f)
		}
		cs.Renumber(placeholder, base)
		if got := readClauses(&cs, vars-placeholder+base); !reflect.DeepEqual(want, got) {
			t.Fatalf("iter %d: renumbered clauses diverge:\n%v\nvs\n%v", i, got, want)
		}
	}
}

// decodeFormula reads a formula over x1..x8 from fuzz bytes, one node
// per byte: the low three bits pick the node, the rest its variable or
// arity (up to 24). Missing bytes read as x1.
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

// FuzzConvert checks Convert on arbitrary formulas over x1..x8: under
// every assignment of x1..x8 the clauses are satisfiable exactly when
// the formula is true. So the CNF is equisatisfiable with the formula,
// and every model of the CNF satisfies it.
func FuzzConvert(f *testing.F) {
	f.Add([]byte{0x04 | 3<<3, 0x00, 0x06, 0x08})
	f.Add([]byte{0x05 | 20<<3, 0x03, 0x04 | 1<<3, 0x08, 0x10, 0x06, 0x0e, 0x16})
	f.Add([]byte{0x04 | 17<<3, 0x05 | 2<<3, 0x00, 0x08, 0x03, 0x05 | 2<<3, 0x00, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		const atoms = 8
		in := decodeFormula(data)
		var cs sat.Clauses
		vars := Convert(&cs, atoms, in)
		s := sat.NewSolver()
		s.EnsureVars(vars)
		cs.Each(func(lits []sat.Lit) { s.AddClause(lits...) })
		assign := make(map[Var]bool, atoms)
		assumps := make([]sat.Lit, atoms)
		for mask := 0; mask < 1<<atoms; mask++ {
			for v := Var(1); v <= atoms; v++ {
				assign[v] = mask&(1<<(v-1)) != 0
				assumps[v-1] = sat.Lit(v)
				if !assign[v] {
					assumps[v-1] = -assumps[v-1]
				}
			}
			if got, want := s.SolveAssuming(assumps) == sat.Sat, in.Eval(assign); got != want {
				t.Fatalf("%v under %v: CNF satisfiable %v, formula %v", in, assign, got, want)
			}
		}
	})
}
