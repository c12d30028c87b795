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
// base+1, a subformula shared by two assertions gets one aux variable in
// each (the Tseitin cache is per Convert call), and the returned count
// covers exactly base plus the total aux count.
func TestConvertAuxBlocks(t *testing.T) {
	vo := NewVocabulary()
	a, b, c, d := V(vo.Get("a")), V(vo.Get("b")), V(vo.Get("c")), V(vo.Get("d"))
	base := vo.Len()
	sub := And(a, b)
	cnf := convertAll(base, []Formula{Or(sub, c), Or(sub, d)})
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
	if cnf.NumVars != base+2 {
		t.Errorf("expected one aux var per assertion (NumVars %d), got %d", base+2, cnf.NumVars)
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
