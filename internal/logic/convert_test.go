package logic

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestConvertEquisatisfiable checks the semantic side of Convert: the
// CNF of [f1, ..., fn] is equisatisfiable with f1 ∧ ... ∧ fn, and any
// CNF model restricted to the original variables satisfies every
// assertion (one assertion's aux variables must not cross-wire another's).
func TestConvertEquisatisfiable(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 120; i++ {
		const base = 4
		fs := []Formula{randFormula(r, base, 10), randFormula(r, base, 10), randFormula(r, base, 10)}
		cnf := Convert(base, fs)
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
// each (the Tseitin cache is per assertion), and NumVars covers exactly
// base plus the total aux count.
func TestConvertAuxBlocks(t *testing.T) {
	vo := NewVocabulary()
	a, b, c, d := V(vo.Get("a")), V(vo.Get("b")), V(vo.Get("c")), V(vo.Get("d"))
	base := vo.Len()
	sub := And(a, b)
	fs := []Formula{Or(sub, c), Or(sub, d)}
	cnf := Convert(base, fs)
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

// TestConvertMatchesOffsetConverters pins the compiled bases' encoding:
// converting each assertion into its own CNF whose aux numbering starts
// past every earlier assertion's block, and concatenating the clauses,
// must give exactly Convert's CNF. A Tseitin cache shared across
// assertions would fail it.
func TestConvertMatchesOffsetConverters(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		const base = 6
		fs := make([]Formula, 0, 7)
		for j := 0; j < 7; j++ {
			fs = append(fs, randFormula(r, base, 20))
		}
		want := &CNF{NumVars: base}
		for _, f := range fs {
			cv := &Converter{CNF: &CNF{NumVars: want.NumVars}}
			cv.Assert(f)
			want.Clauses = append(want.Clauses, cv.CNF.Clauses...)
			want.NumVars = cv.CNF.NumVars
		}
		if got := Convert(base, fs); !reflect.DeepEqual(want, got) {
			t.Fatalf("iter %d: CNF diverges from offset converters:\n%v\nvs\n%v", i, got, want)
		}
	}
}
