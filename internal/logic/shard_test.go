package logic

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestConvertShardsWorkerInvariance pins the determinism contract: the
// merged CNF — clause content, clause order, every literal — must be
// byte-identical for every worker count. The compiled-base byte-identity
// differential in core rides on this.
func TestConvertShardsWorkerInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		const base = 5
		fs := make([]Formula, 0, 9)
		for j := 0; j < 9; j++ {
			fs = append(fs, randFormula(r, base, 20))
		}
		want := ConvertShards(base, fs, 1)
		for _, w := range []int{2, 3, 8, 16} {
			got := ConvertShards(base, fs, w)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("iter %d: workers=%d diverges from sequential:\n%v\nvs\n%v",
					i, w, got, want)
			}
		}
	}
}

// TestConvertShardsEquisatisfiable checks the semantic side of the merge:
// the sharded CNF of [f1, ..., fn] is equisatisfiable with f1 ∧ ... ∧ fn,
// and any CNF model restricted to the original variables satisfies every
// assertion (aux-variable renumbering must not cross-wire shards).
func TestConvertShardsEquisatisfiable(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 120; i++ {
		const base = 4
		fs := []Formula{randFormula(r, base, 10), randFormula(r, base, 10), randFormula(r, base, 10)}
		cnf := ConvertShards(base, fs, 2)
		if cnf.NumVars < base {
			t.Fatalf("iter %d: NumVars %d below base %d", i, cnf.NumVars, base)
		}
		wantSat := formulaSatisfiableBrute(And(fs...))
		gotSat, model := cnfSatisfiableBrute(cnf)
		if wantSat != gotSat {
			t.Fatalf("iter %d: conjunction sat=%v, sharded CNF sat=%v", i, wantSat, gotSat)
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

// TestConvertShardsAuxBlocks checks the variable layout: shard i's aux
// variables occupy one contiguous block right after the blocks of shards
// 0..i-1, starting at base+1, and NumVars covers exactly base plus the
// total aux count.
func TestConvertShardsAuxBlocks(t *testing.T) {
	vo := NewVocabulary()
	a, b, c, d := vo.Atom("a"), vo.Atom("b"), vo.Atom("c"), vo.Atom("d")
	base := vo.Len()
	// Each Iff produces aux definitions; the same subformula in two
	// assertions must get distinct (per-shard) aux variables.
	sub := And(a, b)
	fs := []Formula{Or(sub, c), Or(sub, d)}
	cnf := ConvertShards(base, fs, 2)
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
	if cnf.NumVars <= base+1 {
		t.Errorf("expected one aux var per shard (NumVars > %d), got %d", base+1, cnf.NumVars)
	}
}

// TestConvertShardsMatchesOffsetConverters pins the in-place aux
// renaming: converting each assertion on its own converter whose aux
// numbering starts past every earlier assertion's block, and
// concatenating the clauses, must give exactly the merged CNF.
func TestConvertShardsMatchesOffsetConverters(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		const base = 6
		fs := make([]Formula, 0, 7)
		for j := 0; j < 7; j++ {
			fs = append(fs, randFormula(r, base, 20))
		}
		want := &CNF{NumVars: base, Clauses: []Clause{}}
		for _, f := range fs {
			cv := &Converter{CNF: &CNF{NumVars: want.NumVars}}
			cv.Assert(f)
			want.Clauses = append(want.Clauses, cv.CNF.Clauses...)
			want.NumVars = cv.CNF.NumVars
		}
		if got := ConvertShards(base, fs, 3); !reflect.DeepEqual(want, got) {
			t.Fatalf("iter %d: merged CNF diverges from offset converters:\n%v\nvs\n%v", i, got, want)
		}
	}
}
