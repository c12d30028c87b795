package sat

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// solveWithProof loads the clauses, solves with logging, and returns the
// proof plus the status.
func solveWithProof(clauses [][]Lit, nVars int) (*Proof, Status, *Solver) {
	s := NewSolver()
	p := s.AttachProof()
	s.EnsureVars(nVars)
	for _, c := range clauses {
		s.AddClause(c...)
	}
	return p, s.Solve(), s
}

func TestProofPigeonholeVerifies(t *testing.T) {
	for n := 3; n <= 6; n++ {
		var clauses [][]Lit
		v := func(pn, h int) Lit { return Lit(pn*n + h + 1) }
		for pn := 0; pn < n+1; pn++ {
			var c []Lit
			for h := 0; h < n; h++ {
				c = append(c, v(pn, h))
			}
			clauses = append(clauses, c)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 < n+1; p1++ {
				for p2 := p1 + 1; p2 < n+1; p2++ {
					clauses = append(clauses, []Lit{-v(p1, h), -v(p2, h)})
				}
			}
		}
		proof, st, _ := solveWithProof(clauses, (n+1)*n)
		if st != Unsat {
			t.Fatalf("PHP(%d+1,%d): want UNSAT", n, n)
		}
		if err := CheckRUP(clauses, proof); err != nil {
			t.Fatalf("PHP(%d+1,%d): proof rejected: %v", n, n, err)
		}
	}
}

func TestProofRandomUnsatVerifies(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	verified := 0
	for i := 0; i < 120 && verified < 25; i++ {
		nv := 6 + r.Intn(6)
		clauses := randomInstance(r, nv, nv*6, 3)
		proof, st, _ := solveWithProof(clauses, nv)
		if st != Unsat {
			continue
		}
		verified++
		if err := CheckRUP(clauses, proof); err != nil {
			t.Fatalf("instance %d: proof rejected: %v", i, err)
		}
	}
	if verified == 0 {
		t.Fatal("no UNSAT instances drawn; adjust generator")
	}
}

func TestProofCorruptionDetected(t *testing.T) {
	// A proof for one instance must not verify against a different one.
	clauses := [][]Lit{{1, 2}, {-1, 2}, {1, -2}, {-1, -2}}
	proof, st, _ := solveWithProof(clauses, 2)
	if st != Unsat {
		t.Fatal("want UNSAT")
	}
	if err := CheckRUP(clauses, proof); err != nil {
		t.Fatalf("genuine proof rejected: %v", err)
	}
	// Remove a needed original clause: the proof must now fail.
	if err := CheckRUP(clauses[:3], proof); err == nil {
		t.Error("proof must fail against a weaker formula")
	}
	// Inject a bogus lemma at the front: not RUP.
	bogus := &Proof{Steps: append([]ProofStep{{Clause: []Lit{3}}}, proof.Steps...)}
	if err := CheckRUP(clauses, bogus); err == nil {
		t.Error("bogus lemma must be rejected")
	}
	// A proof missing the empty clause is incomplete.
	var trimmed Proof
	for _, stp := range proof.Steps {
		if len(stp.Clause) != 0 || stp.Delete {
			trimmed.Steps = append(trimmed.Steps, stp)
		}
	}
	if err := CheckRUP(clauses, &trimmed); err == nil ||
		!strings.Contains(err.Error(), "empty clause") {
		t.Errorf("incomplete proof must be rejected, got %v", err)
	}
}

// TestCheckRUPDuplicateLiterals pins the checker's set semantics: a
// literal repeated in an input clause counts once, so {1,1} is the unit
// clause {1}, and a deletion line with a repeated literal removes the
// stored clause it names.
func TestCheckRUPDuplicateLiterals(t *testing.T) {
	original := [][]Lit{{1, 1}, {-1, 2}, {-1, -2}}
	if err := CheckRUP(original, &Proof{Steps: []ProofStep{{Clause: []Lit{}}}}); err != nil {
		t.Fatalf("{1,1} should propagate as a unit: %v", err)
	}
	deleted := &Proof{Steps: []ProofStep{
		{Clause: []Lit{-1, 2, 2}, Delete: true},
		{Clause: []Lit{}},
	}}
	if err := CheckRUP(original, deleted); err == nil {
		t.Fatal("after deleting {-1,2} the empty clause is not RUP, but the proof was accepted")
	}
}

func TestProofDeletionsDoNotBreakChecking(t *testing.T) {
	// Force clause-DB reductions during an UNSAT solve and verify the
	// proof still checks with its deletion lines.
	r := rand.New(rand.NewSource(5))
	nv := 16
	clauses := randomInstance(r, nv, nv*7, 3)
	s := NewSolver()
	p := s.AttachProof()
	s.maxLearnts = 8 // aggressive reduction
	s.EnsureVars(nv)
	for _, c := range clauses {
		s.AddClause(c...)
	}
	if st := s.Solve(); st != Unsat {
		t.Skip("instance drew SAT; deletion path untested here")
	}
	hasDelete := false
	for _, stp := range p.Steps {
		if stp.Delete {
			hasDelete = true
		}
	}
	if err := CheckRUP(clauses, p); err != nil {
		t.Fatalf("proof with deletions rejected (deletions present: %v): %v", hasDelete, err)
	}
}

func TestWriteDRATFormat(t *testing.T) {
	p := &Proof{Steps: []ProofStep{
		{Clause: []Lit{1, -2}},
		{Clause: []Lit{1, -2}, Delete: true},
		{},
	}}
	var buf bytes.Buffer
	if err := p.WriteDRAT(&buf); err != nil {
		t.Fatal(err)
	}
	want := "1 -2 0\nd 1 -2 0\n0\n"
	if buf.String() != want {
		t.Errorf("DRAT output:\n%q\nwant\n%q", buf.String(), want)
	}
}

func TestAttachProofPanicsWithoutLearning(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AttachProof under NoLearning must panic")
		}
	}()
	NewSolverOpts(Options{NoLearning: true}).AttachProof()
}

func TestProofEmptyOnAddClauseConflict(t *testing.T) {
	s := NewSolver()
	p := s.AttachProof()
	s.AddClause(1)
	s.AddClause(-1)
	if s.Solve() != Unsat {
		t.Fatal("want UNSAT")
	}
	if err := CheckRUP([][]Lit{{1}, {-1}}, p); err != nil {
		t.Fatalf("unit-conflict proof rejected: %v", err)
	}
}

func TestEmptyAddClausePoisonsAndLogsEmptyStep(t *testing.T) {
	// Documents the contract the enumeration loop must respect: a clause
	// with zero literals is the empty clause — it flips the solver to
	// not-okay (every later Solve answers Unsat without searching) and,
	// under proof logging, lands as the terminal empty proof step. An
	// AllSAT loop that blocks an empty projection this way poisons its
	// solver and pollutes the proof, which is why core's enumerator
	// terminates the empty-vocabulary case without emitting the clause.
	s := NewSolver()
	p := s.AttachProof()
	s.AddClause(1, 2)
	if s.Solve() != Sat {
		t.Fatal("setup solve must be Sat")
	}
	if ok := s.AddClause(); ok {
		t.Fatal("empty AddClause must report unsatisfiability")
	}
	if s.Okay() {
		t.Fatal("empty AddClause must poison the solver (okay=false)")
	}
	if s.Solve() != Unsat {
		t.Fatal("poisoned solver must answer Unsat")
	}
	last := p.Steps[len(p.Steps)-1]
	if len(last.Clause) != 0 || last.Delete {
		t.Fatalf("last proof step = %+v, want the empty clause", last)
	}
	if err := CheckRUP([][]Lit{{1, 2}, {}}, p); err != nil {
		t.Fatalf("proof with explicit empty original rejected: %v", err)
	}
}
