package sat

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseDIMACSBasic(t *testing.T) {
	in := `c a comment
p cnf 3 2
1 -2 0
2 3 0
`
	s, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() != 3 || s.NumClauses() != 2 {
		t.Fatalf("got %d vars %d clauses", s.NumVars(), s.NumClauses())
	}
	if s.Solve() != Sat {
		t.Fatal("want SAT")
	}
}

func TestParseDIMACSMultilineClause(t *testing.T) {
	in := "p cnf 4 1\n1 2\n3 4 0\n"
	s, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumClauses() != 1 {
		t.Fatalf("clause spanning lines: got %d clauses, want 1", s.NumClauses())
	}
}

func TestParseDIMACSTrailingClause(t *testing.T) {
	// Final clause missing its 0 terminator is accepted.
	in := "p cnf 2 1\n1 2\n"
	s, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumClauses() != 1 {
		t.Fatalf("got %d clauses, want 1", s.NumClauses())
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := []string{
		"p cnf x 2\n1 0\n",
		"p dnf 2 1\n1 0\n",
		"p cnf 2 1\none 0\n",
		"",
	}
	for _, in := range cases {
		if _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	s := NewSolver()
	s.EnsureVars(4)
	s.AddClause(1, -2)
	s.AddClause(2, 3, -4)
	s.AddClause(-1, 4)

	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumClauses() != s.NumClauses() {
		t.Fatalf("roundtrip clause count: got %d, want %d", s2.NumClauses(), s.NumClauses())
	}
	if s.Solve() != s2.Solve() {
		t.Error("roundtrip changed satisfiability")
	}
}

func TestHeapOrdering(t *testing.T) {
	act := []float64{5, 1, 9, 3, 7}
	h := &varHeap{activity: &act}
	for v := range act {
		h.insert(v)
	}
	want := []int{2, 4, 0, 3, 1}
	for i, w := range want {
		if h.empty() {
			t.Fatalf("heap empty at pop %d", i)
		}
		if got := h.removeMax(); got != w {
			t.Fatalf("pop %d: got %d, want %d", i, got, w)
		}
	}
	if !h.empty() {
		t.Error("heap should be empty")
	}
}

func TestHeapUpdateAndReinsert(t *testing.T) {
	act := []float64{1, 2, 3}
	h := &varHeap{activity: &act}
	for v := range act {
		h.insert(v)
	}
	act[0] = 100
	h.update(0)
	if got := h.removeMax(); got != 0 {
		t.Fatalf("after update, max should be var 0, got %d", got)
	}
	h.insert(0) // reinsert
	if got := h.removeMax(); got != 0 {
		t.Fatalf("after reinsert, max should be var 0, got %d", got)
	}
	h.insert(0)
	h.insert(0) // duplicate insert must be a no-op
	h.removeMax()
	if h.contains(0) {
		t.Error("duplicate insert corrupted the heap")
	}
}
