package sat

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestReserveClausesByteIdentity pins the capacity-only contract: a solver
// that pre-sizes its arena for the exact clause load snapshots
// byte-identically to one that grows by appending, and a reserve large
// enough for the whole load leaves exactly one slab allocation's worth of
// capacity in place (no reallocation mid-build).
func TestReserveClausesByteIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	clauses := make([][]Lit, 200)
	nLits := 0
	for i := range clauses {
		n := 1 + r.Intn(5)
		cl := make([]Lit, n)
		for j := range cl {
			l := Lit(r.Intn(40) + 1)
			if r.Intn(2) == 0 {
				l = -l
			}
			cl[j] = l
		}
		clauses[i] = cl
		nLits += n
	}
	build := func(reserve bool) *Solver {
		s := NewSolver()
		s.EnsureVars(40)
		if reserve {
			s.ReserveClauses(len(clauses), nLits)
		}
		for _, cl := range clauses {
			s.AddClause(cl...)
		}
		return s
	}
	plain, reserved := build(false), build(true)
	if !bytes.Equal(plain.Snapshot(), reserved.Snapshot()) {
		t.Fatal("ReserveClauses changed snapshot bytes")
	}
	if got, want := cap(reserved.ca.data), len(clauses)*clsHeaderWords+nLits; got < want {
		t.Fatalf("reserved capacity %d below requested %d", got, want)
	}
	// Zero/negative requests are no-ops.
	before := cap(plain.ca.data)
	plain.ReserveClauses(0, 0)
	plain.ReserveClauses(-1, -1)
	if cap(plain.ca.data) != before {
		t.Fatal("no-op reserve changed capacity")
	}
}
