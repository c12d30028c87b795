package sat

import (
	"bufio"
	"fmt"
	"io"
	"slices"
)

// Proof records a DRAT-style clausal proof: every clause the solver
// learns is a RUP (reverse unit propagation) lemma, deletions are
// recorded so checkers can stay small, and an unsatisfiable run ends with
// the empty clause. Proof logging turns the solver's UNSAT verdicts —
// which the reasoning engine converts into "no compliant design exists"
// answers — into independently checkable artifacts.
//
// Proof logging is supported for Solve without assumptions; the engine's
// assumption-based queries are validated by re-solving instead (their
// cores are re-checked by construction, see core's tests).
type Proof struct {
	// Lemmas holds learnt clauses in derivation order. A Step with
	// Delete set records a clause deletion.
	Steps []ProofStep
}

// ProofStep is one proof line.
type ProofStep struct {
	Clause []Lit
	Delete bool
}

// AttachProof enables proof logging on a solver. It must be called before
// any Solve; the solver must be used without assumptions while logging,
// and proof logging requires clause learning (it panics under NoLearning,
// which produces no clausal derivations).
func (s *Solver) AttachProof() *Proof {
	if s.opts.NoLearning {
		panic("sat: proof logging requires clause learning")
	}
	s.proof = &Proof{}
	return s.proof
}

func (s *Solver) logLearnt(lits []lit) {
	if s.proof == nil {
		return
	}
	ext := make([]Lit, len(lits))
	for i, l := range lits {
		ext[i] = toExternal(l)
	}
	s.proof.Steps = append(s.proof.Steps, ProofStep{Clause: ext})
}

func (s *Solver) logDelete(lits []lit) {
	if s.proof == nil {
		return
	}
	ext := make([]Lit, len(lits))
	for i, l := range lits {
		ext[i] = toExternal(l)
	}
	s.proof.Steps = append(s.proof.Steps, ProofStep{Clause: ext, Delete: true})
}

func (s *Solver) logEmpty() {
	if s.proof == nil {
		return
	}
	s.proof.Steps = append(s.proof.Steps, ProofStep{})
}

// WriteDRAT writes the proof in the standard textual DRAT format.
func (p *Proof) WriteDRAT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, st := range p.Steps {
		if st.Delete {
			if _, err := bw.WriteString("d "); err != nil {
				return err
			}
		}
		for _, l := range st.Clause {
			fmt.Fprintf(bw, "%d ", int32(l))
		}
		fmt.Fprintln(bw, 0)
	}
	return bw.Flush()
}

// CheckRUP verifies the proof against the original clauses by forward RUP
// checking: each non-deletion lemma, when negated and unit-propagated over
// the accumulated formula, must yield a conflict; the proof must end with
// (or contain) the empty clause for an UNSAT verdict. It returns an error
// describing the first failing step.
//
// The checker is deliberately independent of the solver: a simple
// counter-based unit propagator over a copy of the clauses.
func CheckRUP(original [][]Lit, p *Proof) error {
	db := newRUPChecker(original)
	sawEmpty := false
	for i, st := range p.Steps {
		if st.Delete {
			db.remove(st.Clause)
			continue
		}
		if len(st.Clause) == 0 {
			sawEmpty = true
		}
		if !db.rup(st.Clause) {
			return fmt.Errorf("sat: proof step %d (%v) is not RUP", i, st.Clause)
		}
		db.add(st.Clause)
	}
	if !sawEmpty {
		return fmt.Errorf("sat: proof does not derive the empty clause")
	}
	return nil
}

// rupChecker is a tiny clause database with naive unit propagation.
type rupChecker struct {
	clauses [][]Lit
	nVars   int
}

func newRUPChecker(original [][]Lit) *rupChecker {
	c := &rupChecker{}
	for _, cl := range original {
		c.add(cl)
	}
	return c
}

// add stores a copy of cl without duplicate literals: propagation counts
// unassigned literals, so a repeated literal would keep a unit clause
// from ever looking unit.
func (c *rupChecker) add(cl []Lit) {
	cp := dedupLits(cl)
	c.clauses = append(c.clauses, cp)
	for _, l := range cp {
		if l.Var() > c.nVars {
			c.nVars = l.Var()
		}
	}
}

// dedupLits returns a copy of cl with each literal once, in first-seen
// order.
func dedupLits(cl []Lit) []Lit {
	out := make([]Lit, 0, len(cl))
	for _, l := range cl {
		if !slices.Contains(out, l) {
			out = append(out, l)
		}
	}
	return out
}

// remove deletes one clause equal (as a set) to cl.
func (c *rupChecker) remove(cl []Lit) {
	cl = dedupLits(cl)
	want := litSet(cl)
	for i, existing := range c.clauses {
		if len(existing) != len(cl) {
			continue
		}
		if setsEqual(litSet(existing), want) {
			c.clauses[i] = c.clauses[len(c.clauses)-1]
			c.clauses = c.clauses[:len(c.clauses)-1]
			return
		}
	}
	// Deleting a clause that is absent is harmless for soundness.
}

func litSet(cl []Lit) map[Lit]bool {
	m := make(map[Lit]bool, len(cl))
	for _, l := range cl {
		m[l] = true
	}
	return m
}

func setsEqual(a, b map[Lit]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for l := range a {
		if !b[l] {
			return false
		}
	}
	return true
}

// rup reports whether the clause is implied by reverse unit propagation:
// assert the negation of every literal, propagate to fixpoint, succeed on
// conflict.
func (c *rupChecker) rup(cl []Lit) bool {
	assign := map[Lit]bool{} // literal -> asserted true
	assert := func(l Lit) bool {
		if assign[l.Flip()] {
			return false // conflict
		}
		assign[l] = true
		return true
	}
	for _, l := range cl {
		if !assert(l.Flip()) {
			return true // negation already conflicts
		}
	}
	for {
		progress := false
		for _, existing := range c.clauses {
			var unassigned []Lit
			satisfied := false
			for _, l := range existing {
				switch {
				case assign[l]:
					satisfied = true
				case assign[l.Flip()]:
					// falsified literal
				default:
					unassigned = append(unassigned, l)
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				continue
			}
			switch len(unassigned) {
			case 0:
				return true // conflict: clause fully falsified
			case 1:
				if !assert(unassigned[0]) {
					return true
				}
				progress = true
			}
		}
		if !progress {
			return false
		}
	}
}
