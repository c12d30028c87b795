package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDIMACS reads a CNF in DIMACS format and loads its clauses into a new
// solver. Comment lines ("c ...") are ignored; the problem line
// ("p cnf <vars> <clauses>") is validated loosely (the declared counts are
// advisory). Clauses are zero-terminated literal sequences, possibly
// spanning lines.
func ParseDIMACS(r io.Reader) (*Solver, error) {
	s := NewSolver()
	if err := LoadDIMACS(r, s); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadDIMACS reads DIMACS CNF from r and adds its clauses to s.
func LoadDIMACS(r io.Reader, s *Solver) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var clause []Lit
	sawProblem := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		if strings.HasPrefix(text, "p") {
			fields := strings.Fields(text)
			if len(fields) < 4 || fields[1] != "cnf" {
				return fmt.Errorf("sat: line %d: malformed problem line %q", line, text)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return fmt.Errorf("sat: line %d: bad variable count in %q", line, text)
			}
			s.EnsureVars(nv)
			sawProblem = true
			continue
		}
		for _, tok := range strings.Fields(text) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return fmt.Errorf("sat: line %d: bad literal %q", line, tok)
			}
			if n == 0 {
				s.AddClause(clause...)
				clause = clause[:0]
				continue
			}
			clause = append(clause, Lit(n))
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("sat: reading DIMACS: %w", err)
	}
	if len(clause) > 0 {
		s.AddClause(clause...)
	}
	if !sawProblem && s.NumClauses() == 0 && s.NumVars() == 0 {
		return fmt.Errorf("sat: empty DIMACS input")
	}
	return nil
}

// WriteDIMACS writes the solver's problem clauses in DIMACS CNF format.
// Root-level unit facts (which the solver stores on the trail rather than
// in the clause database) are emitted as unit clauses, and a solver that
// has derived a top-level contradiction emits the empty clause, so the
// output is equisatisfiable with the loaded instance. Clauses of three
// or more literals follow in the order they were added, then the binary
// clauses literal by literal: a frozen solver's shared implications of
// the literal first, then the problem binaries of its watch list, each
// in list order. ResetRun keeps that order, so freezing a solver does
// not change its output.
func WriteDIMACS(w io.Writer, s *Solver) error {
	bw := bufio.NewWriter(w)
	live := 0
	for _, c := range s.clauses {
		if !s.ca.deleted(c) {
			live++
		}
	}
	rootUnits := 0
	if s.decisionLevel() == 0 {
		rootUnits = len(s.trail)
	} else {
		rootUnits = s.trailLim[0]
	}
	total := live + s.nBinary + rootUnits
	if !s.okay {
		total++
	}
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), total)
	for i := 0; i < rootUnits; i++ {
		fmt.Fprintf(bw, "%d 0\n", int32(toExternal(s.trail[i])))
	}
	for _, c := range s.clauses {
		if s.ca.deleted(c) {
			continue
		}
		for _, l := range s.ca.lits(c) {
			fmt.Fprintf(bw, "%d ", int32(toExternal(l)))
		}
		fmt.Fprintln(bw, 0)
	}
	// A problem binary (a ∨ b) is listed under ¬a with b and under ¬b
	// with a, in the implication table or as watchers; write it from the
	// list of its lower literal.
	binary := func(a, b lit) {
		if a < b {
			fmt.Fprintf(bw, "%d %d 0\n", int32(toExternal(a)), int32(toExternal(b)))
		}
	}
	for li, sp := range s.watches.spans {
		a := lit(li).flip()
		for _, b := range s.bins.of(lit(li)) {
			binary(a, b)
		}
		for _, w := range s.watches.slab[sp.off : sp.off+sp.n] {
			if w.c == crefBinary {
				binary(a, w.blocker)
			}
		}
	}
	if !s.okay {
		fmt.Fprintln(bw, 0) // empty clause: recorded contradiction
	}
	return bw.Flush()
}
