package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"netarch/internal/kb"
	"netarch/internal/sat"
)

// Suggestion is a minimal correction set: a smallest set of relaxable
// requirements whose removal makes the scenario feasible. The §6 vision —
// "if there are no viable solutions, the reasoning framework should tell
// the architect which of their requirements are in conflict" — covers
// both naming the conflict (Explain) and proposing what to give up
// (Suggest).
type Suggestion struct {
	// Drop lists the requirement groups to relax, with provenance notes.
	Drop []ConflictItem
	// Witness is a design that becomes feasible after relaxing them.
	Witness *Design
}

// String renders the suggestion.
func (s *Suggestion) String() string {
	var b strings.Builder
	b.WriteString("relax:\n")
	for _, c := range s.Drop {
		fmt.Fprintf(&b, "  - %s", c.Name)
		if c.Note != "" {
			fmt.Fprintf(&b, " (%s)", c.Note)
		}
		b.WriteString("\n")
	}
	if s.Witness != nil {
		fmt.Fprintf(&b, "then feasible with: %s\n", strings.Join(s.Witness.Systems, " "))
	}
	return b.String()
}

// relaxable reports whether a selector represents an architect-supplied
// requirement (which may be negotiated away) as opposed to a fact about
// the world (which may not).
func relaxable(name string) bool {
	for _, prefix := range []string{
		"context:", "pin:", "forbid:", "workload:", "require:", "bound:", "budget:",
	} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// Suggest computes up to max distinct minimal correction sets for an
// infeasible scenario. It returns nil (no error) when the scenario is
// already feasible. When even the non-relaxable facts conflict on their
// own, it returns an error — the knowledge base itself is contradictory,
// which Suggest cannot fix.
func (e *Engine) Suggest(sc Scenario, max int) ([]*Suggestion, error) {
	return e.SuggestCtx(context.Background(), sc, max, Budget{})
}

// SuggestCtx is Suggest under a context and resource budget. Each grow
// pass gets a fresh phase allowance. When a budget trips before
// feasibility of the scenario (or of the hard facts alone) is settled,
// it returns *ErrResourceExhausted; when it trips mid-enumeration, the
// correction sets found so far are returned alongside the typed error —
// partial suggestions are still useful.
func (e *Engine) SuggestCtx(ctx context.Context, sc Scenario, max int, b Budget) ([]*Suggestion, error) {
	c, g, err := e.begin(ctx, "suggest", sc, b, nil)
	if err != nil {
		return nil, err
	}
	defer g.done()
	switch c.solver.SolveAssuming(c.assumptions()) {
	case sat.Sat:
		return nil, nil
	case sat.Unsat:
	default:
		g.trip(c.solver.StopCause())
		return nil, g.exhausted()
	}

	var hard, soft []selector
	for _, s := range c.selectors {
		if relaxable(s.name) {
			soft = append(soft, s)
		} else {
			hard = append(hard, s)
		}
	}
	hardLits := make([]sat.Lit, len(hard))
	for i, s := range hard {
		hardLits[i] = s.lit
	}
	g.phase()
	switch c.solver.SolveAssuming(hardLits) {
	case sat.Sat:
	case sat.Unsat:
		return nil, fmt.Errorf("core: the knowledge base is infeasible even without architect requirements")
	default:
		g.trip(c.solver.StopCause())
		return nil, g.exhausted()
	}

	var out []*Suggestion
	blocked := map[string]bool{}
	// Enumerate correction sets by rotating which soft selector the grow
	// phase tries first; dedupe by the dropped-set key.
	for start := 0; start < len(soft) && len(out) < max; start++ {
		g.phase() // fresh allowance per grow pass
		mcs, witness, ok := c.growMSS(hardLits, soft, start)
		if !ok {
			// Budget tripped mid-grow: hand back what we have, typed.
			sortSuggestions(out)
			g.trip(c.solver.StopCause())
			return out, g.exhausted()
		}
		if len(mcs) == 0 {
			continue
		}
		key := mcsKey(mcs)
		if blocked[key] {
			continue
		}
		blocked[key] = true
		sug := &Suggestion{Witness: witness}
		for _, s := range mcs {
			sug.Drop = append(sug.Drop, ConflictItem{Name: s.name, Note: s.note})
		}
		sort.Slice(sug.Drop, func(i, j int) bool { return sug.Drop[i].Name < sug.Drop[j].Name })
		out = append(out, sug)
	}
	sortSuggestions(out)
	return out, nil
}

func sortSuggestions(out []*Suggestion) {
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Drop) != len(out[j].Drop) {
			return len(out[i].Drop) < len(out[j].Drop)
		}
		return fmt.Sprint(out[i].Drop) < fmt.Sprint(out[j].Drop)
	})
}

// growMSS grows a maximal satisfiable subset of the soft selectors
// (starting the scan at index start) and returns the complement (the
// correction set) plus a witness design for the relaxed scenario. The
// bool result is false when a resource budget tripped mid-grow, in which
// case the returned set would be incomplete and must not be used.
func (c *compiled) growMSS(hardLits []sat.Lit, soft []selector, start int) ([]selector, *Design, bool) {
	kept := append([]sat.Lit(nil), hardLits...)
	inMSS := make([]bool, len(soft))
	var witness *Design
	for i := 0; i < len(soft); i++ {
		idx := (start + i) % len(soft)
		trial := append(append([]sat.Lit(nil), kept...), soft[idx].lit)
		switch c.solver.SolveAssuming(trial) {
		case sat.Sat:
			kept = trial
			inMSS[idx] = true
			witness = c.designFromModel()
		case sat.Unsat:
			// soft[idx] conflicts with the kept set: leave it out.
		default:
			return nil, nil, false
		}
	}
	var mcs []selector
	for i, s := range soft {
		if !inMSS[i] {
			mcs = append(mcs, s)
		}
	}
	return mcs, witness, true
}

func mcsKey(mcs []selector) string {
	names := make([]string, len(mcs))
	for i, s := range mcs {
		names[i] = s.name
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// Disambiguation describes where the solution space still forks — the §6
// ask: "identify a minimal-effort ordering for the architect to provide
// to make the solution unique … identify equivalence classes of system
// deployments, rather than simply returning an arbitrary but compliant
// solution".
type Disambiguation struct {
	// Classes is the number of distinct compliant system sets found
	// (capped by the enumeration limit).
	Classes int
	// Forks lists, per role, the alternative systems the classes split
	// over, plus the order dimensions that could discriminate them and
	// whether those orders already rank the alternatives.
	Forks []Fork
	// FreeAtoms lists context atoms whose value differs across designs:
	// pinning them is zero-cost disambiguation.
	FreeAtoms []string
	// Incomplete reports that the underlying enumeration stopped before
	// provably covering the design space — the class limit was hit or a
	// resource budget tripped — so further classes (and hence further
	// forks and free atoms) may exist beyond what this report covers. A
	// report with Incomplete false is a complete disambiguation: every
	// compliant class was considered.
	Incomplete bool
}

// Fork is one undecided role choice.
type Fork struct {
	Role kb.Role
	// Alternatives are the systems that appear in some but not all
	// compliant designs for this role.
	Alternatives []string
	// Dimensions lists order dimensions covering at least two of the
	// alternatives; Unranked lists alternative pairs no dimension
	// relates — the measurements worth making (§3.1: an experiment is
	// only needed if the answer changes the final design).
	Dimensions []string
	Unranked   [][2]string
}

// String renders the disambiguation report.
func (d *Disambiguation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d compliant design classes", d.Classes)
	if d.Incomplete {
		b.WriteString(" (enumeration cut short: more classes may exist)")
	}
	b.WriteString("\n")
	for _, f := range d.Forks {
		fmt.Fprintf(&b, "  %s: %s", f.Role, strings.Join(f.Alternatives, " | "))
		if len(f.Dimensions) > 0 {
			fmt.Fprintf(&b, "  (rankable via: %s)", strings.Join(f.Dimensions, ", "))
		}
		for _, p := range f.Unranked {
			fmt.Fprintf(&b, "  [no known comparison: %s vs %s]", p[0], p[1])
		}
		b.WriteString("\n")
	}
	if len(d.FreeAtoms) > 0 {
		fmt.Fprintf(&b, "  context atoms left open: %s\n", strings.Join(d.FreeAtoms, ", "))
	}
	return b.String()
}

// Disambiguate enumerates up to limit compliant design classes and
// reports where they disagree: the roles with multiple viable systems,
// which order dimensions could settle each fork, and which context atoms
// are still free.
func (e *Engine) Disambiguate(sc Scenario, limit int) (*Disambiguation, error) {
	return e.DisambiguateCtx(context.Background(), sc, limit, Budget{})
}

// DisambiguateCtx is Disambiguate under a context and resource budget.
// When the enumeration is cut short — by the class limit or by a budget
// trip — the report is built from the classes found and marked
// Incomplete rather than discarded. A limit-truncated enumeration
// (Truncated with a nil Exhausted) is a provably partial class set, so
// it must be Incomplete too: only an exhaustive enumeration yields a
// report that covers every fork.
func (e *Engine) DisambiguateCtx(ctx context.Context, sc Scenario, limit int, b Budget) (*Disambiguation, error) {
	res, k, err := e.enumerate(ctx, sc, limit, b)
	if err != nil {
		return nil, err
	}
	return disambiguate(k, sc, res), nil
}

// disambiguate builds the report from an enumeration over k, the KB the
// enumeration compiled against, so every class's systems resolve in it.
// Enumeration never slices, so k is the full KB.
func disambiguate(k *kb.KB, sc Scenario, res *EnumerateResult) *Disambiguation {
	designs := res.Designs
	d := &Disambiguation{Classes: len(designs), Incomplete: res.Truncated}
	if len(designs) < 2 {
		return d
	}

	// Systems appearing in some but not all designs, grouped by role.
	counts := map[string]int{}
	for _, dsg := range designs {
		for _, s := range dsg.Systems {
			counts[s]++
		}
	}
	byRole := map[kb.Role][]string{}
	for name, n := range counts {
		if n == len(designs) {
			continue // in every design: settled
		}
		sys := k.SystemByName(name)
		byRole[sys.Role] = append(byRole[sys.Role], name)
	}
	roles := make([]kb.Role, 0, len(byRole))
	for r := range byRole {
		roles = append(roles, r)
	}
	sort.Slice(roles, func(i, j int) bool { return roles[i] < roles[j] })
	for _, role := range roles {
		alts := byRole[role]
		if len(alts) < 2 {
			continue
		}
		sort.Strings(alts)
		fork := Fork{Role: role, Alternatives: alts}
		// Which dimensions rank at least two alternatives?
		for _, spec := range k.Orders {
			resolved, err := spec.Resolve(sc.Context)
			if err != nil {
				continue // contradictory guards under this context: skip
			}
			related := false
			for i := 0; i < len(alts) && !related; i++ {
				for j := i + 1; j < len(alts); j++ {
					if resolved.Comparable(alts[i], alts[j]) {
						related = true
						break
					}
				}
			}
			if related {
				fork.Dimensions = append(fork.Dimensions, spec.Dimension)
			}
		}
		// Which pairs does no dimension relate at all?
		for i := 0; i < len(alts); i++ {
		pair:
			for j := i + 1; j < len(alts); j++ {
				for _, spec := range k.Orders {
					resolved, err := spec.Resolve(sc.Context)
					if err != nil {
						continue
					}
					if resolved.Comparable(alts[i], alts[j]) {
						continue pair
					}
				}
				fork.Unranked = append(fork.Unranked, [2]string{alts[i], alts[j]})
			}
		}
		d.Forks = append(d.Forks, fork)
	}

	// Context atoms that differ across designs.
	atomVals := map[string]map[bool]bool{}
	for _, dsg := range designs {
		for atom, v := range dsg.Context {
			if atomVals[atom] == nil {
				atomVals[atom] = map[bool]bool{}
			}
			atomVals[atom][v] = true
		}
	}
	for atom, vals := range atomVals {
		if len(vals) > 1 {
			d.FreeAtoms = append(d.FreeAtoms, atom)
		}
	}
	sort.Strings(d.FreeAtoms)
	return d
}
