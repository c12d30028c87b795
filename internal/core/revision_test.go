package core

import (
	"context"
	"maps"
	"testing"

	"netarch/internal/kb"
	"netarch/internal/sat"
)

// TestQueryAnswersAtOneRevision lands an UpdateKB between a query's read
// of the engine revision and the build of its instance, by driving the
// two halves of the query entry (revision, then start) directly. A check
// and a disambiguation must then answer wholly against the revision they
// read: the new KB adds a congestion-control system that neither may
// see, and at the current revision both must see it.
func TestQueryAnswersAtOneRevision(t *testing.T) {
	next := miniKB()
	next.Systems = append(next.Systems, kb.System{Name: "bbr", Role: kb.RoleCongestionControl,
		Solves: []kb.Property{"congestion_control"}, Maturity: "production"})
	sc := Scenario{Require: []kb.Property{"congestion_control"}}
	ctx := context.Background()

	t.Run("check", func(t *testing.T) {
		e := mustEngine(t, miniKB())
		old := e.revision()
		if _, err := e.UpdateKB(next); err != nil {
			t.Fatal(err)
		}
		design := Design{Systems: []string{"cubic", "linux"}}
		c, g, err := e.start(ctx, "check", old, sc, Budget{}, design.pin)
		if err != nil {
			t.Fatal(err)
		}
		defer g.done()
		if c.kb != old.kb {
			t.Fatal("the check compiled against a revision other than the one it read")
		}
		// The pin and forbid lists name exactly the read revision's systems.
		want, got := map[string]bool{}, map[string]bool{}
		for _, s := range old.kb.Systems {
			want[s.Name] = true
		}
		for _, s := range append(c.sc.PinnedSystems, c.sc.ForbiddenSystems...) {
			got[s] = true
		}
		if !maps.Equal(got, want) {
			t.Errorf("pinned or forbidden %v, want the read revision's systems %v", got, want)
		}
		if status := c.solver.SolveAssuming(c.assumptions()); status != sat.Sat {
			t.Errorf("the design does not check at its revision: %v", status)
		}

		bbr := Design{Systems: []string{"bbr", "linux"}}
		if _, _, err := e.start(ctx, "check", old, sc, Budget{}, bbr.pin); err == nil {
			t.Error("a design deploying a system the read revision lacks was accepted")
		}
		if rep, err := e.Check(bbr, sc); err != nil || rep.Verdict != Feasible {
			t.Errorf("the new system does not check at the current revision: %v %v", rep, err)
		}
	})

	t.Run("disambiguate", func(t *testing.T) {
		e := mustEngine(t, miniKB())
		old := e.revision()
		if _, err := e.UpdateKB(next); err != nil {
			t.Fatal(err)
		}
		c, g, err := e.start(ctx, "enumerate", old, sc, Budget{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer g.done()
		if c.kb != old.kb {
			t.Fatal("the enumeration compiled against a revision other than the one it read")
		}
		designs, more := c.enumerate(g, 100)
		if more {
			t.Fatal("enumeration cut short")
		}
		for _, d := range designs {
			if d.HasSystem("bbr") {
				t.Fatalf("a class of the read revision deploys the new system: %v", d.Systems)
			}
		}
		if forks := ccForks(disambiguate(c.kb, sc, &EnumerateResult{Designs: designs})); len(forks) == 0 {
			t.Error("the read revision shows no congestion-control fork")
		}

		d, err := e.Disambiguate(sc, 100)
		if err != nil {
			t.Fatal(err)
		}
		if forks := ccForks(d); !forks["bbr"] {
			t.Errorf("the current revision's congestion-control fork lacks the new system: %v", forks)
		}
	})
}

// ccForks returns the congestion-control alternatives of a report.
func ccForks(d *Disambiguation) map[string]bool {
	alts := map[string]bool{}
	for _, f := range d.Forks {
		if f.Role == kb.RoleCongestionControl {
			for _, a := range f.Alternatives {
				alts[a] = true
			}
		}
	}
	return alts
}
