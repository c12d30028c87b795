package experiments

import (
	"fmt"
	"strings"
	"time"

	"netarch/internal/catalog"
	"netarch/internal/core"
	"netarch/internal/kb"
	"netarch/internal/topo"
)

// RunM31 reproduces §3.1's success metric: "the length of specification
// should grow linearly with the number of systems, hardware and workloads
// included" — and contrasts it against the P4-program-packing domain the
// paper excludes, whose description grows super-linearly.
func RunM31() (*Result, error) {
	full := catalog.Default()
	res := &Result{
		ID:    "M3.1",
		Title: "§3.1 metric: specification length vs knowledge-base size",
		PaperClaim: "spec length grows linearly in the number of systems/hardware; P4-program packing " +
			"would grow super-linearly and is excluded",
		Rows: [][]string{{"entries (systems+hardware)", "spec size (facts)", "facts/entry"}},
	}
	type pt struct{ n, size int }
	var pts []pt
	for frac := 1; frac <= 5; frac++ {
		sub := &kb.KB{
			Systems:  full.Systems[:len(full.Systems)*frac/5],
			Hardware: full.Hardware[:len(full.Hardware)*frac/5],
		}
		st := sub.ComputeStats()
		n := st.Systems + st.Hardware
		pts = append(pts, pt{n, st.SpecSize})
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(st.SpecSize),
			fmt.Sprintf("%.2f", float64(st.SpecSize)/float64(n)),
		})
	}
	// Linearity: facts/entry stays within a narrow band.
	minR, maxR := 1e18, 0.0
	for _, p := range pts {
		r := float64(p.size) / float64(p.n)
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	linear := maxR/minR < 1.8

	// Contrast: describing exactly which subsets of P4 programs co-fit a
	// switch requires up to 2^k facts for k programs (the paper's
	// excluded domain). We count the subsets that would need explicit
	// enumeration for the catalog's P4 systems.
	p4Systems := 0
	for i := range full.Systems {
		if full.Systems[i].Resources[kb.ResP4Stages] > 0 {
			p4Systems++
		}
	}
	subsetFacts := int64(1) << p4Systems
	res.Rows = append(res.Rows, []string{
		fmt.Sprintf("(excluded domain: %d P4 programs)", p4Systems),
		fmt.Sprintf("%d subset facts", subsetFacts),
		"exponential",
	})

	res.Pass = linear
	res.Finding = fmt.Sprintf(
		"facts/entry stays in [%.2f, %.2f] — linear; explicit P4-packing would need %d facts for %d programs (excluded, handled by the stage-budget approximation instead)",
		minR, maxR, subsetFacts, p4Systems)
	return res, nil
}

// RunP1 reproduces the PFC deadlock case ([14], §2.2, §3.4): the
// graph-theoretic ground truth (cyclic buffer dependencies appear exactly
// when flooding is enabled) agrees with the encoded expert rule, and the
// engine rejects PFC+flooding designs.
func RunP1() (*Result, error) {
	res := &Result{
		ID:    "P1",
		Title: "PFC deadlock: up-down routing safe, flooding deadlocks (Guo et al. incident)",
		PaperClaim: "Microsoft reasoned up-down routing excludes cyclic buffer dependencies, but flooding " +
			"broke the invariant; the expert rule 'PFC ⇒ no flooding' is checkable in predicate logic",
		Rows: [][]string{{"topology", "flooding", "cyclic buffer dependency", "witness length"}},
	}
	type tc struct {
		label string
		build func() (*topo.Topology, error)
	}
	cases := []tc{
		{"leaf-spine 4x8", func() (*topo.Topology, error) { return topo.NewLeafSpine(4, 8, 4, 64) }},
		{"fat-tree k=4", func() (*topo.Topology, error) { return topo.NewFatTree(4, 64) }},
		{"fat-tree k=8", func() (*topo.Topology, error) { return topo.NewFatTree(8, 64) }},
	}
	pass := true
	for _, c := range cases {
		t, err := c.build()
		if err != nil {
			return nil, err
		}
		for _, flooding := range []bool{false, true} {
			rep := t.PFCDeadlockCheck(flooding)
			if rep.Deadlock != flooding {
				pass = false
			}
			res.Rows = append(res.Rows, []string{
				c.label, fmt.Sprint(flooding), fmt.Sprint(rep.Deadlock),
				fmt.Sprint(len(rep.Cycle)),
			})
		}
	}

	// The expert rule agrees: the engine rejects pfc+flooding.
	eng, err := core.New(catalog.Default())
	if err != nil {
		return nil, err
	}
	rep, err := eng.Synthesize(core.Scenario{
		Context: map[string]bool{"pfc_enabled": true, "flooding_enabled": true},
	})
	if err != nil {
		return nil, err
	}
	ruleFires := rep.Verdict == core.Infeasible
	if !ruleFires {
		pass = false
	}
	res.Rows = append(res.Rows, []string{
		"engine (rule pfc_no_flooding)", "true", fmt.Sprint(ruleFires), "-",
	})
	res.Pass = pass
	res.Finding = "graph check and expert rule agree on every configuration: deadlock iff flooding"
	if !pass {
		res.Finding = "disagreement between graph check and rule — see rows"
	}
	return res, nil
}

// CatalogFraction cuts the catalog down to roughly frac percent while
// keeping every role and hardware kind represented, so smaller catalogs
// stay feasible for the case-study workload. Rules and orders carry
// over, filtered to the surviving systems and SKUs: a rule is kept when
// every system and hardware atom it mentions survives (context,
// property, and capability atoms never disqualify — they exist at every
// fraction), and an order keeps exactly the edges and equalities whose
// endpoints both survive. Earlier revisions dropped Rules and Orders
// entirely, which made every caller patch them back by hand at
// frac=100 and silently under-constrained every smaller fraction.
// Shared by the S1 experiment and the scaling benchmarks.
func CatalogFraction(full *kb.KB, frac int) *kb.KB {
	sub := &kb.KB{Workloads: full.Workloads}
	perRole := map[kb.Role][]kb.System{}
	for _, s := range full.Systems {
		perRole[s.Role] = append(perRole[s.Role], s)
	}
	for _, role := range kb.Roles() {
		ss := perRole[role]
		n := len(ss) * frac / 100
		if n < 1 {
			n = 1
		}
		sub.Systems = append(sub.Systems, ss[:n]...)
	}
	perKind := map[kb.HardwareKind][]kb.Hardware{}
	for _, h := range full.Hardware {
		perKind[h.Kind] = append(perKind[h.Kind], h)
	}
	for _, kind := range []kb.HardwareKind{kb.KindSwitch, kb.KindNIC, kb.KindServer} {
		hs := perKind[kind]
		n := len(hs) * frac / 100
		if n < 2 {
			n = 2
		}
		sub.Hardware = append(sub.Hardware, hs[:n]...)
	}
	haveSys := map[string]bool{}
	for i := range sub.Systems {
		haveSys[sub.Systems[i].Name] = true
	}
	haveHw := map[string]bool{}
	for i := range sub.Hardware {
		haveHw[sub.Hardware[i].Name] = true
	}
	var atoms []string
	for _, r := range full.Rules {
		atoms = r.Expr.Atoms(atoms[:0])
		keep := true
		for _, a := range atoms {
			if name, ok := strings.CutPrefix(a, "system:"); ok && !haveSys[name] {
				keep = false
				break
			}
			if name, ok := strings.CutPrefix(a, "hw:"); ok && !haveHw[name] {
				keep = false
				break
			}
		}
		if keep {
			sub.Rules = append(sub.Rules, r)
		}
	}
	// Order endpoints that are not systems (opaque items a dimension
	// ranks) always survive; system endpoints must be in the sub-KB.
	isSys := map[string]bool{}
	for i := range full.Systems {
		isSys[full.Systems[i].Name] = true
	}
	keepNode := func(name string) bool { return !isSys[name] || haveSys[name] }
	for _, spec := range full.Orders {
		o := kb.OrderSpec{Dimension: spec.Dimension}
		for _, e := range spec.Edges {
			if keepNode(e.Better) && keepNode(e.Worse) {
				o.Edges = append(o.Edges, e)
			}
		}
		for _, q := range spec.Equals {
			if keepNode(q.A) && keepNode(q.B) {
				o.Equals = append(o.Equals, q)
			}
		}
		if len(o.Edges) > 0 || len(o.Equals) > 0 {
			sub.Orders = append(sub.Orders, o)
		}
	}
	return sub
}

// RunS1 measures synthesis latency as the catalog grows — the paper bets
// that "the power of such solvers to explore combinatorial search spaces
// will be critical"; the shim must stay interactive at full catalog
// scale.
func RunS1() (*Result, error) {
	res := &Result{
		ID:         "S1",
		Title:      "shim scalability: synthesis latency vs catalog size",
		PaperClaim: "SAT solvers make the combinatorial design space tractable at compendium scale",
		Rows:       [][]string{{"systems", "hardware", "compile+solve", "conflicts"}},
	}
	full := catalog.CaseStudy()
	pass := true
	var fullDur time.Duration
	for frac := 1; frac <= 4; frac++ {
		sub := CatalogFraction(full, frac*25)
		eng, err := core.New(sub)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := eng.Synthesize(core.Scenario{Workloads: []string{"inference_app"}})
		if err != nil {
			return nil, err
		}
		dur := time.Since(start)
		// Per-role slicing keeps every fraction feasible, so each row is
		// a real end-to-end synthesis, not a fast UNSAT.
		if rep.Verdict != core.Feasible {
			pass = false
		}
		if frac == 4 {
			fullDur = dur
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(len(sub.Systems)), fmt.Sprint(len(sub.Hardware)),
			dur.Round(time.Millisecond).String(), fmt.Sprint(rep.Spent.Conflicts),
		})
	}
	if fullDur > 5*time.Second {
		pass = false
	}
	res.Pass = pass
	res.Finding = fmt.Sprintf("full-catalog synthesis completes in %s — interactive-speed",
		fullDur.Round(time.Millisecond))
	return res, nil
}
