package kb

import (
	"fmt"
	"strings"
)

// Validate checks referential integrity of the knowledge base: unique
// names, known roles and kinds, resolvable system references, well-formed
// rules and order specs. It returns all problems found, joined, rather
// than stopping at the first — encoding errors come in batches when
// encodings are crowd-sourced.
func (k *KB) Validate() error {
	var errs []string
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	knownRoles := map[Role]bool{}
	for _, r := range Roles() {
		knownRoles[r] = true
	}
	knownKinds := map[HardwareKind]bool{KindSwitch: true, KindNIC: true, KindServer: true}

	sysNames := map[string]bool{}
	for i := range k.Systems {
		s := &k.Systems[i]
		if s.Name == "" {
			report("system %d: empty name", i)
			continue
		}
		if sysNames[s.Name] {
			report("duplicate system %q", s.Name)
		}
		sysNames[s.Name] = true
		if !knownRoles[s.Role] {
			report("system %q: unknown role %q", s.Name, s.Role)
		}
		if s.Maturity != "" && s.Maturity != "production" && s.Maturity != "research" {
			report("system %q: maturity must be production|research, got %q", s.Name, s.Maturity)
		}
		for kind := range s.RequiresCaps {
			if !knownKinds[kind] {
				report("system %q: unknown hardware kind %q", s.Name, kind)
			}
		}
		for r, v := range s.Resources {
			if v < 0 {
				report("system %q: negative resource %s=%d", s.Name, r, v)
			}
		}
		if s.CoresPerKFlows < 0 {
			report("system %q: negative cores_per_kflows", s.Name)
		}
	}
	// Cross references (second pass so order doesn't matter).
	for i := range k.Systems {
		s := &k.Systems[i]
		for _, dep := range s.RequiresSystems {
			if !sysNames[dep] {
				report("system %q requires unknown system %q", s.Name, dep)
			}
		}
		for _, grp := range s.RequiresAnyOf {
			if len(grp) == 0 {
				report("system %q: empty any-of group", s.Name)
			}
			for _, dep := range grp {
				if !sysNames[dep] {
					report("system %q any-of references unknown system %q", s.Name, dep)
				}
			}
		}
		for _, c := range s.ConflictsWith {
			if !sysNames[c] {
				report("system %q conflicts with unknown system %q", s.Name, c)
			}
			if c == s.Name {
				report("system %q conflicts with itself", s.Name)
			}
		}
	}

	hwNames := map[string]bool{}
	for i := range k.Hardware {
		h := &k.Hardware[i]
		if h.Name == "" {
			report("hardware %d: empty name", i)
			continue
		}
		if hwNames[h.Name] {
			report("duplicate hardware %q", h.Name)
		}
		hwNames[h.Name] = true
		if !knownKinds[h.Kind] {
			report("hardware %q: unknown kind %q", h.Name, h.Kind)
		}
		for r, v := range h.Quant {
			if v < 0 {
				report("hardware %q: negative quantity %s=%d", h.Name, r, v)
			}
		}
		if h.CostUSD < 0 {
			report("hardware %q: negative cost_usd=%d", h.Name, h.CostUSD)
		}
	}

	wlNames := map[string]bool{}
	for i := range k.Workloads {
		w := &k.Workloads[i]
		if w.Name == "" {
			report("workload %d: empty name", i)
			continue
		}
		if wlNames[w.Name] {
			report("duplicate workload %q", w.Name)
		}
		wlNames[w.Name] = true
		if w.PeakCores < 0 || w.PeakBandwidthGbps < 0 || w.KFlows < 0 || w.PeakMemoryGB < 0 {
			report("workload %q: negative quantities", w.Name)
		}
	}

	for _, r := range k.Rules {
		if r.Name == "" {
			report("rule with empty name (note: %q)", r.Note)
		}
		if err := r.Expr.Validate(); err != nil {
			report("rule %q: %v", r.Name, err)
		}
		for _, atom := range r.Expr.Atoms(nil) {
			if err := validateAtom(atom, sysNames, hwNames); err != nil {
				report("rule %q: %v", r.Name, err)
			}
		}
	}

	dims := map[string]bool{}
	for _, o := range k.Orders {
		if o.Dimension == "" {
			report("order spec with empty dimension")
			continue
		}
		if dims[o.Dimension] {
			report("duplicate order dimension %q", o.Dimension)
		}
		dims[o.Dimension] = true
		check := func(guard *Expr, where string) {
			if guard == nil {
				return
			}
			if err := guard.Validate(); err != nil {
				report("order %q %s: %v", o.Dimension, where, err)
				return
			}
			for _, atom := range guard.Atoms(nil) {
				if err := validateAtom(atom, sysNames, hwNames); err != nil {
					report("order %q %s: %v", o.Dimension, where, err)
				}
			}
		}
		for _, e := range o.Edges {
			if e.Better == e.Worse {
				report("order %q: self edge %q", o.Dimension, e.Better)
			}
			check(e.Guard, fmt.Sprintf("edge %s>%s", e.Better, e.Worse))
		}
		for _, e := range o.Equals {
			if e.A == e.B {
				report("order %q: self equivalence %q", o.Dimension, e.A)
			}
			check(e.Guard, fmt.Sprintf("equal %s=%s", e.A, e.B))
		}
	}

	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("kb: %d validation error(s):\n  %s", len(errs), strings.Join(errs, "\n  "))
}

// validateAtom checks an atom's namespace and, where resolvable, its
// referent.
func validateAtom(atom string, sysNames, hwNames map[string]bool) error {
	parts := strings.SplitN(atom, ":", 2)
	if len(parts) != 2 || parts[1] == "" {
		return fmt.Errorf("malformed atom %q (want namespace:name)", atom)
	}
	switch parts[0] {
	case "system":
		if !sysNames[parts[1]] {
			return fmt.Errorf("atom %q references unknown system", atom)
		}
	case "hw":
		if !hwNames[parts[1]] {
			return fmt.Errorf("atom %q references unknown hardware", atom)
		}
	case "ctx", "prop":
		// Context and property atoms are open-world by design.
	case "cap":
		sub := strings.SplitN(parts[1], ":", 2)
		if len(sub) != 2 {
			return fmt.Errorf("malformed capability atom %q (want cap:kind:CAP)", atom)
		}
		switch HardwareKind(sub[0]) {
		case KindSwitch, KindNIC, KindServer:
		default:
			return fmt.Errorf("capability atom %q has unknown kind %q", atom, sub[0])
		}
	default:
		return fmt.Errorf("atom %q has unknown namespace %q", atom, parts[0])
	}
	return nil
}
