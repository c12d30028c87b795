package core

import (
	"fmt"
	"sort"

	"netarch/internal/intlin"
	"netarch/internal/kb"
	"netarch/internal/logic"
	"netarch/internal/order"
	"netarch/internal/sat"
)

// selector is a named, assumable constraint group. Solving assumes every
// selector; a final conflict over selectors names the facts in conflict,
// and deletion-based shrinking turns it into a minimal explanation.
type selector struct {
	name string
	note string
	lit  sat.Lit
}

// compiled is one scenario compiled to a SAT+arithmetic instance.
type compiled struct {
	kb     *kb.KB
	sc     *Scenario
	vocab  *logic.Vocabulary
	solver *sat.Solver
	arith  *intlin.Builder

	// names is the engine's shared atom-string interner (nil degrades to
	// plain concatenation — restored and specialized instances build few
	// or no new atoms).
	names *atomInterner

	// pending accumulates the boolean assertions in emission order during
	// the section methods; compileUnprobed converts them to CNF in one
	// shot (logic.Convert) and clears the list. Deferring conversion this
	// way fixes the atom variable space before the first auxiliary
	// variable is allocated, so every Tseitin variable lands in one block
	// after the atoms.
	pending []logic.Formula

	sysLit map[string]sat.Lit
	hwLit  map[string]sat.Lit
	// sysNames is the sorted system vocabulary. Enumeration builds its
	// blocking clauses by walking this slice so their literal order — and
	// hence the solver's watch setup and search — is reproducible (map
	// iteration over sysLit is not).
	sysNames []string

	selectors []selector
	selByName map[string]int // name -> index in selectors

	// sliceID / sliceReq identify the relevance slice this base was
	// compiled against (slice.go): empty/nil for full-KB bases. The ID
	// extends the cache key and the snapshot envelope, and specialize
	// copies it onto each query instance so EnumerateCtx can refuse a
	// sliced one; the request lets UpdateKB recompute the slice under
	// the incoming KB revision.
	sliceID  string
	sliceReq *sliceRequest

	workloads []*kb.Workload
	pinnedCtx map[string]bool // context atoms with known values

	// derivedCtx is the workload-derived slice of pinnedCtx (before any
	// scenario Context overlay); specialize() rebuilds a query's pinnedCtx
	// from it. provides records which properties some system solves, so
	// query-time Require groups know whether a property is satisfiable at
	// all. Both are populated at base-compile time and read-only after.
	derivedCtx map[string]bool
	provides   map[kb.Property]bool

	// extraCtx / extraSys hold query-time variables for context atoms and
	// system names absent from the base vocabulary (the vocabulary is
	// frozen and shared across clones, so late names get private solver
	// variables instead).
	extraCtx map[string]sat.Lit
	extraSys map[string]sat.Lit

	// frozen is set once the boolean CNF has been handed to the solver;
	// from then on the solver is the only variable allocator (the
	// vocabulary's index space is fixed), so later selectors must come
	// from solver.NewVar.
	frozen bool

	coresUsed  intlin.Int
	coresTotal intlin.Int
	costTotal  intlin.Int

	// witness is the most recent Sat model read back as a design; the
	// optimizer snapshots it so a budget trip mid-optimization can still
	// return the best design seen (graceful degradation).
	witness *Design

	totalKFlows int64
	maxPeakBW   int64
}

// exclusiveRoles lists roles where co-deploying two systems is incoherent
// (one network stack per host fleet, one fabric CCA, one vswitch dataplane,
// one load-balancing scheme).
var exclusiveRoles = map[kb.Role]bool{
	kb.RoleNetworkStack:      true,
	kb.RoleCongestionControl: true,
	kb.RoleVirtualSwitch:     true,
	kb.RoleLoadBalancer:      true,
}

// compileSliced compiles a base against a relevance slice's sub-KB (or
// the full KB when sl is nil), stamping the slice identity onto the
// result so the cache, snapshot envelope, and UpdateKB can reproduce
// it. The compile pipeline itself is unchanged: a sliced base is just a
// compile of a smaller knowledge base.
func (e *Engine) compileSliced(k *kb.KB, sc *Scenario, sl *kbSlice) (*compiled, error) {
	if sl == nil {
		return e.compileBaseWith(k, sc)
	}
	c, err := e.compileBaseWith(sl.sub, sc)
	if err != nil {
		return nil, err
	}
	c.sliceID = sl.id
	c.sliceReq = sl.req
	return c, nil
}

// compileBaseWith lowers a KB revision + scenario into a solver
// instance. With the compiled-base cache this runs on a stripped "shape"
// scenario (see baseShape) and the result is frozen: the instance holds
// the clauses the compiler emitted plus what its compile-time probe
// learnt (see probe), and is thereafter only cloned, never solved or
// mutated. Query-specific requirements are layered on by specialize().
func (e *Engine) compileBaseWith(k *kb.KB, sc *Scenario) (*compiled, error) {
	c, err := e.compileUnprobed(k, sc)
	if err != nil {
		return nil, err
	}
	c.probe()
	return c, nil
}

// compileUnprobed is compileBaseWith without the compile-time probe: the
// solver holds exactly the clauses the compiler emitted, in storage Bulk
// sized once with room for the probe's learnt clauses.
func (e *Engine) compileUnprobed(k *kb.KB, sc *Scenario) (*compiled, error) {
	c := &compiled{
		kb:         k,
		sc:         sc,
		names:      &e.names,
		vocab:      logic.NewVocabulary(),
		sysLit:     make(map[string]sat.Lit),
		hwLit:      make(map[string]sat.Lit),
		selByName:  make(map[string]int),
		pinnedCtx:  make(map[string]bool),
		derivedCtx: make(map[string]bool),
	}
	if err := c.pickWorkloads(); err != nil {
		return nil, err
	}
	c.deriveContext()

	c.declareVars()
	c.sysNames = make([]string, 0, len(c.sysLit))
	for name := range c.sysLit {
		c.sysNames = append(c.sysNames, name)
	}
	sort.Strings(c.sysNames)
	c.hardwareSelection()
	c.capabilityDefinitions()
	c.systemConstraints()
	c.propertyDefinitions()
	c.structuralConstraints()
	c.ruleConstraints()
	c.contextPins()
	c.workloadConstraints()
	c.scenarioPins()
	if err := c.performanceBounds(); err != nil {
		return nil, err
	}

	// Boolean phase done: every named atom (and pre-freeze selector) is
	// in the vocabulary, so the assertion list can be converted to CNF in
	// one shot. The anonymous Tseitin variables land in one block after
	// the atoms; pad the vocabulary to cover them so vocabulary and
	// solver keep agreeing on the variable space.
	base := c.vocab.Len()
	cnf := logic.Convert(base, c.pending)
	c.pending = nil
	for v := base; v < cnf.NumVars; v++ {
		c.vocab.Fresh("")
	}

	// Materialize the CNF into a solver, then bolt the arithmetic
	// circuits on top of the same variable space. Both go through one
	// Bulk load, so the per-variable slices, the clause arena and the
	// watch lists are allocated once for the whole base (with room for
	// the probe's learnt clauses) instead of being copied each time they
	// fill; the solver state is the same as adding the clauses one by one.
	c.solver = sat.NewSolver()
	c.solver.Bulk(func() {
		c.solver.EnsureVars(c.vocab.Len())
		for _, cl := range cnf.Clauses {
			c.solver.AddClause(cl...)
		}
		c.frozen = true
		c.arith = intlin.New(c.solver)
		c.resourceConstraints()
		c.costModel()
	})
	return c, nil
}

// probe solves the freshly compiled base once under its own selectors
// and keeps what that search learnt on the base solver: saved phases,
// VSIDS activities and learnt clauses. Learnt clauses are implied by the
// CNF alone, so they are sound for every query. Every clone, snapshot
// and cache-off instance starts from this prior, so a query's search
// depends on its base only, never on which queries ran before it. The
// probe's verdict, model and counters are dropped (sat.Solver.ResetRun),
// so no query is charged for it. The base solver carries no fault hook
// (specialize installs it on each query's solver), so injected faults
// never fire in the probe.
func (c *compiled) probe() {
	c.solver.SolveAssuming(c.assumptions())
	c.solver.ResetRun()
}

// pickWorkloads resolves the scenario's workload names.
func (c *compiled) pickWorkloads() error {
	if len(c.sc.Workloads) == 0 {
		for i := range c.kb.Workloads {
			c.workloads = append(c.workloads, &c.kb.Workloads[i])
		}
		return nil
	}
	for _, name := range c.sc.Workloads {
		w := c.kb.WorkloadByName(name)
		if w == nil {
			return fmt.Errorf("core: unknown workload %q", name)
		}
		c.workloads = append(c.workloads, w)
	}
	return nil
}

// deriveContext computes the pinned context atoms: scenario pins,
// workload properties, and workload-derived facts (§3.1's "easy to
// accurately characterize" quantities).
func (c *compiled) deriveContext() {
	for _, w := range c.workloads {
		for _, p := range w.Properties {
			c.derivedCtx[p] = true
		}
		c.totalKFlows += w.KFlows
		if w.PeakBandwidthGbps > c.maxPeakBW {
			c.maxPeakBW = w.PeakBandwidthGbps
		}
	}
	if _, set := c.derivedCtx["load_ge_40gbps"]; !set {
		if _, userSet := c.sc.Context["load_ge_40gbps"]; !userSet {
			c.derivedCtx["load_ge_40gbps"] = c.maxPeakBW >= 40
		}
	}
	// Scenario pins override workload-derived values.
	for atom, v := range c.derivedCtx {
		c.pinnedCtx[atom] = v
	}
	for atom, v := range c.sc.Context {
		c.pinnedCtx[atom] = v
	}
}

// atom helpers ---------------------------------------------------------------

func (c *compiled) sysVar(name string) logic.Var {
	return c.vocab.Get(c.names.full(tierSystem, name))
}
func (c *compiled) hwVar(name string) logic.Var {
	return c.vocab.Get(c.names.full(tierHw, name))
}
func (c *compiled) ctxVar(name string) logic.Var {
	return c.vocab.Get(c.names.full(tierCtx, name))
}
func (c *compiled) propVar(p kb.Property) logic.Var {
	return c.vocab.Get(c.names.full(tierProp, string(p)))
}
func (c *compiled) capVar(kind kb.HardwareKind, cap kb.Capability) logic.Var {
	return c.vocab.Get(c.names.full(tierCap, string(kind)+":"+string(cap)))
}

// addSelector registers a named assumable group and returns its literal.
// Before the CNF is materialized, selector variables live in the shared
// vocabulary (they appear inside formulas); afterwards they are allocated
// directly from the solver so they never collide with arithmetic-circuit
// variables.
func (c *compiled) addSelector(name, note string) sat.Lit {
	if i, ok := c.selByName[name]; ok {
		return c.selectors[i].lit
	}
	var l sat.Lit
	if c.frozen {
		l = sat.Lit(c.solver.NewVar())
	} else {
		l = sat.Lit(c.vocab.Get(c.names.full(tierSel, name)))
	}
	c.selByName[name] = len(c.selectors)
	c.selectors = append(c.selectors, selector{name: name, note: note, lit: l})
	return l
}

// assert queues a boolean assertion for the one-shot CNF conversion at
// the end of the boolean phase. Only valid before the CNF is
// materialized (atoms inside f must live in the shared vocabulary).
func (c *compiled) assert(f logic.Formula) {
	if c.frozen {
		panic("core: assert after CNF materialization")
	}
	c.pending = append(c.pending, f)
}

// assertGuarded asserts f under a named selector.
func (c *compiled) assertGuarded(name, note string, f logic.Formula) {
	l := c.addSelector(name, note)
	c.assert(logic.Implies(logic.V(logic.Var(l)), f))
}

// declareVars allocates the well-known variables in a stable order so the
// model read-back is deterministic.
func (c *compiled) declareVars() {
	for i := range c.kb.Systems {
		c.sysLit[c.kb.Systems[i].Name] = sat.Lit(c.sysVar(c.kb.Systems[i].Name))
	}
	for _, h := range c.allowedHardwareAll() {
		c.hwLit[h.Name] = sat.Lit(c.hwVar(h.Name))
	}
}

// allowedHardware returns the candidate SKUs for one kind, honouring
// scenario restrictions and pins.
func (c *compiled) allowedHardware(kind kb.HardwareKind) []*kb.Hardware {
	if pinned, ok := c.sc.PinnedHardware[kind]; ok {
		if h := c.kb.HardwareByName(pinned); h != nil && h.Kind == kind {
			return []*kb.Hardware{h}
		}
		return nil
	}
	if allowed, ok := c.sc.AllowedHardware[kind]; ok {
		var out []*kb.Hardware
		for _, name := range allowed {
			if h := c.kb.HardwareByName(name); h != nil && h.Kind == kind {
				out = append(out, h)
			}
		}
		return out
	}
	return c.kb.HardwareByKind(kind)
}

func (c *compiled) allowedHardwareAll() []*kb.Hardware {
	var out []*kb.Hardware
	for _, kind := range []kb.HardwareKind{kb.KindSwitch, kb.KindNIC, kb.KindServer} {
		out = append(out, c.allowedHardware(kind)...)
	}
	return out
}

// hardwareSelection asserts exactly-one SKU per hardware kind.
func (c *compiled) hardwareSelection() {
	for _, kind := range []kb.HardwareKind{kb.KindSwitch, kb.KindNIC, kb.KindServer} {
		hws := c.allowedHardware(kind)
		name := fmt.Sprintf("hardware:%s:selection", kind)
		note := fmt.Sprintf("exactly one %s model must be selected", kind)
		if len(hws) == 0 {
			c.assertGuarded(name, note+" (no candidates available)", logic.False)
			continue
		}
		atoms := make([]logic.Formula, len(hws))
		for i, h := range hws {
			atoms[i] = logic.V(c.hwVar(h.Name))
		}
		c.assertGuarded(name, note, logic.Or(atoms...))
		// At-most-one (unguarded: definitional structure) as a sequential
		// ladder: 3n clauses and n-1 aux commander atoms named
		// amo:<kind>:<i>, where pairwise clauses would grow as n².
		ladder := make([]logic.Formula, len(atoms))
		for i := range atoms {
			ladder[i] = logic.V(c.vocab.Get(fmt.Sprintf("amo:%s:%d", kind, i)))
		}
		conj := make([]logic.Formula, 0, 3*len(atoms))
		for i, a := range atoms {
			conj = append(conj, logic.Implies(a, ladder[i]))
			if i > 0 {
				conj = append(conj, logic.Implies(ladder[i-1], ladder[i]))
				conj = append(conj, logic.Implies(a, logic.Not(ladder[i-1])))
			}
		}
		c.assert(logic.And(conj...))
		// SKUs outside the allowed set are off.
		allowedSet := map[string]bool{}
		for _, h := range hws {
			allowedSet[h.Name] = true
		}
		for _, h := range c.kb.HardwareByKind(kind) {
			if !allowedSet[h.Name] {
				if _, declared := c.hwLit[h.Name]; declared {
					c.assert(logic.Not(logic.V(c.hwVar(h.Name))))
				}
			}
		}
	}
}

// capabilityDefinitions ties cap atoms to the selected hardware:
// cap(kind, X) ↔ OR of selected SKUs of that kind having X.
func (c *compiled) capabilityDefinitions() {
	caps := map[kb.HardwareKind]map[kb.Capability][]logic.Formula{}
	referenced := c.referencedCaps()
	for _, kind := range []kb.HardwareKind{kb.KindSwitch, kb.KindNIC, kb.KindServer} {
		caps[kind] = map[kb.Capability][]logic.Formula{}
		for cap := range referenced[kind] {
			caps[kind][cap] = nil
		}
		for _, h := range c.allowedHardware(kind) {
			for _, cap := range h.Caps {
				if _, ok := referenced[kind][cap]; ok {
					caps[kind][cap] = append(caps[kind][cap], logic.V(c.hwVar(h.Name)))
				}
			}
		}
		// Sorted: assertion order allocates cap variables, and compilation
		// must be deterministic for the base cache's differential guarantee.
		names := make([]string, 0, len(caps[kind]))
		for cap := range caps[kind] {
			names = append(names, string(cap))
		}
		sort.Strings(names)
		for _, name := range names {
			cap := kb.Capability(name)
			c.assert(logic.Iff(logic.V(c.capVar(kind, cap)), logic.Or(caps[kind][cap]...)))
		}
	}
}

// referencedCaps collects every capability atom mentioned by systems or
// rules, so only those get defined.
func (c *compiled) referencedCaps() map[kb.HardwareKind]map[kb.Capability]bool {
	out := map[kb.HardwareKind]map[kb.Capability]bool{
		kb.KindSwitch: {}, kb.KindNIC: {}, kb.KindServer: {},
	}
	for i := range c.kb.Systems {
		for kind, caps := range c.kb.Systems[i].RequiresCaps {
			for _, cap := range caps {
				out[kind][cap] = true
			}
		}
	}
	for _, r := range c.kb.Rules {
		for _, atom := range r.Expr.Atoms(nil) {
			var kindStr, capStr string
			if parseCapAtom(atom, &kindStr, &capStr) {
				k := kb.HardwareKind(kindStr)
				if _, ok := out[k]; ok {
					out[k][kb.Capability(capStr)] = true
				}
			}
		}
	}
	return out
}

// parseCapAtom splits "cap:<kind>:<cap>".
func parseCapAtom(atom string, kind, cap *string) bool {
	const prefix = "cap:"
	if len(atom) <= len(prefix) || atom[:len(prefix)] != prefix {
		return false
	}
	rest := atom[len(prefix):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == ':' {
			*kind = rest[:i]
			*cap = rest[i+1:]
			return *kind != "" && *cap != ""
		}
	}
	return false
}

// systemConstraints encodes each system's deployment requirements, one
// selector per requirement class for fine-grained explanations.
func (c *compiled) systemConstraints() {
	for i := range c.kb.Systems {
		s := &c.kb.Systems[i]
		sys := logic.V(c.sysVar(s.Name))

		if len(s.RequiresCaps) > 0 {
			var reqs []logic.Formula
			kinds := make([]string, 0, len(s.RequiresCaps))
			for kind := range s.RequiresCaps {
				kinds = append(kinds, string(kind))
			}
			sort.Strings(kinds)
			for _, kindStr := range kinds {
				kind := kb.HardwareKind(kindStr)
				for _, cap := range s.RequiresCaps[kind] {
					reqs = append(reqs, logic.V(c.capVar(kind, cap)))
				}
			}
			c.assertGuarded(
				"system:"+s.Name+":caps",
				fmt.Sprintf("%s requires hardware capabilities %v", s.Name, s.RequiresCaps),
				logic.Implies(sys, logic.And(reqs...)))
		}
		if len(s.RequiresSystems) > 0 {
			var deps []logic.Formula
			for _, d := range s.RequiresSystems {
				deps = append(deps, logic.V(c.sysVar(d)))
			}
			c.assertGuarded(
				"system:"+s.Name+":deps",
				fmt.Sprintf("%s requires %v", s.Name, s.RequiresSystems),
				logic.Implies(sys, logic.And(deps...)))
		}
		for gi, group := range s.RequiresAnyOf {
			var opts []logic.Formula
			for _, d := range group {
				opts = append(opts, logic.V(c.sysVar(d)))
			}
			c.assertGuarded(
				fmt.Sprintf("system:%s:anyof:%d", s.Name, gi),
				fmt.Sprintf("%s requires one of %v", s.Name, group),
				logic.Implies(sys, logic.Or(opts...)))
		}
		if len(s.ConflictsWith) > 0 {
			var nots []logic.Formula
			for _, d := range s.ConflictsWith {
				nots = append(nots, logic.Not(logic.V(c.sysVar(d))))
			}
			c.assertGuarded(
				"system:"+s.Name+":conflicts",
				fmt.Sprintf("%s conflicts with %v", s.Name, s.ConflictsWith),
				logic.Implies(sys, logic.And(nots...)))
		}
		if len(s.RequiresContext) > 0 {
			var conds []logic.Formula
			for _, cond := range s.RequiresContext {
				f, err := kb.ConditionExpr(cond).Compile(c.vocab.Get)
				if err != nil {
					// Conditions are atoms; Compile cannot fail.
					panic(err)
				}
				conds = append(conds, f)
			}
			c.assertGuarded(
				"system:"+s.Name+":context",
				fmt.Sprintf("%s requires context %v", s.Name, s.RequiresContext),
				logic.Implies(sys, logic.And(conds...)))
		}
		if s.AppModification {
			c.assertGuarded(
				"system:"+s.Name+":app_modification",
				fmt.Sprintf("%s requires modifying applications", s.Name),
				logic.Implies(sys, logic.V(c.ctxVar("app_modifiable"))))
		}
	}
}

// usefulFormula returns the formula under which a deployed system
// contributes its Solves properties.
func (c *compiled) usefulFormula(s *kb.System) logic.Formula {
	var conds []logic.Formula
	for _, cond := range s.UsefulOnlyWhen {
		f, err := kb.ConditionExpr(cond).Compile(c.vocab.Get)
		if err != nil {
			panic(err)
		}
		conds = append(conds, f)
	}
	return logic.And(conds...)
}

// propertyDefinitions ties property atoms to providing systems:
// prop(p) ↔ OR over systems solving p of (deployed ∧ useful).
func (c *compiled) propertyDefinitions() {
	provides := map[kb.Property][]logic.Formula{}
	for i := range c.kb.Systems {
		s := &c.kb.Systems[i]
		contrib := logic.And(logic.V(c.sysVar(s.Name)), c.usefulFormula(s))
		for _, p := range s.Solves {
			provides[p] = append(provides[p], contrib)
		}
	}
	c.provides = make(map[kb.Property]bool, len(provides))
	for p := range provides {
		c.provides[p] = true
	}
	props := make([]string, 0, len(provides))
	for p := range provides {
		props = append(props, string(p))
	}
	sort.Strings(props)
	for _, p := range props {
		c.assert(logic.Iff(
			logic.V(c.propVar(kb.Property(p))),
			logic.Or(provides[kb.Property(p)]...)))
	}
	// Properties nobody provides are false.
	needed := map[kb.Property]bool{}
	for _, w := range c.workloads {
		for _, p := range w.Needs {
			needed[p] = true
		}
	}
	for _, p := range c.sc.Require {
		needed[p] = true
	}
	// Sorted for deterministic variable allocation (see capabilityDefinitions).
	missing := make([]string, 0, len(needed))
	for p := range needed {
		if _, ok := provides[p]; !ok {
			missing = append(missing, string(p))
		}
	}
	sort.Strings(missing)
	for _, p := range missing {
		c.assert(logic.Not(logic.V(c.propVar(kb.Property(p)))))
	}
}

// structuralConstraints encodes role exclusivity and the common-sense
// "every fleet runs a network stack" rule (§3.4).
func (c *compiled) structuralConstraints() {
	for _, role := range kb.Roles() {
		if !exclusiveRoles[role] {
			continue
		}
		systems := c.kb.SystemsByRole(role)
		for i := 0; i < len(systems); i++ {
			for j := i + 1; j < len(systems); j++ {
				c.assertGuarded(
					fmt.Sprintf("structural:exclusive:%s", role),
					fmt.Sprintf("at most one %s may be deployed fleet-wide", role),
					logic.Or(
						logic.Not(logic.V(c.sysVar(systems[i].Name))),
						logic.Not(logic.V(c.sysVar(systems[j].Name)))))
			}
		}
	}
	stacks := c.kb.SystemsByRole(kb.RoleNetworkStack)
	if len(stacks) > 0 {
		var opts []logic.Formula
		for _, s := range stacks {
			opts = append(opts, logic.V(c.sysVar(s.Name)))
		}
		c.assertGuarded(
			"structural:need_network_stack",
			"common-sense: every server fleet runs some network stack (§3.4)",
			logic.Or(opts...))
	}
}

// ruleConstraints asserts every free-form KB rule under its own selector.
func (c *compiled) ruleConstraints() {
	for _, r := range c.kb.Rules {
		f, err := r.Expr.Compile(c.vocab.Get)
		if err != nil {
			panic(fmt.Sprintf("core: rule %q failed to compile after validation: %v", r.Name, err))
		}
		c.assertGuarded("rule:"+r.Name, r.Note, f)
	}
}

// contextPins asserts the derived/pinned context atoms.
func (c *compiled) contextPins() {
	atoms := make([]string, 0, len(c.pinnedCtx))
	for a := range c.pinnedCtx {
		atoms = append(atoms, a)
	}
	sort.Strings(atoms)
	for _, a := range atoms {
		v := logic.V(c.ctxVar(a))
		f := v
		if !c.pinnedCtx[a] {
			f = logic.Not(v)
		}
		c.assertGuarded(
			"context:"+a,
			fmt.Sprintf("environment fact: %s=%v", a, c.pinnedCtx[a]),
			f)
	}
}

// workloadConstraints asserts every workload's needs.
func (c *compiled) workloadConstraints() {
	for _, w := range c.workloads {
		for _, p := range w.Needs {
			c.assertGuarded(
				fmt.Sprintf("workload:%s:needs:%s", w.Name, p),
				fmt.Sprintf("workload %s needs %s", w.Name, p),
				logic.V(c.propVar(p)))
		}
	}
	for _, p := range c.sc.Require {
		c.assertGuarded(
			fmt.Sprintf("require:%s", p),
			fmt.Sprintf("architect requires %s", p),
			logic.V(c.propVar(p)))
	}
}

// scenarioPins asserts pinned and forbidden systems.
func (c *compiled) scenarioPins() {
	for _, s := range c.sc.PinnedSystems {
		c.assertGuarded(
			"pin:system:"+s,
			fmt.Sprintf("architect pinned %s as deployed", s),
			logic.V(c.sysVar(s)))
	}
	for _, s := range c.sc.ForbiddenSystems {
		c.assertGuarded(
			"forbid:system:"+s,
			fmt.Sprintf("architect forbade %s", s),
			logic.Not(logic.V(c.sysVar(s))))
	}
}

// performanceBounds encodes Listing 3-style bounds against the resolved
// partial orders.
func (c *compiled) performanceBounds() error {
	for _, b := range c.sc.Bounds {
		resolved, err := c.resolveOrder(b.Dimension)
		if err != nil {
			return err
		}
		if resolved == nil {
			return fmt.Errorf("core: unknown order dimension %q", b.Dimension)
		}
		var qualifying []logic.Formula
		for i := range c.kb.Systems {
			name := c.kb.Systems[i].Name
			ok := resolved.Better(name, b.Reference)
			if !b.Strict {
				ok = ok || name == b.Reference || resolved.Equal(name, b.Reference)
			}
			if ok {
				qualifying = append(qualifying, logic.V(c.sysVar(name)))
			}
		}
		c.assertGuarded(
			fmt.Sprintf("bound:%s:better_than:%s", b.Dimension, b.Reference),
			fmt.Sprintf("performance bound: deployed %s choice must beat %s", b.Dimension, b.Reference),
			logic.Or(qualifying...))
	}
	return nil
}

// resolveOrder resolves a KB order dimension under the pinned context
// (unpinned atoms are treated as false — conservative: only edges whose
// guards are entailed by known facts apply). Resolution happens over a
// private vocabulary (kb.OrderSpec.Resolve), never the shared one: this
// also runs at query time (orderPenaltyLits), where the base vocabulary
// is frozen and shared across concurrent queries.
func (c *compiled) resolveOrder(dimension string) (*order.Resolved, error) {
	spec := c.kb.OrderByDimension(dimension)
	if spec == nil {
		return nil, nil
	}
	return spec.Resolve(c.pinnedCtx)
}

// resourceConstraints adds the arithmetic budgets (§3.1's accurately
// characterizable quantities): cores, P4 stages, switch SRAM, QoS
// classes, and NIC line rate.
func (c *compiled) resourceConstraints() {
	ns := int64(c.sc.numServers())

	// Total cores provided by the selected server SKU.
	c.coresTotal = c.kindTotal(kb.KindServer, func(h *kb.Hardware) int64 { return h.Q(kb.ResCores) * ns })

	// Cores consumed: workload peaks + per-system overheads.
	var wlCores int64
	for _, w := range c.workloads {
		wlCores += w.PeakCores
	}
	terms := []intlin.Int{c.arith.Const(wlCores)}
	for i := range c.kb.Systems {
		s := &c.kb.Systems[i]
		cost := s.Resources[kb.ResCores]*ns + s.CoresPerKFlows*c.totalKFlows
		if cost > 0 {
			terms = append(terms, c.arith.ScaledBool(c.sysLit[s.Name], cost))
		}
	}
	c.coresUsed = c.arith.Sum(terms...)
	selCores := c.addSelector("resources:cores",
		fmt.Sprintf("deployed systems and workloads must fit %d servers' cores", ns))
	c.arith.AssertImplies(selCores, c.arith.Leq(c.coresUsed, c.coresTotal))

	// Memory: workloads must fit the selected server SKU's aggregate
	// memory. CXL memory pooling (an architect decision, pinned via the
	// cxl_pooling context atom) stretches CXL-capable servers' capacity
	// by 50% — the quantitative lever behind the §5.1 "is CXL pooling
	// worthwhile?" query.
	var wlMem int64
	for _, w := range c.workloads {
		wlMem += w.PeakMemoryGB
	}
	if wlMem > 0 {
		cxlOn := c.pinnedCtx["cxl_pooling"]
		memTotal := c.kindTotal(kb.KindServer, func(h *kb.Hardware) int64 {
			m := h.Q(kb.ResMemoryGB) * ns
			if cxlOn && h.HasCap(kb.CapCXL) {
				m += m / 2
			}
			return m
		})
		selMem := c.addSelector("resources:memory",
			fmt.Sprintf("workloads need %d GB of aggregate server memory", wlMem))
		c.arith.AssertImplies(selMem, c.arith.GeqConst(memTotal, wlMem))
	}

	// Rack-level placement: each workload pinned to racks must fit its
	// per-rack core share into the rack's servers of the selected SKU.
	// This grounds Listing 3's "deployed_at = racks[0:3]" in capacity.
	if c.sc.RackServers != nil {
		rackDemand := map[string]int64{}
		for _, w := range c.workloads {
			if len(w.DeployedAt) == 0 || w.PeakCores == 0 {
				continue
			}
			share := (w.PeakCores + int64(len(w.DeployedAt)) - 1) / int64(len(w.DeployedAt))
			for _, r := range w.DeployedAt {
				rackDemand[r] += share
			}
		}
		racks := make([]string, 0, len(rackDemand))
		for r := range rackDemand {
			racks = append(racks, r)
		}
		sort.Strings(racks)
		for _, r := range racks {
			nRack, known := c.sc.RackServers[r]
			sel := c.addSelector("resources:rack:"+r,
				fmt.Sprintf("workloads placed on %s need %d cores there", r, rackDemand[r]))
			if !known {
				// Workload names a rack the fleet does not have.
				c.solver.AddClause(sel.Flip())
				continue
			}
			for _, h := range c.allowedHardware(kb.KindServer) {
				if h.Q(kb.ResCores)*int64(nRack) < rackDemand[r] {
					// This SKU cannot provision the rack: selecting it
					// violates the rack constraint.
					c.solver.AddClause(sel.Flip(), c.hwLit[h.Name].Flip())
				}
			}
		}
	}

	// P4 stages and SRAM against the selected switch.
	c.switchBudget(kb.ResP4Stages, "resources:p4_stages",
		"P4 programs must fit the selected switch's pipeline stages")
	c.switchBudget(kb.ResSRAMMB, "resources:switch_sram",
		"P4 programs must fit the selected switch's SRAM")

	// QoS classes: fabrics expose 8 traffic classes.
	var qosTerms []intlin.Int
	for i := range c.kb.Systems {
		s := &c.kb.Systems[i]
		if q := s.Resources[kb.ResQoSClasses]; q > 0 {
			qosTerms = append(qosTerms, c.arith.ScaledBool(c.sysLit[s.Name], q))
		}
	}
	if len(qosTerms) > 0 {
		used := c.arith.Sum(qosTerms...)
		sel := c.addSelector("resources:qos_classes",
			"systems contend for the fabric's 8 QoS classes (§2.2 resource contention)")
		c.arith.AssertImplies(sel, c.arith.LeqConst(used, 8))
	}

	// NIC line rate must cover the peak per-server workload bandwidth.
	if c.maxPeakBW > 0 {
		sel := c.addSelector("resources:nic_bandwidth",
			fmt.Sprintf("the NIC must carry the %d Gbit/s peak workload", c.maxPeakBW))
		for _, h := range c.allowedHardware(kb.KindNIC) {
			if h.Q(kb.ResBandwidthGbps) < c.maxPeakBW {
				c.solver.AddClause(sel.Flip(), c.hwLit[h.Name].Flip())
			}
		}
	}
}

// switchBudget constrains the sum of a per-system resource against the
// selected switch's capacity for it.
func (c *compiled) switchBudget(res kb.Resource, selName, note string) {
	var terms []intlin.Int
	for i := range c.kb.Systems {
		s := &c.kb.Systems[i]
		if q := s.Resources[res]; q > 0 {
			terms = append(terms, c.arith.ScaledBool(c.sysLit[s.Name], q))
		}
	}
	if len(terms) == 0 {
		return
	}
	used := c.arith.Sum(terms...)
	budget := c.kindTotal(kb.KindSwitch, func(h *kb.Hardware) int64 { return h.Q(res) })
	sel := c.addSelector(selName, note)
	c.arith.AssertImplies(sel, c.arith.Leq(used, budget))
}

// kindTotal builds a muxed per-kind quantity: one bounded integer,
// forced to val(h) exactly while SKU h is selected. At most one SKU per
// kind is selected, so exactly one AssertImpliesEq guard holds and the
// variable is pinned to the selected SKU's value; a kind whose values
// are all ≤ 0 is the constant 0. When no SKU of the kind is selected
// (possible only in MUS deletion trials that drop the selection
// selector) the variable floats; such trials only ask satisfiability,
// which a floating total never changes.
func (c *compiled) kindTotal(kind kb.HardwareKind, val func(*kb.Hardware) int64) intlin.Int {
	hws := c.allowedHardware(kind)
	var maxV int64
	for _, h := range hws {
		if v := val(h); v > maxV {
			maxV = v
		}
	}
	if maxV <= 0 {
		return c.arith.Const(0)
	}
	t := c.arith.Var(maxV)
	for _, h := range hws {
		c.arith.AssertImpliesEq(c.hwLit[h.Name], t, val(h))
	}
	return t
}

// fleetCount is how many units of a kind's selected SKU the fleet
// deploys: one server and one NIC per server, and numSwitches switches.
func (c *compiled) fleetCount(kind kb.HardwareKind) int64 {
	if kind == kb.KindSwitch {
		return int64(c.sc.numSwitches())
	}
	return int64(c.sc.numServers())
}

// hardwareTotal builds the circuit Σ per(h) × fleetCount(kind) over the
// selected SKU of each listed kind: one kindTotal mux per kind.
func (c *compiled) hardwareTotal(per func(*kb.Hardware) int64, kinds ...kb.HardwareKind) intlin.Int {
	terms := make([]intlin.Int, len(kinds))
	for i, kind := range kinds {
		n := c.fleetCount(kind)
		terms[i] = c.kindTotal(kind, func(h *kb.Hardware) int64 { return per(h) * n })
	}
	return c.arith.Sum(terms...)
}

// costModel builds the total hardware cost and the optional budget cap.
// Unlike power and ports, cost lives on the base: the MaxCostUSD budget
// selector constrains it on every query.
func (c *compiled) costModel() {
	c.costTotal = c.hardwareTotal(func(h *kb.Hardware) int64 { return h.CostUSD },
		kb.KindServer, kb.KindNIC, kb.KindSwitch)
	if c.sc.MaxCostUSD > 0 {
		sel := c.addSelector("budget:cost",
			fmt.Sprintf("total hardware cost must not exceed $%d", c.sc.MaxCostUSD))
		c.arith.AssertImplies(sel, c.arith.LeqConst(c.costTotal, c.sc.MaxCostUSD))
	}
}

// powerModel builds the fleet's total power draw in watts: each SKU's
// power_w rule of thumb (Listing 1 quantities) times its deployment
// count, summed over servers, NICs, and switches. Only MinimizePower
// reads the circuit, so objectives builds it on the query instance
// when an objective needs it, never on a base.
func (c *compiled) powerModel() intlin.Int {
	return c.hardwareTotal(func(h *kb.Hardware) int64 { return h.Q(kb.ResPowerW) },
		kb.KindServer, kb.KindNIC, kb.KindSwitch)
}

// portModel builds the fabric's total switch port count (selected
// switch's ports times the switch count) for the MinimizePorts
// objective, on the query instance like powerModel.
func (c *compiled) portModel() intlin.Int {
	return c.hardwareTotal(func(h *kb.Hardware) int64 { return h.Q(kb.ResPortCount) }, kb.KindSwitch)
}

// selectorLit returns the literal of the selector registered under name.
// Specialized instances carry no name index (selByName stays base-side),
// so this scans; it is used by tests and diagnostics, not hot paths.
func (c *compiled) selectorLit(name string) (sat.Lit, bool) {
	for _, s := range c.selectors {
		if s.name == name {
			return s.lit, true
		}
	}
	return 0, false
}

// assumptions returns all selector literals.
func (c *compiled) assumptions() []sat.Lit {
	out := make([]sat.Lit, len(c.selectors))
	for i, s := range c.selectors {
		out[i] = s.lit
	}
	return out
}

// designFromModel reads a Design off the current solver model.
func (c *compiled) designFromModel() *Design {
	return c.designFrom(c.solver.Model())
}

// designFrom reads a Design off the given model (the solver's own, or
// one a MaxSAT descent or Pareto probe kept from an earlier solve).
func (c *compiled) designFrom(model []bool) *Design {
	lit := func(l sat.Lit) bool { return model[l.Var()-1] != l.Neg() }
	d := &Design{
		Hardware: map[kb.HardwareKind]string{},
		Context:  map[string]bool{},
		Metrics:  map[string]int64{},
	}
	for i := range c.kb.Systems {
		name := c.kb.Systems[i].Name
		if lit(c.sysLit[name]) {
			d.Systems = append(d.Systems, name)
		}
	}
	sort.Strings(d.Systems)
	// power_w and switch_ports are catalog arithmetic over the selected
	// SKUs, not circuit read-outs: their circuits exist only on instances
	// that optimize them.
	var powerW, ports int64
	for _, h := range c.allowedHardwareAll() {
		if lit(c.hwLit[h.Name]) {
			d.Hardware[h.Kind] = h.Name
			n := c.fleetCount(h.Kind)
			powerW += h.Q(kb.ResPowerW) * n
			if h.Kind == kb.KindSwitch {
				ports += h.Q(kb.ResPortCount) * n
			}
		}
	}
	// Context atoms: every vocab name with the ctx: prefix, plus any
	// query-time atoms that live outside the frozen vocabulary.
	for i := 1; i <= c.vocab.Len(); i++ {
		name := c.vocab.Name(logic.Var(i))
		if len(name) > 4 && name[:4] == "ctx:" {
			d.Context[name[4:]] = model[i-1]
		}
	}
	for atom, l := range c.extraCtx {
		d.Context[atom] = model[l.Var()-1]
	}
	d.Metrics["cores_used"] = intlin.ValueOf(c.coresUsed, model)
	d.Metrics["cores_total"] = intlin.ValueOf(c.coresTotal, model)
	d.Metrics["cost_usd"] = intlin.ValueOf(c.costTotal, model)
	d.Metrics["power_w"] = powerW
	d.Metrics["switch_ports"] = ports
	return d
}
