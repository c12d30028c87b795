package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

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

	// clauses is the base's one clause stream, in emission order: the
	// boolean phase writes a constraint that already is a clause straight
	// to it and converts the rest there at once (assert), and Bulk lays
	// it out in the solver, with the arithmetic circuits' clauses after
	// it. aux counts the Tseitin auxiliaries the conversions number from
	// auxBase; compileUnprobed moves them into one block after the atoms
	// once the boolean phase has fixed the atom count. buf is the
	// scratch of guardClause and defineOr. Bulk empties the stream and
	// compileUnprobed drops buf, so a cached base keeps neither.
	clauses sat.Clauses
	aux     int
	buf     []sat.Lit

	sysLit map[string]sat.Lit
	hwLit  map[string]sat.Lit
	// cands holds each kind's candidate SKUs (see pickCandidates), in
	// hardwareKinds order, resolved once per compile and shared by the
	// base's query instances.
	cands [len(hardwareKinds)][]*kb.Hardware
	// sysNames is the sorted system vocabulary. Enumeration builds its
	// blocking clauses by walking this slice so their literal order — and
	// hence the solver's watch setup and search — is reproducible (map
	// iteration over sysLit is not).
	sysNames []string

	selectors []selector
	selByName map[string]int // name -> index in selectors

	// sliceID / sliceReq identify the relevance slice this base was
	// compiled against (slice.go): empty/nil for full-KB bases and for
	// query instances. The ID extends the cache key; the request lets
	// UpdateKB recompute the slice under the incoming KB revision.
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

	// frozen is set once the boolean phase has ended (see clauses);
	// from then on the solver is the only variable allocator (the
	// vocabulary's index space is fixed), so later selectors must come
	// from solver.NewVar.
	frozen bool

	coresUsed  intlin.Int
	coresTotal intlin.Int
	costTotal  intlin.Int

	totalKFlows int64
	maxPeakBW   int64

	// overflow is set when a fleet-scaled product or sum, or an
	// arithmetic circuit's maximum, would exceed int64 (see mul);
	// compileUnprobed then fails rather than encode a wrapped quantity.
	overflow bool
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

// hardwareKinds lists the hardware kinds in the order a compile selects
// and declares them.
var hardwareKinds = [...]kb.HardwareKind{kb.KindSwitch, kb.KindNIC, kb.KindServer}

// auxBase is the placeholder the boolean phase numbers Tseitin
// auxiliaries from, above any atom a vocabulary can hold; see
// compiled.clauses.
const auxBase = 1 << 30

// compile lowers a KB revision and a scenario shape into a frozen base.
// When sl is non-nil it compiles the relevance slice's sub-KB instead of
// k and stamps the slice identity onto the result, so the cache and
// UpdateKB can reproduce it; a sliced base is just a compile of a
// smaller knowledge base. compile reads nothing but its arguments. The
// base holds the clauses the compiler emitted plus what its compile-time
// probe learnt (see probe), and is thereafter only cloned, never solved
// or mutated: each query layers its own requirements on a clone
// (specialize).
func compile(k *kb.KB, sc *Scenario, sl *kbSlice) (*compiled, error) {
	if sl != nil {
		k = sl.sub
	}
	c, err := compileUnprobed(k, sc)
	if err != nil {
		return nil, err
	}
	if sl != nil {
		c.sliceID, c.sliceReq = sl.id, sl.req
	}
	c.probe()
	return c, nil
}

// compileUnprobed is compile of the full k without the compile-time
// probe: the solver holds exactly the clauses the compiler emitted, in
// storage Bulk sized once with room for the probe's learnt clauses.
func compileUnprobed(k *kb.KB, sc *Scenario) (*compiled, error) {
	c := &compiled{
		kb:         k,
		sc:         sc,
		aux:        auxBase,
		pinnedCtx:  make(map[string]bool),
		derivedCtx: make(map[string]bool),
	}
	if err := c.pickWorkloads(); err != nil {
		return nil, err
	}
	c.deriveContext()

	c.pickCandidates()
	atoms, sels := c.namedAtomsAtLeast()
	c.vocab = logic.NewVocabularySize(atoms)
	c.selectors = make([]selector, 0, sels)
	c.selByName = make(map[string]int, sels)
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
	// in the vocabulary, so the Tseitin auxiliaries, numbered from
	// auxBase in assertion order, move to one block right after the
	// atoms. Pad the vocabulary to cover them so vocabulary and solver
	// keep agreeing on the variable space; the base's vocabulary is then
	// complete.
	c.clauses.Renumber(auxBase, c.vocab.Len())
	c.vocab.FreshAnonymous(c.aux - auxBase)

	// Lay the clause stream out in a solver, then bolt the arithmetic
	// circuits on top of the same variable space. Both go through one
	// Bulk load, so the per-variable slices, the clause arena and the
	// watch lists are allocated once for the whole base (with room for
	// the probe's learnt clauses) instead of being copied each time they
	// fill; the solver state is the same as adding the clauses one by one.
	c.solver = sat.NewSolver()
	c.solver.Bulk(&c.clauses, func() {
		c.solver.EnsureVars(c.vocab.Len())
		c.frozen = true
		c.arith = intlin.New(c.solver)
		c.resourceConstraints()
		c.costModel()
	})
	c.buf = nil
	if c.overflow {
		return nil, fmt.Errorf("core: %d servers and %d switches overflow the fleet's int64 quantities",
			c.sc.numServers(), c.sc.numSwitches())
	}
	return c, nil
}

// probe solves the freshly compiled base once under its own selectors
// and keeps what that search learnt on the base solver: saved phases,
// VSIDS activities and learnt clauses. Learnt clauses are implied by the
// CNF alone, so they are sound for every query. Every query's clone
// starts from this prior, so a query's search depends on its base only,
// never on which queries ran before it. The probe's verdict, model and
// counters are dropped (sat.Solver.ResetRun), so no query is charged for
// it. The base solver carries no fault hook (instance installs it on
// each query's clone), so injected faults never fire in the probe.
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
		c.totalKFlows = c.add(c.totalKFlows, w.KFlows)
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

// sysVar returns a system's variable: the declared one, or for a name
// the KB does not declare, the vocabulary's.
func (c *compiled) sysVar(name string) logic.Var {
	if l, ok := c.sysLit[name]; ok {
		return logic.Var(l)
	}
	return c.vocab.Get("system:" + name)
}
func (c *compiled) ctxVar(name string) logic.Var {
	return c.vocab.Get("ctx:" + name)
}
func (c *compiled) propVar(p kb.Property) logic.Var {
	return c.vocab.Get("prop:" + string(p))
}
func (c *compiled) capVar(kind kb.HardwareKind, cap kb.Capability) logic.Var {
	return c.vocab.Get("cap:" + string(kind) + ":" + string(cap))
}

// addSelector registers a named assumable group and returns its literal.
// Before the boolean phase ends, selector variables live in the shared
// vocabulary (they appear in its clauses); afterwards they are allocated
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
		// selByName resolves selector names; nothing looks one up in
		// the vocabulary.
		l = sat.Lit(c.vocab.FreshUnindexed("sel:" + name))
	}
	c.selByName[name] = len(c.selectors)
	c.selectors = append(c.selectors, selector{name: name, note: note, lit: l})
	return l
}

// assert converts the boolean assertion f into the clause stream at
// once (logic.Convert), numbering its auxiliaries after the previous
// assertion's from auxBase. Only valid before the stream is laid out
// (atoms inside f must live in the shared vocabulary).
func (c *compiled) assert(f logic.Formula) {
	if c.frozen {
		panic("core: assert after the boolean phase")
	}
	c.aux = logic.Convert(&c.clauses, c.aux, f)
}

// assertGuarded asserts f under a named selector.
func (c *compiled) assertGuarded(name, note string, f logic.Formula) {
	l := c.addSelector(name, note)
	c.assert(logic.Implies(logic.V(logic.Var(l)), f))
}

// guardClause writes, under the named selector sel, the clause (¬sel ∨
// lits…): the clause assertGuarded(name, note, Or(lits…)) converts to,
// without building the formula. A literal repeated in lits, or beside
// its negation, reaches the solver as it is; AddClause drops repeats
// and tautologies as Simplify would have, so the base is the same. The
// caller computes lits first, so their atoms are allocated before the
// selector, as assertGuarded's argument would have them; lits must not
// alias c.buf.
func (c *compiled) guardClause(name, note string, lits ...sat.Lit) {
	sel := c.addSelector(name, note)
	c.buf = append(append(c.buf[:0], sel.Flip()), lits...)
	c.clauses.Add(c.buf...)
}

// declareVars allocates the well-known variables in a stable order so the
// model read-back is deterministic. sysLit and hwLit resolve them by
// name (sysVar, ruleConstraints), so the vocabulary does not index them.
func (c *compiled) declareVars() {
	c.sysLit = make(map[string]sat.Lit, len(c.kb.Systems))
	for i := range c.kb.Systems {
		if name := c.kb.Systems[i].Name; c.sysLit[name] == 0 {
			c.sysLit[name] = sat.Lit(c.vocab.FreshUnindexed("system:" + name))
		}
	}
	n := 0
	for _, hws := range c.cands {
		n += len(hws)
	}
	c.hwLit = make(map[string]sat.Lit, n)
	for _, hws := range c.cands {
		for _, h := range hws {
			if c.hwLit[h.Name] == 0 {
				c.hwLit[h.Name] = sat.Lit(c.vocab.FreshUnindexed("hw:" + h.Name))
			}
		}
	}
}

// pickCandidates resolves each kind's candidate SKUs, honouring scenario
// restrictions and pins: the pinned SKU alone (none when the pin names
// no SKU of the kind), else the allowed SKUs of the kind in the order
// first listed, each once, else every SKU of the kind in catalog order.
// A SKU listed twice would otherwise be two candidates over one atom,
// which the exactly-one selection could never choose.
func (c *compiled) pickCandidates() {
	for i, kind := range hardwareKinds {
		if pinned, ok := c.sc.PinnedHardware[kind]; ok {
			if h := c.kb.HardwareByName(pinned); h != nil && h.Kind == kind {
				c.cands[i] = []*kb.Hardware{h}
			}
			continue
		}
		if allowed, ok := c.sc.AllowedHardware[kind]; ok {
			for _, name := range allowed {
				if h := c.kb.HardwareByName(name); h != nil && h.Kind == kind && !slices.Contains(c.cands[i], h) {
					c.cands[i] = append(c.cands[i], h)
				}
			}
			continue
		}
		c.cands[i] = c.kb.HardwareByKind(kind)
	}
}

// namedAtomsAtLeast counts, from below, the named variables and the
// selectors the boolean phase allocates: every system and candidate SKU,
// each candidate's at-most-one ladder commander, and a selector for each
// kind's selection, each system requirement class, each rule and each
// pinned context atom, beside that atom. The compile sizes its
// vocabulary and selector list by the counts, so they rarely regrow and
// end no larger than growing would leave them.
func (c *compiled) namedAtomsAtLeast() (atoms, selectors int) {
	selectors = len(hardwareKinds) + len(c.kb.Rules) + len(c.pinnedCtx)
	for i := range c.kb.Systems {
		s := &c.kb.Systems[i]
		for _, class := range []bool{len(s.RequiresCaps) > 0, len(s.RequiresSystems) > 0,
			len(s.ConflictsWith) > 0, len(s.RequiresContext) > 0, s.AppModification} {
			if class {
				selectors++
			}
		}
		selectors += len(s.RequiresAnyOf)
	}
	atoms = len(c.kb.Systems) + len(c.pinnedCtx) + selectors
	for _, hws := range c.cands {
		atoms += 2 * len(hws)
	}
	return atoms, selectors
}

// allowedHardware returns the candidate SKUs for one kind.
func (c *compiled) allowedHardware(kind kb.HardwareKind) []*kb.Hardware {
	for i, k := range hardwareKinds {
		if k == kind {
			return c.cands[i]
		}
	}
	return nil
}

// hardwareSelection asserts exactly-one SKU per hardware kind.
func (c *compiled) hardwareSelection() {
	for i, kind := range hardwareKinds {
		hws := c.cands[i]
		name := "hardware:" + string(kind) + ":selection"
		note := "exactly one " + string(kind) + " model must be selected"
		if len(hws) == 0 {
			c.guardClause(name, note+" (no candidates available)")
			continue
		}
		atoms := make([]sat.Lit, len(hws))
		for j, h := range hws {
			atoms[j] = c.hwLit[h.Name]
		}
		c.guardClause(name, note, atoms...)
		// At-most-one (unguarded: definitional structure) as a sequential
		// ladder: 3n clauses and n-1 aux commander atoms named
		// amo:<kind>:<j>, where pairwise clauses would grow as n². Writing
		// a clause allocates no variable, so allocating each commander
		// just before its clauses numbers them as allocating all of them
		// first would.
		var prev sat.Lit
		for j, a := range atoms {
			l := sat.Lit(c.vocab.FreshUnindexed("amo:" + string(kind) + ":" + strconv.Itoa(j)))
			c.clauses.Add(-a, l)
			if j > 0 {
				c.clauses.Add(-prev, l)
				c.clauses.Add(-a, -prev)
			}
			prev = l
		}
	}
}

// capabilityDefinitions ties cap atoms to the selected hardware:
// cap(kind, X) ↔ OR of selected SKUs of that kind having X. A SKU listed
// twice among the candidates counts once, as Simplify would count it.
func (c *compiled) capabilityDefinitions() {
	referenced := c.referencedCaps()
	listed := make([]bool, c.vocab.Len()+1) // by variable
	var hws []sat.Lit
	for i, kind := range hardwareKinds {
		for _, cap := range referenced[i] {
			hws = hws[:0]
			for _, h := range c.cands[i] {
				if !h.HasCap(cap) {
					continue
				}
				if l := c.hwLit[h.Name]; !listed[l] {
					listed[l] = true
					hws = append(hws, l)
				}
			}
			for _, l := range hws {
				listed[l] = false
			}
			c.defineOr(sat.Lit(c.capVar(kind, cap)), hws)
		}
	}
}

// defineOr writes the clauses assert(Iff(def, Or(lits…))) converts to,
// without building the formula: def → some lit, and every lit → def
// through one auxiliary, the Tseitin definition of ¬Or(lits…). lits must
// be distinct literals, none over def's variable, as Simplify leaves
// them.
func (c *compiled) defineOr(def sat.Lit, lits []sat.Lit) {
	switch len(lits) {
	case 0:
		c.clauses.Add(-def)
		return
	case 1:
		c.clauses.Add(-def, lits[0])
		c.clauses.Add(-lits[0], def)
		return
	}
	c.buf = append(append(c.buf[:0], -def), lits...)
	c.clauses.Add(c.buf...)
	c.aux++
	d := sat.Lit(c.aux)
	for _, l := range lits {
		c.clauses.Add(-d, -l)
	}
	c.clauses.Add(d, def)
}

// referencedCaps collects, per kind in hardwareKinds order, every
// capability atom mentioned by systems or rules, so only those get
// defined. Each list is sorted: definition order allocates cap
// variables, and compilation must be deterministic for the base cache's
// differential guarantee.
func (c *compiled) referencedCaps() [len(hardwareKinds)][]kb.Capability {
	var out [len(hardwareKinds)][]kb.Capability
	add := func(kind kb.HardwareKind, cap kb.Capability) {
		for i, k := range hardwareKinds {
			if k == kind {
				out[i] = append(out[i], cap)
			}
		}
	}
	for i := range c.kb.Systems {
		for kind, caps := range c.kb.Systems[i].RequiresCaps {
			for _, cap := range caps {
				add(kind, cap)
			}
		}
	}
	var atoms []string
	for _, r := range c.kb.Rules {
		atoms = r.Expr.Atoms(atoms[:0])
		for _, atom := range atoms {
			var kindStr, capStr string
			if parseCapAtom(atom, &kindStr, &capStr) {
				add(kb.HardwareKind(kindStr), kb.Capability(capStr))
			}
		}
	}
	for i := range out {
		slices.Sort(out[i])
		out[i] = slices.Compact(out[i])
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
	var lits []sat.Lit
	for i := range c.kb.Systems {
		s := &c.kb.Systems[i]
		sys := sat.Lit(c.sysVar(s.Name))

		if len(s.RequiresCaps) > 0 {
			kinds := make([]string, 0, len(s.RequiresCaps))
			for kind := range s.RequiresCaps {
				kinds = append(kinds, string(kind))
			}
			sort.Strings(kinds)
			lits = lits[:0]
			for _, kindStr := range kinds {
				kind := kb.HardwareKind(kindStr)
				for _, cap := range s.RequiresCaps[kind] {
					lits = append(lits, sat.Lit(c.capVar(kind, cap)))
				}
			}
			c.requireAll(
				"system:"+s.Name+":caps",
				fmt.Sprintf("%s requires hardware capabilities %v", s.Name, s.RequiresCaps),
				sys, lits)
		}
		if len(s.RequiresSystems) > 0 {
			lits = lits[:0]
			for _, d := range s.RequiresSystems {
				lits = append(lits, sat.Lit(c.sysVar(d)))
			}
			c.requireAll(
				"system:"+s.Name+":deps",
				fmt.Sprintf("%s requires %v", s.Name, s.RequiresSystems),
				sys, lits)
		}
		for gi, group := range s.RequiresAnyOf {
			lits = append(lits[:0], -sys)
			for _, d := range group {
				lits = append(lits, sat.Lit(c.sysVar(d)))
			}
			c.guardClause(
				fmt.Sprintf("system:%s:anyof:%d", s.Name, gi),
				fmt.Sprintf("%s requires one of %v", s.Name, group),
				lits...)
		}
		if len(s.ConflictsWith) > 0 {
			lits = lits[:0]
			for _, d := range s.ConflictsWith {
				lits = append(lits, -sat.Lit(c.sysVar(d)))
			}
			c.requireAll(
				"system:"+s.Name+":conflicts",
				fmt.Sprintf("%s conflicts with %v", s.Name, s.ConflictsWith),
				sys, lits)
		}
		if len(s.RequiresContext) > 0 {
			lits = lits[:0]
			for _, cond := range s.RequiresContext {
				l := sat.Lit(c.ctxVar(cond.Atom))
				if !cond.Value {
					l = -l
				}
				lits = append(lits, l)
			}
			c.requireAll(
				"system:"+s.Name+":context",
				fmt.Sprintf("%s requires context %v", s.Name, s.RequiresContext),
				sys, lits)
		}
		if s.AppModification {
			c.guardClause(
				"system:"+s.Name+":app_modification",
				fmt.Sprintf("%s requires modifying applications", s.Name),
				-sys, sat.Lit(c.ctxVar("app_modifiable")))
		}
	}
}

// requireAll asserts, under the named selector, that the deployed
// system sys implies every literal of lits. One literal makes one
// clause, the one the formula converts to; more take the formula, whose
// conjunction needs a Tseitin auxiliary.
func (c *compiled) requireAll(name, note string, sys sat.Lit, lits []sat.Lit) {
	if len(lits) == 1 {
		c.guardClause(name, note, -sys, lits[0])
		return
	}
	conj := make([]logic.Formula, len(lits))
	for i, l := range lits {
		conj[i] = logic.V(logic.Var(l.Var()))
		if l.Neg() {
			conj[i] = logic.Not(conj[i])
		}
	}
	c.assertGuarded(name, note, logic.Implies(logic.V(logic.Var(sys)), logic.And(conj...)))
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
		c.clauses.Add(-sat.Lit(c.propVar(kb.Property(p))))
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
		name := "structural:exclusive:" + string(role)
		note := fmt.Sprintf("at most one %s may be deployed fleet-wide", role)
		for i := 0; i < len(systems); i++ {
			for j := i + 1; j < len(systems); j++ {
				c.guardClause(name, note,
					-sat.Lit(c.sysVar(systems[i].Name)), -sat.Lit(c.sysVar(systems[j].Name)))
			}
		}
	}
	stacks := c.kb.SystemsByRole(kb.RoleNetworkStack)
	if len(stacks) > 0 {
		opts := make([]sat.Lit, len(stacks))
		for i, s := range stacks {
			opts[i] = sat.Lit(c.sysVar(s.Name))
		}
		c.guardClause(
			"structural:need_network_stack",
			"common-sense: every server fleet runs some network stack (§3.4)",
			opts...)
	}
}

// ruleConstraints asserts every free-form KB rule under its own selector.
// A rule's system: and hw: atoms resolve through sysLit and hwLit, which
// the vocabulary does not index. A hw: atom for a SKU outside the
// scenario's candidates names
// hardware the design cannot select, so after the rules each such atom
// is pinned false (unguarded, like the at-most-one ladder), once, in
// order of first mention.
func (c *compiled) ruleConstraints() {
	var off []sat.Lit
	atom := func(name string) logic.Var {
		if sys, ok := strings.CutPrefix(name, "system:"); ok {
			return c.sysVar(sys)
		}
		sku, ok := strings.CutPrefix(name, "hw:")
		if !ok {
			return c.vocab.Get(name)
		}
		if l := c.hwLit[sku]; l != 0 {
			return logic.Var(l)
		}
		v := c.vocab.Get(name)
		if !slices.Contains(off, -sat.Lit(v)) {
			off = append(off, -sat.Lit(v))
		}
		return v
	}
	for _, r := range c.kb.Rules {
		f, err := r.Expr.Compile(atom)
		if err != nil {
			panic(fmt.Sprintf("core: rule %q failed to compile after validation: %v", r.Name, err))
		}
		c.assertGuarded("rule:"+r.Name, r.Note, f)
	}
	for _, l := range off {
		c.clauses.Add(l)
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
		l := sat.Lit(c.ctxVar(a))
		if !c.pinnedCtx[a] {
			l = -l
		}
		c.guardClause(
			"context:"+a,
			fmt.Sprintf("environment fact: %s=%v", a, c.pinnedCtx[a]),
			l)
	}
}

// workloadConstraints asserts every workload's needs.
func (c *compiled) workloadConstraints() {
	for _, w := range c.workloads {
		for _, p := range w.Needs {
			c.guardClause(
				fmt.Sprintf("workload:%s:needs:%s", w.Name, p),
				fmt.Sprintf("workload %s needs %s", w.Name, p),
				sat.Lit(c.propVar(p)))
		}
	}
	for _, p := range c.sc.Require {
		c.guardClause(
			fmt.Sprintf("require:%s", p),
			fmt.Sprintf("architect requires %s", p),
			sat.Lit(c.propVar(p)))
	}
}

// scenarioPins asserts pinned and forbidden systems.
func (c *compiled) scenarioPins() {
	for _, s := range c.sc.PinnedSystems {
		c.guardClause(
			"pin:system:"+s,
			fmt.Sprintf("architect pinned %s as deployed", s),
			sat.Lit(c.sysVar(s)))
	}
	for _, s := range c.sc.ForbiddenSystems {
		c.guardClause(
			"forbid:system:"+s,
			fmt.Sprintf("architect forbade %s", s),
			-sat.Lit(c.sysVar(s)))
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
		var qualifying []sat.Lit
		for i := range c.kb.Systems {
			name := c.kb.Systems[i].Name
			ok := resolved.Better(name, b.Reference)
			if !b.Strict {
				ok = ok || name == b.Reference || resolved.Equal(name, b.Reference)
			}
			if ok {
				qualifying = append(qualifying, c.sysLit[name])
			}
		}
		c.guardClause(
			fmt.Sprintf("bound:%s:better_than:%s", b.Dimension, b.Reference),
			fmt.Sprintf("performance bound: deployed %s choice must beat %s", b.Dimension, b.Reference),
			qualifying...)
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
	c.coresTotal = c.kindTotal(kb.KindServer, func(h *kb.Hardware) int64 { return c.mul(h.Q(kb.ResCores), ns) })

	// Cores consumed: workload peaks + per-system overheads.
	var wlCores int64
	for _, w := range c.workloads {
		wlCores = c.add(wlCores, w.PeakCores)
	}
	terms := []intlin.Int{c.arith.Const(wlCores)}
	for i := range c.kb.Systems {
		s := &c.kb.Systems[i]
		cost := c.add(c.mul(s.Resources[kb.ResCores], ns), c.mul(s.CoresPerKFlows, c.totalKFlows))
		if cost > 0 {
			terms = append(terms, c.arith.ScaledBool(c.sysLit[s.Name], cost))
		}
	}
	c.coresUsed = c.sum(terms...)
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
		wlMem = c.add(wlMem, w.PeakMemoryGB)
	}
	if wlMem > 0 {
		cxlOn := c.pinnedCtx["cxl_pooling"]
		memTotal := c.kindTotal(kb.KindServer, func(h *kb.Hardware) int64 {
			m := c.mul(h.Q(kb.ResMemoryGB), ns)
			if cxlOn && h.HasCap(kb.CapCXL) {
				m = c.add(m, m/2)
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
			n := int64(len(w.DeployedAt))
			share := c.add(w.PeakCores, n-1) / n
			for _, r := range w.DeployedAt {
				rackDemand[r] = c.add(rackDemand[r], share)
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
				if c.mul(h.Q(kb.ResCores), int64(max(nRack, 0))) < rackDemand[r] {
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
		used := c.sum(qosTerms...)
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
	used := c.sum(terms...)
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
		terms[i] = c.kindTotal(kind, func(h *kb.Hardware) int64 { return c.mul(per(h), n) })
	}
	return c.sum(terms...)
}

// fleetBound checks, without building it, that hardwareTotal(per,
// kinds...) stays within int64: the largest fleet-scaled value of each
// kind, summed.
func (c *compiled) fleetBound(per func(*kb.Hardware) int64, kinds ...kb.HardwareKind) {
	var total int64
	for _, kind := range kinds {
		n := c.fleetCount(kind)
		var most int64
		for _, h := range c.allowedHardware(kind) {
			most = max(most, c.mul(per(h), n))
		}
		total = c.add(total, most)
	}
}

// mul and add are the compile's checked arithmetic over the
// non-negative quantities that a validated KB and the scenario supply: a
// result beyond int64 sets c.overflow and reads 0, so compileUnprobed
// fails instead of encoding a wrapped quantity.
func (c *compiled) mul(a, b int64) int64 {
	if a == 0 || b <= math.MaxInt64/a {
		return a * b
	}
	c.overflow = true
	return 0
}

func (c *compiled) add(a, b int64) int64 {
	if s := a + b; s >= 0 {
		return s
	}
	c.overflow = true
	return 0
}

// sum is arith.Sum with the circuit's maximum checked (see mul).
func (c *compiled) sum(terms ...intlin.Int) intlin.Int {
	var most int64
	for _, t := range terms {
		most = c.add(most, t.Max())
	}
	if c.overflow {
		return c.arith.Const(0)
	}
	return c.arith.Sum(terms...)
}

// costModel builds the total hardware cost and the optional budget cap.
// Unlike power and ports, cost lives on the base: the MaxCostUSD budget
// selector constrains it on every query.
func (c *compiled) costModel() {
	c.costTotal = c.hardwareTotal(func(h *kb.Hardware) int64 { return h.CostUSD },
		kb.KindServer, kb.KindNIC, kb.KindSwitch)
	// Power and ports are summed on every design (designFrom) and built
	// as circuits only on instances that optimize them (powerModel,
	// portModel): bound them here, so no query over this base can wrap.
	c.fleetBound(unitPower, kb.KindServer, kb.KindNIC, kb.KindSwitch)
	c.fleetBound(unitPorts, kb.KindSwitch)
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
	return c.hardwareTotal(unitPower, kb.KindServer, kb.KindNIC, kb.KindSwitch)
}

func unitPower(h *kb.Hardware) int64 { return h.Q(kb.ResPowerW) }
func unitPorts(h *kb.Hardware) int64 { return h.Q(kb.ResPortCount) }

// portModel builds the fabric's total switch port count (selected
// switch's ports times the switch count) for the MinimizePorts
// objective, on the query instance like powerModel.
func (c *compiled) portModel() intlin.Int {
	return c.hardwareTotal(unitPorts, kb.KindSwitch)
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
	for _, hws := range c.cands {
		for _, h := range hws {
			if lit(c.hwLit[h.Name]) {
				d.Hardware[h.Kind] = h.Name
				n := c.fleetCount(h.Kind)
				powerW += h.Q(kb.ResPowerW) * n
				if h.Kind == kb.KindSwitch {
					ports += h.Q(kb.ResPortCount) * n
				}
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
