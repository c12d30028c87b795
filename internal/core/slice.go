package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"

	"netarch/internal/kb"
)

// Relevance-filtered compilation (DESIGN.md §16). Before encoding, the
// engine computes the cone of influence of a scenario — the set of
// systems, rules and hardware SKUs that can possibly affect the verdict
// — and compiles only that slice of the knowledge base. At 50k SKUs the
// full encoding spends almost all of its time on hardware candidates
// and rule shards no query answer ever depends on; the slice shrinks
// the encoding back to case-study size while staying provably
// answer-equivalent (make differential).
//
// The slice is computed from a *slice request*: the scenario's shape
// plus every query-side field that can pull knowledge into relevance —
// required properties, workload needs, pinned systems, bound
// references, and the *names* (not values) of pinned context atoms.
// Two queries with the same request share one slice and therefore one
// compiled base; the request is part of the cache key (sliceKeySuffix)
// and of the snapshot envelope (version 5), so a cached sliced base can
// never alias a full one.
//
// Soundness argument (both directions, per verdict):
//
//   - sliced ⇒ full: a model of the sliced encoding extends to the full
//     encoding by switching every out-of-cone system off. All full-only
//     constraints are then satisfied: requirement implications are
//     vacuous, property definitions only gain false disjuncts, and
//     arithmetic terms contribute zero. Dropped rules are grouped into
//     connected components over shared atoms, and a component is only
//     dropped if all of its rules evaluate true under an assignment
//     with every system/property atom false and its context atoms
//     uniformly true or uniformly false — an assignment the full
//     encoding always permits, because the component (by construction)
//     shares no atom with anything the in-cone encoding constrains.
//   - full ⇒ sliced: a model of the full encoding maps into the slice
//     by switching out-of-cone systems off (nothing in-cone requires
//     them — the cone is closed under requirement edges, any-of groups,
//     order mentions and kept-rule mentions) and remapping a dominated
//     SKU to its surviving dominator (equal on every referenced
//     capability, no worse on any resource axis, no more expensive).
//
// ForbiddenSystems deliberately do NOT join the request: forbidding an
// out-of-cone system is trivially satisfiable (specialize()'s extraSys
// fallback pins a private fresh variable) and can never flip a verdict,
// because anything that could force the system on pulls it into the
// cone. This matters operationally — Engine.Check forbids every
// non-design system, and including those would degenerate every check
// slice to the full KB.

// SliceMode selects the engine's relevance-slicing policy.
type SliceMode int32

const (
	// SliceAuto slices only when the catalog is large enough for slicing
	// to pay for itself (> sliceAutoThreshold SKUs). The default.
	SliceAuto SliceMode = iota
	// SliceOff never slices.
	SliceOff
	// SliceOn always slices.
	SliceOn
)

// sliceAutoThreshold is the catalog size (total SKUs) above which
// SliceAuto starts slicing. Chosen above the ~200-SKU seed catalog
// because sliced enumeration has no projection contract: a slice omits
// the design classes that unobserved out-of-cone systems add, so
// EnumerateCtx refuses a sliced base (ErrSlicedEnumeration), and
// slicing seed-scale catalogs would turn their Enumerate and
// Disambiguate answers into refusals.
const sliceAutoThreshold = 512

// sliceMemoCap bounds the per-engine request→slice memo; the map is
// reset wholesale when it fills (requests are tiny to recompute).
const sliceMemoCap = 256

// String renders the mode as its flag spelling.
func (m SliceMode) String() string {
	switch m {
	case SliceOff:
		return "off"
	case SliceOn:
		return "on"
	default:
		return "auto"
	}
}

// ParseSliceMode parses -slice=on/off/auto.
func ParseSliceMode(s string) (SliceMode, error) {
	switch s {
	case "on":
		return SliceOn, nil
	case "off":
		return SliceOff, nil
	case "auto", "":
		return SliceAuto, nil
	}
	return SliceAuto, fmt.Errorf("core: unknown slice mode %q (want on, off or auto)", s)
}

// SetSliceMode sets the slicing policy. Safe to call concurrently with
// queries; takes effect for subsequent base compiles (cached bases keep
// the slice they were compiled with — their cache key names it).
func (e *Engine) SetSliceMode(m SliceMode) {
	if m != SliceOff && m != SliceOn {
		m = SliceAuto
	}
	e.sliceMode.Store(int32(m))
}

// sliceRequest is the canonical, order-independent summary of every
// scenario field that can affect slice membership. It holds only what
// the scenario says: workloads are kept by name and expanded into their
// needs and properties by computeSlice against the KB it slices, so
// UpdateKB recomputes a sliced base's cone under the incoming KB's
// workloads, not the outgoing ones.
type sliceRequest struct {
	shapeFP   string   // structural shape (workloads, fleet, hw restrictions, bounds)
	workloads []string // sorted: scenario workloads (empty: every KB workload)
	props     []string // sorted: sc.Require
	pins      []string // sorted: pinned systems
	ctxKeys   []string // sorted: names of scenario-pinned context atoms
	boundRefs []string // sorted: bound reference systems
	// mandatoryHW names SKUs that must survive dominance pruning
	// (scenario pins/allow-lists); restrictedKinds skips pruning for
	// kinds whose candidate set the scenario already restricts.
	mandatoryHW     []string
	restrictedKinds map[kb.HardwareKind]bool
}

// key is the memo key for the request (unique per canonical content).
func (r *sliceRequest) key() string {
	var b strings.Builder
	b.WriteString(r.shapeFP)
	b.WriteString("|w=")
	b.WriteString(strings.Join(r.workloads, ","))
	b.WriteString("|p=")
	b.WriteString(strings.Join(r.props, ","))
	b.WriteString("|s=")
	b.WriteString(strings.Join(r.pins, ","))
	b.WriteString("|c=")
	b.WriteString(strings.Join(r.ctxKeys, ","))
	b.WriteString("|b=")
	b.WriteString(strings.Join(r.boundRefs, ","))
	return b.String()
}

// sortedUnique sorts and dedups in place.
func sortedUnique(ss []string) []string {
	sort.Strings(ss)
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// deriveSliceRequest canonicalizes a scenario into a slice request, or
// nil when the scenario references unknown workloads (the unsliced
// compile then reports the proper error).
func deriveSliceRequest(k *kb.KB, sc *Scenario, shape *Scenario) *sliceRequest {
	req := &sliceRequest{shapeFP: shape.fingerprint()}
	for _, name := range sc.Workloads {
		if k.WorkloadByName(name) == nil {
			return nil
		}
		req.workloads = append(req.workloads, name)
	}
	for _, p := range sc.Require {
		req.props = append(req.props, string(p))
	}
	req.pins = append(req.pins, sc.PinnedSystems...)
	for a := range sc.Context {
		req.ctxKeys = append(req.ctxKeys, a)
	}
	// deriveContext always pins load_ge_40gbps (derived or user-set).
	req.ctxKeys = append(req.ctxKeys, "load_ge_40gbps")
	for _, b := range sc.Bounds {
		req.boundRefs = append(req.boundRefs, b.Reference)
	}
	req.restrictedKinds = map[kb.HardwareKind]bool{}
	for kind, name := range sc.PinnedHardware {
		req.restrictedKinds[kind] = true
		req.mandatoryHW = append(req.mandatoryHW, name)
	}
	for kind, names := range sc.AllowedHardware {
		req.restrictedKinds[kind] = true
		req.mandatoryHW = append(req.mandatoryHW, names...)
	}
	req.workloads = sortedUnique(req.workloads)
	req.props = sortedUnique(req.props)
	req.pins = sortedUnique(req.pins)
	req.ctxKeys = sortedUnique(req.ctxKeys)
	req.boundRefs = sortedUnique(req.boundRefs)
	req.mandatoryHW = sortedUnique(req.mandatoryHW)
	return req
}

// kbSlice is a computed cone-of-influence slice: the sub-KB to compile
// plus its identity and size accounting.
type kbSlice struct {
	id  string // short content hash; part of the cache key and envelope
	req *sliceRequest
	sub *kb.KB

	systemsIn, systemsKept int
	rulesIn, rulesKept     int
	skusIn, skusKept       int
}

// sliceKeySuffix extends a shape fingerprint into the sliced cache key.
// Unsliced bases keep the bare fingerprint, so turning slicing on can
// never alias a full base.
func sliceKeySuffix(sl *kbSlice) string {
	if sl == nil {
		return ""
	}
	return "|slice:" + sl.id
}

// sliceFor resolves the slice for a scenario under the current mode,
// memoized per (KB generation, request). Returns nil when slicing is
// off, below the auto threshold, or the request cannot be derived.
func (e *Engine) sliceFor(k *kb.KB, gen uint64, sc *Scenario, shape *Scenario) *kbSlice {
	switch SliceMode(e.sliceMode.Load()) {
	case SliceOff:
		return nil
	case SliceAuto:
		if len(k.Hardware) <= sliceAutoThreshold {
			return nil
		}
	}
	req := deriveSliceRequest(k, sc, shape)
	if req == nil {
		return nil
	}
	key := fmt.Sprintf("%d|%s", gen, req.key())
	e.sliceMu.Lock()
	if sl, ok := e.sliceMemo[key]; ok {
		e.sliceMu.Unlock()
		e.sliceHits.Add(1)
		return sl
	}
	e.sliceMu.Unlock()
	// Compute off-lock: deterministic, so a racing duplicate is merely
	// redundant work, never an inconsistency.
	sl := computeSlice(k, req)
	e.sliceMu.Lock()
	if e.sliceMemo == nil || len(e.sliceMemo) >= sliceMemoCap {
		e.sliceMemo = make(map[string]*kbSlice, sliceMemoCap)
	}
	if prior, ok := e.sliceMemo[key]; ok {
		sl = prior
		e.sliceMu.Unlock()
	} else {
		e.sliceMemo[key] = sl
		e.sliceMu.Unlock()
		e.sliceComputed.Add(1)
		e.sliceSKUsIn.Add(int64(sl.skusIn))
		e.sliceSKUsKept.Add(int64(sl.skusKept))
	}
	return sl
}

// invalidateSliceMemoLocked drops memoized slices; callers hold e.mu
// (the memo has its own lock, but invalidation points already serialize
// on the engine lock).
func (e *Engine) invalidateSliceMemo() {
	e.sliceMu.Lock()
	e.sliceMemo = nil
	e.sliceMu.Unlock()
}

// atom namespace tests for slice membership.
func atomSystem(a string) (string, bool) { return strings.CutPrefix(a, "system:") }
func atomCtx(a string) (string, bool)    { return strings.CutPrefix(a, "ctx:") }
func atomProp(a string) (string, bool)   { return strings.CutPrefix(a, "prop:") }
func atomHw(a string) (string, bool)     { return strings.CutPrefix(a, "hw:") }

// computeSlice runs the cone-of-influence fixpoint and builds the
// sub-KB. Deterministic: iteration is over catalog order and sorted
// sets only.
func computeSlice(k *kb.KB, req *sliceRequest) *kbSlice {
	sysIdx := make(map[string]int, len(k.Systems))
	for i := range k.Systems {
		sysIdx[k.Systems[i].Name] = i
	}
	providersOf := map[string][]int{}
	for i := range k.Systems {
		for _, p := range k.Systems[i].Solves {
			providersOf[string(p)] = append(providersOf[string(p)], i)
		}
	}

	inCone := make([]bool, len(k.Systems))
	activeCtx := map[string]bool{}  // ctx atoms tied to in-cone structure
	activeProp := map[string]bool{} // prop atoms tied to in-cone structure
	var queue []int

	addSys := func(i int) {
		if i >= 0 && !inCone[i] {
			inCone[i] = true
			queue = append(queue, i)
		}
	}
	addSysName := func(name string) {
		if i, ok := sysIdx[name]; ok {
			addSys(i)
		}
	}
	// pullProp marks a property as referenced by the sliced encoding:
	// every provider must join the cone so the sliced property
	// definition equals the full one.
	pullProp := func(p string) {
		activeProp[p] = true
		for _, i := range providersOf[p] {
			addSys(i)
		}
	}

	// Seeds: providers of every needed property (the scenario's
	// requirements and its workloads' needs); pinned systems; every
	// network-stack system (the structural at-least-one disjunction is
	// always asserted); every order-mentioned system plus bound
	// references (performance bounds quantify over them); and the
	// context atoms the scenario and its workloads pin.
	for _, p := range req.props {
		pullProp(p)
	}
	// Workloads resolve against k, as compiled.pickWorkloads does: no
	// names means every KB workload, and a name k lacks contributes
	// nothing (compiling the sliced base reports it).
	for i := range k.Workloads {
		w := &k.Workloads[i]
		if len(req.workloads) > 0 && !slices.Contains(req.workloads, w.Name) {
			continue
		}
		for _, p := range w.Needs {
			pullProp(string(p))
		}
		for _, a := range w.Properties {
			activeCtx[a] = true
		}
	}
	for _, name := range req.pins {
		addSysName(name)
	}
	for i := range k.Systems {
		if k.Systems[i].Role == kb.RoleNetworkStack {
			addSys(i)
		}
	}
	for _, spec := range k.Orders {
		for _, e := range spec.Edges {
			addSysName(e.Better)
			addSysName(e.Worse)
		}
		for _, q := range spec.Equals {
			addSysName(q.A)
			addSysName(q.B)
		}
	}
	for _, name := range req.boundRefs {
		addSysName(name)
	}
	for _, a := range req.ctxKeys {
		activeCtx[a] = true
	}

	ruleAtoms := make([][]string, len(k.Rules))
	for ri := range k.Rules {
		ruleAtoms[ri] = k.Rules[ri].Expr.Atoms(nil)
	}
	ruleKept := make([]bool, len(k.Rules))
	mandatoryHw := map[string]bool{}
	for _, name := range req.mandatoryHW {
		mandatoryHw[name] = true
	}

	// keepRule marks a rule in-cone and activates its atoms.
	keepRule := func(ri int) {
		ruleKept[ri] = true
		for _, a := range ruleAtoms[ri] {
			if name, ok := atomSystem(a); ok {
				addSysName(name)
			} else if name, ok := atomCtx(a); ok {
				activeCtx[name] = true
			} else if name, ok := atomProp(a); ok {
				pullProp(name)
			} else if name, ok := atomHw(a); ok {
				mandatoryHw[name] = true
			}
		}
	}

	for {
		changed := false
		// Close the system cone under requirement edges; activate the
		// atoms each newly coned system is structurally tied to.
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			s := &k.Systems[i]
			changed = true
			for _, d := range s.RequiresSystems {
				addSysName(d)
			}
			for _, group := range s.RequiresAnyOf {
				for _, d := range group {
					addSysName(d)
				}
			}
			for _, cond := range s.RequiresContext {
				activeCtx[cond.Atom] = true
			}
			for _, cond := range s.UsefulOnlyWhen {
				activeCtx[cond.Atom] = true
			}
			if s.AppModification {
				activeCtx["app_modifiable"] = true
			}
			// Solves makes the property atom depend on this system, so
			// rules mentioning it must be kept — but providers are only
			// pulled if some kept constraint references the property.
			for _, p := range s.Solves {
				if !activeProp[string(p)] {
					activeProp[string(p)] = true
				}
			}
		}
		// Keep every rule that mentions an active atom. Capability and
		// hardware atoms are always active: they are tied to the per-kind
		// SKU selection, which every scenario constrains.
		for ri := range k.Rules {
			if ruleKept[ri] {
				continue
			}
			mention := false
			for _, a := range ruleAtoms[ri] {
				if name, ok := atomSystem(a); ok {
					if i, known := sysIdx[name]; known && inCone[i] {
						mention = true
					}
				} else if name, ok := atomCtx(a); ok {
					if activeCtx[name] {
						mention = true
					}
				} else if name, ok := atomProp(a); ok {
					if activeProp[name] {
						mention = true
					}
				} else {
					// cap:/hw:/unknown namespaces: always active.
					mention = true
				}
				if mention {
					break
				}
			}
			if mention {
				keepRule(ri)
				changed = true
			}
		}
		if changed {
			continue
		}
		// Stable: check that every still-unkept rule component is
		// genuinely droppable — satisfiable by the canonical "everything
		// irrelevant is off" witness (system/prop atoms false, its ctx
		// atoms uniformly false or uniformly true). Components that are
		// not get conservatively kept, which reactivates the fixpoint.
		if !dropComponentsOrKeep(k, ruleAtoms, ruleKept, keepRule) {
			break
		}
	}

	keepHw := pruneHardware(k, inCone, ruleAtoms, ruleKept, mandatoryHw, req.restrictedKinds)

	sub := &kb.KB{Workloads: k.Workloads, Orders: k.Orders}
	for i := range k.Systems {
		if inCone[i] {
			sub.Systems = append(sub.Systems, k.Systems[i])
		}
	}
	for i := range k.Hardware {
		if keepHw[i] {
			sub.Hardware = append(sub.Hardware, k.Hardware[i])
		}
	}
	for ri := range k.Rules {
		if ruleKept[ri] {
			sub.Rules = append(sub.Rules, k.Rules[ri])
		}
	}

	sl := &kbSlice{
		req:       req,
		sub:       sub,
		systemsIn: len(k.Systems), systemsKept: len(sub.Systems),
		rulesIn: len(k.Rules), rulesKept: len(sub.Rules),
		skusIn: len(k.Hardware), skusKept: len(sub.Hardware),
	}
	h := sha256.New()
	for _, s := range sub.Systems {
		h.Write([]byte(s.Name))
		h.Write([]byte{0})
	}
	h.Write([]byte{1})
	for _, hw := range sub.Hardware {
		h.Write([]byte(hw.Name))
		h.Write([]byte{0})
	}
	h.Write([]byte{1})
	for _, r := range sub.Rules {
		h.Write([]byte(r.Name))
		h.Write([]byte{0})
	}
	sum := h.Sum(nil)
	sl.id = hex.EncodeToString(sum[:8])
	return sl
}

// dropComponentsOrKeep partitions the unkept rules into connected
// components over shared atoms and verifies each component evaluates
// true under the drop witness (system/prop atoms false, ctx atoms
// uniformly false or uniformly true). Components failing the check are
// kept via keepRule. Returns true if anything was kept (fixpoint must
// continue), false when every remaining component is provably
// droppable.
func dropComponentsOrKeep(k *kb.KB, ruleAtoms [][]string, ruleKept []bool, keepRule func(int)) bool {
	// Union-find over unkept rule indices, unioned through shared atoms.
	parent := map[int]int{}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	atomOwner := map[string]int{}
	for ri := range k.Rules {
		if ruleKept[ri] {
			continue
		}
		parent[ri] = ri
		for _, a := range ruleAtoms[ri] {
			if prev, ok := atomOwner[a]; ok {
				union(prev, ri)
			} else {
				atomOwner[a] = ri
			}
		}
	}
	okFalse := map[int]bool{}
	okTrue := map[int]bool{}
	for ri := range parent {
		root := find(ri)
		if _, seen := okFalse[root]; !seen {
			okFalse[root], okTrue[root] = true, true
		}
	}
	for ri := range parent {
		root := find(ri)
		if !evalDropWitness(k.Rules[ri].Expr, false) {
			okFalse[root] = false
		}
		if !evalDropWitness(k.Rules[ri].Expr, true) {
			okTrue[root] = false
		}
	}
	keptAny := false
	// Deterministic order: scan rules, not map order.
	for ri := range k.Rules {
		if ruleKept[ri] {
			continue
		}
		root := find(ri)
		if !okFalse[root] && !okTrue[root] {
			keepRule(ri)
			keptAny = true
		}
	}
	return keptAny
}

// evalDropWitness evaluates a rule under the drop witness: system,
// prop, hw and cap atoms false (out-of-cone structure is off; rules
// with cap/hw atoms are never candidates for dropping anyway), ctx
// atoms uniformly ctxVal.
func evalDropWitness(e kb.Expr, ctxVal bool) bool {
	switch e.Op {
	case "atom":
		if _, ok := atomCtx(e.Atom); ok {
			return ctxVal
		}
		return false
	case "true":
		return true
	case "false":
		return false
	case "not":
		return !evalDropWitness(e.Args[0], ctxVal)
	case "and":
		for _, a := range e.Args {
			if !evalDropWitness(a, ctxVal) {
				return false
			}
		}
		return true
	case "or":
		for _, a := range e.Args {
			if evalDropWitness(a, ctxVal) {
				return true
			}
		}
		return false
	case "implies":
		return !evalDropWitness(e.Args[0], ctxVal) || evalDropWitness(e.Args[1], ctxVal)
	case "iff":
		return evalDropWitness(e.Args[0], ctxVal) == evalDropWitness(e.Args[1], ctxVal)
	}
	// Unknown op: never claim satisfied (conservative — rule gets kept).
	return false
}

// smallerBetterQuant reports resource axes where less is at least as
// good: power feeds only the minimized power total, and switch port
// count only the minimized port total. Every other quantity either
// relaxes a lower-bound budget (cores, memory, stages, SRAM, QoS,
// bandwidth) or is unused by the circuits, where assuming bigger-better
// only makes dominance stricter — never unsound.
func smallerBetterQuant(kind kb.HardwareKind, res kb.Resource) bool {
	if res == kb.ResPowerW {
		return true
	}
	return kind == kb.KindSwitch && res == kb.ResPortCount
}

// pruneHardware drops dominated SKUs per kind. Candidates are grouped
// by their signature over the capabilities the sliced encoding can
// observe (cone systems' RequiresCaps, kept rules' cap atoms, and CXL
// for servers — the memory model reads it); within a group, capability
// semantics are identical, so a SKU that is no better on any quantity
// axis and no cheaper than a surviving SKU can never change a verdict,
// an optimum, or a Pareto frontier. Kinds the scenario restricts
// (pinned/allow-listed) keep exactly their restricted set; mandatory
// SKUs (pins, rule mentions) always survive.
func pruneHardware(k *kb.KB, inCone []bool, ruleAtoms [][]string, ruleKept []bool,
	mandatory map[string]bool, restricted map[kb.HardwareKind]bool) []bool {

	observable := map[kb.HardwareKind]map[kb.Capability]bool{
		kb.KindSwitch: {}, kb.KindNIC: {}, kb.KindServer: {kb.CapCXL: true},
	}
	for i := range k.Systems {
		if !inCone[i] {
			continue
		}
		for kind, caps := range k.Systems[i].RequiresCaps {
			if m, ok := observable[kind]; ok {
				for _, c := range caps {
					m[c] = true
				}
			}
		}
	}
	for ri := range k.Rules {
		if !ruleKept[ri] {
			continue
		}
		for _, a := range ruleAtoms[ri] {
			var kindStr, capStr string
			if parseCapAtom(a, &kindStr, &capStr) {
				if m, ok := observable[kb.HardwareKind(kindStr)]; ok {
					m[kb.Capability(capStr)] = true
				}
			}
		}
	}

	keep := make([]bool, len(k.Hardware))
	type group struct{ kept []int } // surviving SKU indices, cost-ascending
	groups := map[string]*group{}
	sig := func(h *kb.Hardware) string {
		obs := observable[h.Kind]
		var caps []string
		for _, c := range h.Caps {
			if obs[c] {
				caps = append(caps, string(c))
			}
		}
		sort.Strings(caps)
		return string(h.Kind) + "|" + strings.Join(caps, ",")
	}
	// dominates reports a ≥ b on every axis (a no worse everywhere).
	dominates := func(a, b *kb.Hardware) bool {
		if a.CostUSD > b.CostUSD {
			return false
		}
		for res, bv := range b.Quant {
			av := a.Q(res)
			if smallerBetterQuant(a.Kind, res) {
				if av > bv {
					return false
				}
			} else if av < bv {
				return false
			}
		}
		for res, av := range a.Quant {
			if _, ok := b.Quant[res]; ok {
				continue
			}
			// Axis only a has: a's value must be on the good side of b's
			// implicit zero.
			if smallerBetterQuant(a.Kind, res) && av > 0 {
				return false
			}
		}
		return true
	}

	// Cost-ascending pass per kind: a SKU survives unless an
	// already-surviving group member dominates it. Sorting by cost makes
	// the surviving set a proper skyline prefix and keeps the scan
	// near-linear; ties resolve to catalog order, so byte-identical
	// firmware clones collapse onto the earliest listing.
	idx := make([]int, 0, len(k.Hardware))
	for i := range k.Hardware {
		idx = append(idx, i)
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return k.Hardware[idx[x]].CostUSD < k.Hardware[idx[y]].CostUSD
	})
	for _, i := range idx {
		h := &k.Hardware[i]
		if restricted[h.Kind] {
			keep[i] = mandatory[h.Name]
			continue
		}
		if mandatory[h.Name] {
			keep[i] = true
			continue
		}
		g := groups[sig(h)]
		if g == nil {
			g = &group{}
			groups[sig(h)] = g
		}
		dominated := false
		for _, j := range g.kept {
			if dominates(&k.Hardware[j], h) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep[i] = true
			g.kept = append(g.kept, i)
		}
	}
	return keep
}
