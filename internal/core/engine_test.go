package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
)

// miniKB is a small hand-built knowledge base with one system per concept
// under test, so failures localize.
func miniKB() *kb.KB {
	return &kb.KB{
		Systems: []kb.System{
			{Name: "linux", Role: kb.RoleNetworkStack,
				Solves: []kb.Property{"kernel_network_stack"}, Maturity: "production"},
			{Name: "shenango", Role: kb.RoleNetworkStack,
				Solves:          []kb.Property{"low_latency_stack"},
				RequiresCaps:    map[kb.HardwareKind][]kb.Capability{kb.KindNIC: {kb.CapInterruptPoll}},
				RequiresContext: []kb.Condition{{Atom: "deadline_tight", Value: false}},
				Resources:       map[kb.Resource]int64{kb.ResCores: 1},
				Maturity:        "research"},
			{Name: "cubic", Role: kb.RoleCongestionControl,
				Solves: []kb.Property{"congestion_control"}, Maturity: "production"},
			{Name: "dctcp", Role: kb.RoleCongestionControl,
				Solves:       []kb.Property{"congestion_control"},
				RequiresCaps: map[kb.HardwareKind][]kb.Capability{kb.KindSwitch: {kb.CapECN}},
				Maturity:     "production"},
			{Name: "annulus", Role: kb.RoleCongestionControl,
				Solves:         []kb.Property{"congestion_control", "tail_latency_control"},
				RequiresCaps:   map[kb.HardwareKind][]kb.Capability{kb.KindSwitch: {kb.CapQCN}},
				UsefulOnlyWhen: []kb.Condition{{Atom: "wan_dc_mix", Value: true}},
				Maturity:       "research"},
			{Name: "sonata", Role: kb.RoleMonitoring,
				Solves:       []kb.Property{"detect_queue_length"},
				RequiresCaps: map[kb.HardwareKind][]kb.Capability{kb.KindSwitch: {kb.CapP4}},
				Resources:    map[kb.Resource]int64{kb.ResP4Stages: 8},
				Maturity:     "research"},
			{Name: "marple", Role: kb.RoleMonitoring,
				Solves:       []kb.Property{"flow_telemetry"},
				RequiresCaps: map[kb.HardwareKind][]kb.Capability{kb.KindSwitch: {kb.CapP4}},
				Resources:    map[kb.Resource]int64{kb.ResP4Stages: 10},
				Maturity:     "research"},
			{Name: "roce", Role: kb.RoleTransport,
				Solves:          []kb.Property{"low_latency_transport"},
				RequiresContext: []kb.Condition{{Atom: "pfc_enabled", Value: true}},
				Maturity:        "production"},
		},
		Hardware: []kb.Hardware{
			{Name: "sw-fixed", Kind: kb.KindSwitch,
				Quant: map[kb.Resource]int64{kb.ResBandwidthGbps: 100}, CostUSD: 5000},
			{Name: "sw-ecn", Kind: kb.KindSwitch, Caps: []kb.Capability{kb.CapECN},
				Quant: map[kb.Resource]int64{kb.ResBandwidthGbps: 100}, CostUSD: 8000},
			{Name: "sw-p4", Kind: kb.KindSwitch,
				Caps:    []kb.Capability{kb.CapECN, kb.CapP4, kb.CapQCN},
				Quant:   map[kb.Resource]int64{kb.ResBandwidthGbps: 100, kb.ResP4Stages: 12},
				CostUSD: 20000},
			{Name: "sw-p4-big", Kind: kb.KindSwitch,
				Caps:    []kb.Capability{kb.CapECN, kb.CapP4, kb.CapQCN},
				Quant:   map[kb.Resource]int64{kb.ResBandwidthGbps: 100, kb.ResP4Stages: 20},
				CostUSD: 30000},
			{Name: "nic-basic", Kind: kb.KindNIC,
				Quant: map[kb.Resource]int64{kb.ResBandwidthGbps: 25}, CostUSD: 300},
			{Name: "nic-poll", Kind: kb.KindNIC, Caps: []kb.Capability{kb.CapInterruptPoll},
				Quant: map[kb.Resource]int64{kb.ResBandwidthGbps: 100}, CostUSD: 900},
			{Name: "srv-small", Kind: kb.KindServer,
				Quant: map[kb.Resource]int64{kb.ResCores: 16}, CostUSD: 4000},
			{Name: "srv-big", Kind: kb.KindServer,
				Quant: map[kb.Resource]int64{kb.ResCores: 64}, CostUSD: 12000},
		},
		Rules: []kb.Rule{
			{Name: "pfc_no_flooding",
				Expr: kb.Implies(kb.CtxAtom("pfc_enabled"), kb.Not(kb.CtxAtom("flooding_enabled"))),
				Note: "PFC deadlocks under flooding"},
		},
		Orders: []kb.OrderSpec{
			{Dimension: "monitoring", Edges: []kb.OrderEdge{
				{Better: "sonata", Worse: "marple", Note: "test order"},
			}},
		},
	}
}

func mustEngine(t *testing.T, k *kb.KB) *Engine {
	t.Helper()
	e, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSynthesizeBasic(t *testing.T) {
	e := mustEngine(t, miniKB())
	rep, err := e.Synthesize(Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Feasible {
		t.Fatalf("empty scenario must be feasible: %v", rep.Explanation)
	}
	d := rep.Design
	// Common-sense rule: a network stack must be present.
	hasStack := d.HasSystem("linux") || d.HasSystem("shenango")
	if !hasStack {
		t.Errorf("design lacks a network stack: %v", d.Systems)
	}
	for _, kind := range []kb.HardwareKind{kb.KindSwitch, kb.KindNIC, kb.KindServer} {
		if d.Hardware[kind] == "" {
			t.Errorf("no %s selected", kind)
		}
	}
}

func TestRequirePropagatesToHardware(t *testing.T) {
	e := mustEngine(t, miniKB())
	// Require queue-length monitoring: only sonata solves it, which
	// needs a P4 switch.
	rep, err := e.Synthesize(Scenario{Require: []kb.Property{"detect_queue_length"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Feasible {
		t.Fatalf("infeasible: %v", rep.Explanation)
	}
	if !rep.Design.HasSystem("sonata") {
		t.Errorf("sonata must be deployed: %v", rep.Design.Systems)
	}
	sw := rep.Design.Hardware[kb.KindSwitch]
	if sw != "sw-p4" && sw != "sw-p4-big" {
		t.Errorf("a P4 switch must be selected, got %s", sw)
	}
}

func TestRuleConflictExplained(t *testing.T) {
	e := mustEngine(t, miniKB())
	rep, err := e.Synthesize(Scenario{
		Context: map[string]bool{"pfc_enabled": true, "flooding_enabled": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Infeasible {
		t.Fatal("PFC+flooding must be infeasible")
	}
	found := false
	for _, c := range rep.Explanation.Conflicts {
		if c.Name == "rule:pfc_no_flooding" {
			found = true
		}
	}
	if !found {
		t.Errorf("explanation must cite the PFC rule: %v", rep.Explanation)
	}
	// Minimality: the explanation should name the rule plus the two
	// context pins, nothing else.
	if n := len(rep.Explanation.Conflicts); n > 3 {
		t.Errorf("explanation not minimal: %d items: %v", n, rep.Explanation)
	}
}

func TestUsefulOnlyWhenGating(t *testing.T) {
	e := mustEngine(t, miniKB())
	// Forbid cubic and dctcp so only annulus could provide CC — but
	// without WAN/DC mix it is useless.
	sc := Scenario{
		Require:          []kb.Property{"congestion_control"},
		ForbiddenSystems: []string{"cubic", "dctcp"},
		Context:          map[string]bool{"wan_dc_mix": false},
	}
	rep, err := e.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Infeasible {
		t.Fatal("annulus without wan_dc_mix must not satisfy congestion_control")
	}
	// With the mix present it works.
	sc.Context["wan_dc_mix"] = true
	rep, err = e.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Feasible {
		t.Fatalf("annulus with wan_dc_mix must work: %v", rep.Explanation)
	}
	if !rep.Design.HasSystem("annulus") {
		t.Errorf("annulus must be deployed: %v", rep.Design.Systems)
	}
}

func TestResearchSystemBlockedByDeadline(t *testing.T) {
	e := mustEngine(t, miniKB())
	sc := Scenario{
		Require: []kb.Property{"low_latency_stack"},
		Context: map[string]bool{"deadline_tight": true},
	}
	rep, err := e.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Infeasible {
		t.Fatal("shenango under a tight deadline must be infeasible")
	}
	sc.Context["deadline_tight"] = false
	rep, err = e.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Feasible || !rep.Design.HasSystem("shenango") {
		t.Fatalf("shenango must deploy without deadline: %+v", rep)
	}
	if rep.Design.Hardware[kb.KindNIC] != "nic-poll" {
		t.Errorf("shenango needs the interrupt-polling NIC, got %s",
			rep.Design.Hardware[kb.KindNIC])
	}
}

func TestP4StageBudget(t *testing.T) {
	e := mustEngine(t, miniKB())
	// sonata(8) + marple(10) = 18 stages: doesn't fit sw-p4 (12), fits
	// sw-p4-big (20).
	sc := Scenario{
		Require: []kb.Property{"detect_queue_length", "flow_telemetry"},
		AllowedHardware: map[kb.HardwareKind][]string{
			kb.KindSwitch: {"sw-p4"},
		},
	}
	rep, err := e.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Infeasible {
		t.Fatal("18 stages must not fit a 12-stage switch")
	}
	cites := false
	for _, c := range rep.Explanation.Conflicts {
		if strings.Contains(c.Name, "p4_stages") {
			cites = true
		}
	}
	if !cites {
		t.Errorf("explanation must cite the stage budget: %v", rep.Explanation)
	}

	sc.AllowedHardware[kb.KindSwitch] = []string{"sw-p4", "sw-p4-big"}
	rep, err = e.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Feasible {
		t.Fatalf("20-stage switch must fit both: %v", rep.Explanation)
	}
	if rep.Design.Hardware[kb.KindSwitch] != "sw-p4-big" {
		t.Errorf("must pick the big switch, got %s", rep.Design.Hardware[kb.KindSwitch])
	}
}

func TestCoreBudget(t *testing.T) {
	k := miniKB()
	k.Workloads = append(k.Workloads, kb.Workload{
		Name: "heavy", PeakCores: 2000, Needs: []kb.Property{"congestion_control"},
	})
	e := mustEngine(t, k)
	// 48 small servers = 768 cores < 2000: must force srv-big (3072).
	rep, err := e.Synthesize(Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Feasible {
		t.Fatalf("infeasible: %v", rep.Explanation)
	}
	if rep.Design.Hardware[kb.KindServer] != "srv-big" {
		t.Errorf("big servers required, got %s", rep.Design.Hardware[kb.KindServer])
	}
	// Pinning small servers must be infeasible and explained.
	rep, err = e.Synthesize(Scenario{
		PinnedHardware: map[kb.HardwareKind]string{kb.KindServer: "srv-small"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Infeasible {
		t.Fatal("2000 cores on 768-core fleet must be infeasible")
	}
	cites := false
	for _, c := range rep.Explanation.Conflicts {
		if strings.Contains(c.Name, "resources:cores") {
			cites = true
		}
	}
	if !cites {
		t.Errorf("explanation must cite the core budget: %v", rep.Explanation)
	}
}

func TestNICBandwidthConstraint(t *testing.T) {
	k := miniKB()
	k.Workloads = append(k.Workloads, kb.Workload{
		Name: "fat", PeakBandwidthGbps: 80,
	})
	e := mustEngine(t, k)
	rep, err := e.Synthesize(Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Feasible {
		t.Fatalf("infeasible: %v", rep.Explanation)
	}
	if rep.Design.Hardware[kb.KindNIC] != "nic-poll" {
		t.Errorf("80G peak needs the 100G NIC, got %s", rep.Design.Hardware[kb.KindNIC])
	}
}

func TestCheckRejectsNonCompliantDesign(t *testing.T) {
	e := mustEngine(t, miniKB())
	// dctcp on a non-ECN switch.
	bad := Design{
		Systems:  []string{"linux", "dctcp"},
		Hardware: map[kb.HardwareKind]string{kb.KindSwitch: "sw-fixed"},
	}
	rep, err := e.Check(bad, Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Infeasible {
		t.Fatal("dctcp without ECN must fail Check")
	}
	cites := false
	for _, c := range rep.Explanation.Conflicts {
		if strings.Contains(c.Name, "system:dctcp:caps") {
			cites = true
		}
	}
	if !cites {
		t.Errorf("explanation must cite dctcp's capability requirement: %v", rep.Explanation)
	}
	// The same design on an ECN switch passes.
	good := bad
	good.Hardware = map[kb.HardwareKind]string{kb.KindSwitch: "sw-ecn"}
	rep, err = e.Check(good, Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Feasible {
		t.Fatalf("dctcp with ECN must pass: %v", rep.Explanation)
	}
}

func TestCheckUnknownNames(t *testing.T) {
	e := mustEngine(t, miniKB())
	if _, err := e.Check(Design{Systems: []string{"ghost"}}, Scenario{}); err == nil {
		t.Error("unknown system must error")
	}
	if _, err := e.Check(Design{
		Hardware: map[kb.HardwareKind]string{kb.KindSwitch: "ghost"},
	}, Scenario{}); err == nil {
		t.Error("unknown hardware must error")
	}
}

// TestFleetOverflowIsAnError pins that a fleet-scaled quantity or an
// arithmetic circuit's maximum beyond int64 fails the query with an
// error instead of encoding a wrapped value: 2^60 case-study switches at
// $571,200 each must not wrap the fleet cost into a FEASIBLE answer
// under a $2M cap.
func TestFleetOverflowIsAnError(t *testing.T) {
	hugeCores := miniKB()
	hugeCores.Workloads = []kb.Workload{
		{Name: "a", PeakCores: math.MaxInt64/2 + 1},
		{Name: "b", PeakCores: math.MaxInt64/2 + 1},
	}
	// One workload's cores fit, but not beside shenango's per-server core.
	coreCircuit := miniKB()
	coreCircuit.Workloads = []kb.Workload{{Name: "a", PeakCores: math.MaxInt64 - 1}}
	hugePower := miniKB()
	hugePower.Hardware[0].Quant[kb.ResPowerW] = 1 << 62
	free := miniKB()
	for i := range free.Hardware {
		free.Hardware[i].CostUSD = 0
	}
	for _, tc := range []struct {
		name string
		k    *kb.KB
		sc   Scenario
	}{
		{"case-study fleet cost", caseStudyKB(), Scenario{NumSwitches: 1 << 60, MaxCostUSD: 2_000_000, Workloads: []string{"inference_app"}}},
		{"switch cost", miniKB(), Scenario{NumSwitches: 1 << 60}},
		{"server cores", free, Scenario{NumServers: math.MaxInt / 8}},
		{"workload cores", hugeCores, Scenario{}},
		{"cores circuit", coreCircuit, Scenario{}},
		{"fleet power", hugePower, Scenario{}},
	} {
		rep, err := mustEngine(t, tc.k).Synthesize(tc.sc)
		if err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Errorf("%s: got %v (report %+v), want an overflow error", tc.name, err, rep)
		}
	}
	// A fleet whose quantities fit still answers.
	if _, err := mustEngine(t, miniKB()).Synthesize(Scenario{NumSwitches: 1 << 40}); err != nil {
		t.Errorf("a fleet of 2^40 switches fits int64: %v", err)
	}
}

func TestEnumerateDistinctSystemSets(t *testing.T) {
	e := mustEngine(t, miniKB())
	res, err := e.EnumerateCtx(context.Background(), Scenario{Require: []kb.Property{"congestion_control"}}, 10, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	designs := res.Designs
	if len(designs) < 2 {
		t.Fatalf("expected multiple equivalence classes, got %d", len(designs))
	}
	seen := map[string]bool{}
	for _, d := range designs {
		key := strings.Join(d.Systems, ",")
		if seen[key] {
			t.Errorf("duplicate system set %s", key)
		}
		seen[key] = true
	}
}

func TestOptimizeMinimizeSystemsAndCost(t *testing.T) {
	e := mustEngine(t, miniKB())
	res, err := e.Optimize(Scenario{Require: []kb.Property{"congestion_control"}},
		[]Objective{{Kind: MinimizeSystems}, {Kind: MinimizeCost}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Feasible {
		t.Fatalf("infeasible: %v", res.Explanation)
	}
	// Minimum: linux + cubic = 2 systems.
	if res.ObjectiveValues[0] != 2 {
		t.Errorf("min systems: got %d, want 2 (%v)", res.ObjectiveValues[0], res.Design.Systems)
	}
	// Cheapest hardware: sw-fixed + nic-basic + srv-small.
	wantCost := int64(4*5000 + 48*300 + 48*4000)
	if res.ObjectiveValues[1] != wantCost {
		t.Errorf("min cost: got %d, want %d", res.ObjectiveValues[1], wantCost)
	}
	if res.Design.Hardware[kb.KindSwitch] != "sw-fixed" {
		t.Errorf("cheapest switch expected, got %s", res.Design.Hardware[kb.KindSwitch])
	}
}

func TestOptimizeLexicographicDominance(t *testing.T) {
	e := mustEngine(t, miniKB())
	// Cost-first ordering may pick more systems if cheaper; system-first
	// must pick 2 systems even if hardware then costs more. Verify that
	// the first objective is never sacrificed.
	sysFirst, err := e.Optimize(Scenario{Require: []kb.Property{"detect_queue_length"}},
		[]Objective{{Kind: MinimizeSystems}, {Kind: MinimizeCost}})
	if err != nil {
		t.Fatal(err)
	}
	costFirst, err := e.Optimize(Scenario{Require: []kb.Property{"detect_queue_length"}},
		[]Objective{{Kind: MinimizeCost}, {Kind: MinimizeSystems}})
	if err != nil {
		t.Fatal(err)
	}
	if sysFirst.ObjectiveValues[0] > costFirst.ObjectiveValues[1] {
		t.Errorf("system-first found %d systems, cost-first %d — lexicographic order violated",
			sysFirst.ObjectiveValues[0], costFirst.ObjectiveValues[1])
	}
	if costFirst.ObjectiveValues[0] > sysFirst.ObjectiveValues[1] {
		t.Errorf("cost-first cost %d exceeds system-first cost %d",
			costFirst.ObjectiveValues[0], sysFirst.ObjectiveValues[1])
	}
}

func TestOptimizePreferOrder(t *testing.T) {
	e := mustEngine(t, miniKB())
	// Need both telemetry props; sonata > marple on "monitoring".
	// Monitoring isn't exclusive so both deploy; penalties should then be
	// 0 since sonata (the better one) is deployed.
	res, err := e.Optimize(Scenario{
		Require: []kb.Property{"detect_queue_length", "flow_telemetry"},
	}, []Objective{{Kind: PreferOrder, Dimension: "monitoring"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Feasible {
		t.Fatalf("infeasible: %v", res.Explanation)
	}
	if res.ObjectiveValues[0] != 0 {
		t.Errorf("deploying the better system should zero the penalty, got %d",
			res.ObjectiveValues[0])
	}
	if _, err := e.Optimize(Scenario{}, []Objective{{Kind: PreferOrder, Dimension: "nope"}}); err == nil {
		t.Error("unknown dimension must error")
	}
}

func TestPerformanceBound(t *testing.T) {
	e := mustEngine(t, catalog.CaseStudy())
	sc := Scenario{
		Workloads: []string{"inference_app"},
		Context:   map[string]bool{"app_modifiable": true},
		Bounds: []PerformanceBound{
			{Dimension: "load_balancing", Reference: "packet-spraying"},
		},
	}
	rep, err := e.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Feasible {
		t.Fatalf("infeasible: %v", rep.Explanation)
	}
	// Only packet-spraying itself qualifies (nothing beats it in the
	// load_balancing order).
	if !rep.Design.HasSystem("packet-spraying") {
		t.Errorf("bound must force packet-spraying: %v", rep.Design.Systems)
	}
	// NIC must then have large reorder buffers.
	nic := e.revision().kb.HardwareByName(rep.Design.Hardware[kb.KindNIC])
	if !nic.HasCap("LARGE_REORDER_BUFFER") {
		t.Errorf("packet spraying requires reorder buffers; NIC %s lacks them", nic.Name)
	}
}

func TestFullCatalogCaseStudyFeasible(t *testing.T) {
	e := mustEngine(t, catalog.CaseStudy())
	rep, err := e.Synthesize(Scenario{Workloads: []string{"inference_app"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Feasible {
		t.Fatalf("case study must be feasible: %v", rep.Explanation)
	}
	d := rep.Design
	// All three needs covered: CC, LB, queue monitoring.
	hasCC, hasLB, hasMon := false, false, false
	for _, s := range d.Systems {
		sys := e.revision().kb.SystemByName(s)
		for _, p := range sys.Solves {
			switch p {
			case "congestion_control":
				hasCC = true
			case "load_balancing":
				hasLB = true
			case "detect_queue_length":
				hasMon = true
			}
		}
	}
	if !hasCC || !hasLB || !hasMon {
		t.Errorf("needs uncovered (cc=%v lb=%v mon=%v): %v", hasCC, hasLB, hasMon, d.Systems)
	}
	if d.Metrics["cores_used"] > d.Metrics["cores_total"] {
		t.Errorf("core budget violated: %v", d.Metrics)
	}
}

func TestGreedyMinCoresCorrect(t *testing.T) {
	k := catalog.CaseStudy()
	g := NewGreedy(k)
	got := g.MinCores([]string{"inference_app"}, []string{"simon"})
	// inference_app peak 2800 + simon 2 cores/kflow × 50 kflows = 2900.
	if got != 2800+2*50 {
		t.Errorf("MinCores: got %d, want 2900", got)
	}
}

func TestGreedyFailsOnGlobalRule(t *testing.T) {
	// The §5.2 asymmetry: a scenario whose constraints interact globally.
	// Storage wants RoCE (needs pfc_enabled); the fabric has flooding
	// enabled. The rule pfc_no_flooding makes this infeasible — the SAT
	// engine says so; the greedy baseline happily produces a "design".
	k := catalog.Default()
	k.Workloads = append(k.Workloads, catalog.StorageWorkload())
	e := mustEngine(t, k)
	sc := Scenario{
		Workloads: []string{"storage_backend"},
		Context:   map[string]bool{"flooding_enabled": true, "pfc_enabled": true},
	}
	rep, err := e.Synthesize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Infeasible {
		t.Fatal("SAT engine must detect the PFC/flooding conflict")
	}

	g := NewGreedy(k)
	d, ok := g.Synthesize(sc)
	if !ok {
		t.Skip("greedy gave up; acceptable but not the documented behaviour")
	}
	// The greedy design claims success; Check must refute it under the
	// same context.
	chk, err := e.Check(*d, sc)
	if err != nil {
		t.Fatal(err)
	}
	if chk.Verdict != Infeasible {
		t.Error("greedy design unexpectedly passes the global check")
	}
}

func TestVerdictAndObjectiveStrings(t *testing.T) {
	if Feasible.String() != "FEASIBLE" || Infeasible.String() != "INFEASIBLE" {
		t.Error("verdict strings wrong")
	}
	if MinimizeCost.String() != "minimize_cost" || PreferOrder.String() != "prefer_order" {
		t.Error("objective strings wrong")
	}
	var ex *Explanation
	if ex.String() != "no explanation available" {
		t.Error("nil explanation string wrong")
	}
}

func TestUnknownWorkload(t *testing.T) {
	e := mustEngine(t, miniKB())
	if _, err := e.Synthesize(Scenario{Workloads: []string{"ghost"}}); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestNewRejectsInvalidKB(t *testing.T) {
	k := miniKB()
	k.Systems[0].Role = "bogus"
	if _, err := New(k); err == nil {
		t.Error("invalid KB must be rejected")
	}
}

// TestRuleHardwareOutsideCandidates: a rule's hw: atom for a SKU the
// scenario rules out is false, not a free variable. The rule demands the
// Cisco switch whenever linux is deployed; with linux pinned and the
// switch pinned to another SKU no design exists, sliced or not, and the
// explanation names the rule.
func TestRuleHardwareOutsideCandidates(t *testing.T) {
	const cisco = "Cisco Catalyst 9500-40X"
	k := caseStudyKB()
	k.Rules = append(k.Rules, kb.Rule{
		Name: "linux_needs_cisco",
		Expr: kb.Implies(kb.SystemAtom("linux"), kb.Atom("hw:"+cisco)),
	})
	sc := Scenario{
		Workloads:      []string{"inference_app"},
		PinnedSystems:  []string{"linux"},
		PinnedHardware: map[kb.HardwareKind]string{kb.KindSwitch: "Aristo FX-32x10G"},
	}
	for _, mode := range slicings {
		t.Run(mode.name, func(t *testing.T) {
			rep, err := slicingEngine(t, k, mode.above).Synthesize(sc)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict != Infeasible {
				t.Fatalf("verdict %v with switch %q; want INFEASIBLE", rep.Verdict, rep.Design.Hardware[kb.KindSwitch])
			}
			if !slices.ContainsFunc(rep.Explanation.Conflicts, func(c ConflictItem) bool { return c.Name == "rule:linux_needs_cisco" }) {
				t.Errorf("explanation %+v does not name the rule", rep.Explanation.Conflicts)
			}
		})
	}
}

// TestSKUAllowedTwice: a scenario that allows one SKU twice allows it
// once. The repeat used to make the SKU two candidates over one atom,
// which the exactly-one selection could never choose, so the switch
// list [Cisco, Cisco] was INFEASIBLE where [Cisco] is FEASIBLE. Both
// must select the Cisco switch, sliced and unsliced.
func TestSKUAllowedTwice(t *testing.T) {
	const cisco = "Cisco Catalyst 9500-40X"
	for _, mode := range slicings {
		t.Run(mode.name, func(t *testing.T) {
			e := slicingEngine(t, caseStudyKB(), mode.above)
			for _, allowed := range [][]string{{cisco}, {cisco, cisco}} {
				rep, err := e.Synthesize(Scenario{
					Workloads:       []string{"inference_app"},
					AllowedHardware: map[kb.HardwareKind][]string{kb.KindSwitch: allowed},
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Verdict != Feasible || rep.Design.Hardware[kb.KindSwitch] != cisco {
					t.Errorf("switches %q: verdict %v, design %+v; want FEASIBLE on %s", allowed, rep.Verdict, rep.Design, cisco)
				}
			}
		})
	}
}
