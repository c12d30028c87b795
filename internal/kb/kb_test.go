package kb

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"unsafe"
)

// tinyKB builds a small but representative knowledge base used across the
// package tests: the SIMON encoding of Listing 2, a dependent stack, and
// supporting hardware.
func tinyKB() *KB {
	return &KB{
		Systems: []System{
			{
				Name:   "simon",
				Role:   RoleMonitoring,
				Solves: []Property{"capture_delays", "detect_queue_length"},
				RequiresCaps: map[HardwareKind][]Capability{
					KindNIC: {CapNICTimestamps},
				},
				CoresPerKFlows: 2,
				Maturity:       "research",
				Notes:          map[string]string{"solves": "NSDI'19"},
			},
			{
				Name:     "pingmesh",
				Role:     RoleMonitoring,
				Solves:   []Property{"capture_delays"},
				Maturity: "production",
			},
			{
				Name:            "shenango",
				Role:            RoleNetworkStack,
				Solves:          []Property{"low_latency_stack"},
				RequiresCaps:    map[HardwareKind][]Capability{KindNIC: {CapInterruptPoll}},
				Resources:       map[Resource]int64{ResCores: 1},
				RequiresContext: []Condition{{Atom: "deadline_tight", Value: false}},
				Maturity:        "research",
			},
			{
				Name:           "annulus",
				Role:           RoleCongestionControl,
				Solves:         []Property{"congestion_control"},
				RequiresCaps:   map[HardwareKind][]Capability{KindSwitch: {CapQCN}},
				UsefulOnlyWhen: []Condition{{Atom: "wan_dc_mix", Value: true}},
				ConflictsWith:  []string{"cubic"},
			},
			{
				Name:   "cubic",
				Role:   RoleCongestionControl,
				Solves: []Property{"congestion_control"},
			},
		},
		Hardware: []Hardware{
			{
				Name: "nic-ts100", Kind: KindNIC,
				Caps:  []Capability{CapNICTimestamps, CapInterruptPoll},
				Quant: map[Resource]int64{ResBandwidthGbps: 100},
			},
			{
				Name: "switch-qcn", Kind: KindSwitch,
				Caps:  []Capability{CapQCN, CapECN},
				Quant: map[Resource]int64{ResPortCount: 32, ResBufferMB: 64},
			},
			{
				Name: "server-std", Kind: KindServer,
				Quant: map[Resource]int64{ResCores: 64, ResMemoryGB: 256},
			},
		},
		Workloads: []Workload{
			{
				Name:              "inference_app",
				Properties:        []string{"dc_flows", "short_flows", "high_priority"},
				DeployedAt:        []string{"rack0", "rack1", "rack2"},
				PeakCores:         2800,
				PeakBandwidthGbps: 30,
				KFlows:            40,
				Needs:             []Property{"congestion_control"},
			},
		},
		Rules: []Rule{
			{
				Name: "pfc_no_flooding",
				Expr: Implies(CtxAtom("pfc_enabled"), Not(CtxAtom("flooding_enabled"))),
				Note: "RDMA at scale, SIGCOMM'16",
			},
		},
		Orders: []OrderSpec{
			{
				Dimension: "monitoring",
				Edges: []OrderEdge{
					{Better: "simon", Worse: "pingmesh", Note: "accuracy"},
				},
			},
			{
				Dimension: "deployment_ease",
				Edges: []OrderEdge{
					{Better: "pingmesh", Worse: "simon", Note: "no SmartNIC needed"},
				},
			},
		},
	}
}

func TestTinyKBValid(t *testing.T) {
	if err := tinyKB().Validate(); err != nil {
		t.Fatalf("tiny KB must validate: %v", err)
	}
}

func TestLookups(t *testing.T) {
	k := tinyKB()
	if k.SystemByName("simon") == nil || k.SystemByName("ghost") != nil {
		t.Error("SystemByName wrong")
	}
	if k.HardwareByName("nic-ts100") == nil || k.HardwareByName("x") != nil {
		t.Error("HardwareByName wrong")
	}
	if k.WorkloadByName("inference_app") == nil || k.WorkloadByName("x") != nil {
		t.Error("WorkloadByName wrong")
	}
	if got := len(k.SystemsByRole(RoleMonitoring)); got != 2 {
		t.Errorf("SystemsByRole(monitoring): got %d, want 2", got)
	}
	if got := len(k.HardwareByKind(KindNIC)); got != 1 {
		t.Errorf("HardwareByKind(nic): got %d, want 1", got)
	}
	if k.OrderByDimension("monitoring") == nil || k.OrderByDimension("x") != nil {
		t.Error("OrderByDimension wrong")
	}
}

func TestHardwareAccessors(t *testing.T) {
	k := tinyKB()
	h := k.HardwareByName("nic-ts100")
	if !h.HasCap(CapNICTimestamps) || h.HasCap(CapP4) {
		t.Error("HasCap wrong")
	}
	if h.Q(ResBandwidthGbps) != 100 || h.Q(ResCores) != 0 {
		t.Error("Q wrong")
	}
}

func TestSystemAccessors(t *testing.T) {
	s := tinyKB().SystemByName("simon")
	if !s.SolvesProp("capture_delays") || s.SolvesProp("nope") {
		t.Error("SolvesProp wrong")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*KB)
		want   string
	}{
		{"dup system", func(k *KB) { k.Systems = append(k.Systems, k.Systems[0]) }, "duplicate system"},
		{"bad role", func(k *KB) { k.Systems[0].Role = "router" }, "unknown role"},
		{"bad maturity", func(k *KB) { k.Systems[0].Maturity = "beta" }, "maturity"},
		{"unknown dep", func(k *KB) { k.Systems[0].RequiresSystems = []string{"ghost"} }, "unknown system"},
		{"self conflict", func(k *KB) { k.Systems[0].ConflictsWith = []string{"simon"} }, "conflicts with itself"},
		{"unknown conflict", func(k *KB) { k.Systems[0].ConflictsWith = []string{"ghost"} }, "unknown system"},
		{"empty anyof", func(k *KB) { k.Systems[0].RequiresAnyOf = [][]string{{}} }, "empty any-of"},
		{"neg resource", func(k *KB) { k.Systems[0].Resources = map[Resource]int64{ResCores: -1} }, "negative resource"},
		{"dup hardware", func(k *KB) { k.Hardware = append(k.Hardware, k.Hardware[0]) }, "duplicate hardware"},
		{"bad kind", func(k *KB) { k.Hardware[0].Kind = "gpu" }, "unknown kind"},
		{"neg quant", func(k *KB) { k.Hardware[0].Quant = map[Resource]int64{ResCores: -2} }, "negative quantity"},
		{"neg cost", func(k *KB) { k.Hardware[0].CostUSD = -100 }, "negative cost_usd"},
		{"dup workload", func(k *KB) { k.Workloads = append(k.Workloads, k.Workloads[0]) }, "duplicate workload"},
		{"neg workload", func(k *KB) { k.Workloads[0].PeakCores = -5 }, "negative quantities"},
		{"bad rule expr", func(k *KB) { k.Rules[0].Expr = Expr{Op: "xor"} }, "unknown expression op"},
		{"bad rule atom", func(k *KB) { k.Rules[0].Expr = Atom("system:ghost") }, "unknown system"},
		{"bad atom ns", func(k *KB) { k.Rules[0].Expr = Atom("planet:mars") }, "unknown namespace"},
		{"malformed atom", func(k *KB) { k.Rules[0].Expr = Atom("noseparator") }, "malformed atom"},
		{"self order edge", func(k *KB) { k.Orders[0].Edges[0].Worse = "simon" }, "self edge"},
		{"dup dimension", func(k *KB) { k.Orders = append(k.Orders, OrderSpec{Dimension: "monitoring"}) }, "duplicate order dimension"},
		{"bad cap atom", func(k *KB) { k.Rules[0].Expr = Atom("cap:nic") }, "malformed capability atom"},
		{"bad cap kind", func(k *KB) { k.Rules[0].Expr = Atom("cap:gpu:ECN") }, "unknown kind"},
	}
	for _, c := range cases {
		k := tinyKB()
		c.mutate(k)
		err := k.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestMerge(t *testing.T) {
	a := tinyKB()
	b := &KB{
		Systems: []System{{Name: "sonata", Role: RoleMonitoring}},
		Orders: []OrderSpec{
			{Dimension: "monitoring", Edges: []OrderEdge{{Better: "sonata", Worse: "pingmesh"}}},
			{Dimension: "cost", Edges: []OrderEdge{{Better: "pingmesh", Worse: "sonata"}}},
		},
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.SystemByName("sonata") == nil {
		t.Error("merged system missing")
	}
	if got := len(a.OrderByDimension("monitoring").Edges); got != 2 {
		t.Errorf("merged order edges: got %d, want 2", got)
	}
	if a.OrderByDimension("cost") == nil {
		t.Error("new dimension missing after merge")
	}
	// Duplicate merge must fail.
	if err := a.Merge(&KB{Systems: []System{{Name: "simon", Role: RoleMonitoring}}}); err == nil {
		t.Error("duplicate system merge must fail")
	}
	if err := a.Merge(&KB{Hardware: []Hardware{{Name: "nic-ts100", Kind: KindNIC}}}); err == nil {
		t.Error("duplicate hardware merge must fail")
	}
	if err := a.Merge(&KB{Workloads: []Workload{{Name: "inference_app"}}}); err == nil {
		t.Error("duplicate workload merge must fail")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	k := tinyKB()
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	k2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(k2.Systems) != len(k.Systems) || len(k2.Hardware) != len(k.Hardware) {
		t.Fatal("roundtrip lost entries")
	}
	s := k2.SystemByName("simon")
	if s == nil || !s.SolvesProp("capture_delays") || s.CoresPerKFlows != 2 {
		t.Error("roundtrip lost system fields")
	}
	if k2.Rules[0].Expr.String() != k.Rules[0].Expr.String() {
		t.Error("roundtrip changed rule expression")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown fields must be rejected")
	}
}

// TestDecodeErrors gives one row per rule Decode enforces: the three
// rules stricter than encoding/json, and the encoding/json rules it
// keeps. Each row pins the rule, the byte offset (that of at, the first
// occurrence of the marker) and the field path.
func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name, in string
		rule     DecodeRule
		at       string // marks the offset; "" is the end of the input
		path     string
	}{
		// Stricter than encoding/json.
		{"top-level null", ` null`, DecodeOneObject, "null", ""},
		{"trailing data", `{} trailing`, DecodeOneObject, "trailing", ""},
		{"second object", `{"rules":[]}{}`, DecodeOneObject, "{}", ""},
		{"key case", `{"Systems":[]}`, DecodeKeyCase, `"Systems"`, "Systems"},
		{"folded key", `{"hardware":[{"NAME":"x"}]}`, DecodeKeyCase, `"NAME"`, "hardware[0].NAME"},
		{"repeated field", `{"hardware":[{"name":"a","name":"b"}]}`, DecodeDuplicateKey, `"name":"b"`, "hardware[0].name"},
		{"repeated escaped field", `{"rules":[{"note":"","n\u006fte":""}]}`, DecodeDuplicateKey, `"n\u006fte"`, "rules[0].note"},
		{"repeated map key", `{"hardware":[{},{},{},{"quant":{"ports":1,"ports":2}}]}`, DecodeDuplicateKey, `"ports":2`, "hardware[3].quant.ports"},
		// encoding/json's rules.
		{"unknown field", `{"bogus": 1}`, DecodeUnknownField, `"bogus"`, "bogus"},
		{"unknown nested field", `{"orders":[{"edges":[{"better":"a","best":"b"}]}]}`, DecodeUnknownField, `"best"`, "orders[0].edges[0].best"},
		{"fraction in int", `{"hardware":[{"cost_usd":1.0}]}`, DecodeInt, "1.0", "hardware[0].cost_usd"},
		{"exponent in int", `{"workloads":[{"kflows":1e3}]}`, DecodeInt, "1e3", "workloads[0].kflows"},
		{"int overflow", `{"systems":[{"resources":{"cores":9223372036854775808}}]}`, DecodeInt, "9223", "systems[0].resources.cores"},
		{"string in int", `{"workloads":[{"peak_cores":"1"}]}`, DecodeType, `"1"`, "workloads[0].peak_cores"},
		{"number in string", `{"systems":[{"name":7}]}`, DecodeType, "7", "systems[0].name"},
		{"object in list", `{"systems":{}}`, DecodeType, "{}", "systems"},
		{"string in bool", `{"systems":[{"requires_context":[{"value":"true"}]}]}`, DecodeType, `"true"`, "systems[0].requires_context[0].value"},
		{"top-level array", `[]`, DecodeOneObject, "[]", ""},
		{"map key with spaces", `{"hardware":[{"attrs":{"Form factor":1}}]}`, DecodeType, "1", `hardware[0].attrs["Form factor"]`},
		{"missing comma", `{"systems":[] "rules":[]}`, DecodeSyntax, `"rules"`, "systems"},
		{"bad escape", `{"rules":[{"name":"a\qb"}]}`, DecodeSyntax, `\q`, "rules[0].name"},
		{"bad unicode escape", `{"rules":[{"name":"\u12x4"}]}`, DecodeSyntax, `\u`, "rules[0].name"},
		{"control character", "{\"rules\":[{\"note\":\"a\tb\"}]}", DecodeSyntax, "\t", "rules[0].note"},
		{"bad literal", `{"systems":[{"app_modification":tru}]}`, DecodeSyntax, "}", "systems[0].app_modification"},
		{"truncated", `{"systems":[{"name":"a"`, DecodeSyntax, "", "systems[0].name"},
		{"empty", ``, DecodeSyntax, "", ""},
		{"too deep", `{"rules":[{"expr":` + strings.Repeat(`{"args":[`, 4998) + `{"args":[]}`, DecodeDepth, "[]}", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, err := Decode([]byte(tc.in))
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("Decode = %v, %v; want a *DecodeError", k, err)
			}
			off := len(tc.in)
			if tc.at != "" {
				off = strings.Index(tc.in, tc.at)
			}
			path := tc.path
			if tc.rule == DecodeDepth {
				path = "rules[0].expr" + strings.Repeat(".args[0]", 6) + "…" +
					strings.Repeat(".args[0]", 7) + ".args"
			}
			if k != nil || de.Rule != tc.rule || de.Offset != off || de.Path != path {
				t.Errorf("got rule %v, offset %d, path %q (%v); want %v, %d, %q",
					de.Rule, de.Offset, de.Path, err, tc.rule, off, path)
			}
		})
	}
}

// TestDecodeSharesStrings: equal strings in one document share one
// allocation, and none aliases the input.
func TestDecodeSharesStrings(t *testing.T) {
	in := []byte(`{"systems":[{"name":"a","role":"monitoring","solves":["p"]},` +
		`{"name":"b","role":"monitoring","resources":{"p":1}}]}`)
	k, err := Decode(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i] = '#'
	}
	a, b := k.Systems[0], k.Systems[1]
	if a.Name != "a" || a.Role != RoleMonitoring || a.Solves[0] != "p" || b.Resources["p"] != 1 {
		t.Fatalf("decoded strings changed with the input: %+v", k.Systems)
	}
	if unsafe.StringData(string(a.Role)) != unsafe.StringData(string(b.Role)) {
		t.Error("the two roles are separate allocations")
	}
	for key := range b.Resources {
		if unsafe.StringData(string(key)) != unsafe.StringData(string(a.Solves[0])) {
			t.Error("the map key and the list element are separate allocations")
		}
	}
}

// TestLoadRejectsDeepExpr: a rule whose expression nests not 100,000
// deep is a DecodeError, not a stack overflow.
func TestLoadRejectsDeepExpr(t *testing.T) {
	_, err := Load(strings.NewReader(deepExprKB(100_000)))
	var de *DecodeError
	if !errors.As(err, &de) || de.Rule != DecodeDepth {
		t.Fatalf("Load = %v; want a DecodeError for depth", err)
	}
}

// deepExprKB is a KB JSON document whose one rule nests n nots.
func deepExprKB(n int) string {
	return `{"rules":[{"name":"deep","expr":` + strings.Repeat(`{"op":"not","args":[`, n) +
		`{"op":"true"}` + strings.Repeat(`]}`, n) + `}]}`
}

func TestLoadRejectsInvalid(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"systems":[{"name":"x","role":"bad"}]}`)); err == nil {
		t.Error("invalid KB must be rejected at load")
	}
}

func TestComputeStats(t *testing.T) {
	k := tinyKB()
	st := k.ComputeStats()
	if st.Systems != 5 || st.Hardware != 3 || st.Workloads != 1 || st.Rules != 1 {
		t.Errorf("counts wrong: %+v", st)
	}
	if st.OrderEdges != 2 {
		t.Errorf("order edges: got %d, want 2", st.OrderEdges)
	}
	if st.SpecSize <= st.Systems+st.Hardware {
		t.Errorf("SpecSize implausibly small: %d", st.SpecSize)
	}
	// Linearity sanity: doubling disjoint content roughly doubles size.
	k2 := tinyKB()
	for i := range k2.Systems {
		k2.Systems[i].Name += "_2"
		k2.Systems[i].RequiresSystems = nil
		k2.Systems[i].ConflictsWith = nil
	}
	for i := range k2.Hardware {
		k2.Hardware[i].Name += "_2"
	}
	for i := range k2.Workloads {
		k2.Workloads[i].Name += "_2"
	}
	k2.Orders = nil
	k2.Rules = nil
	base := st.SpecSize
	if err := k.Merge(k2); err != nil {
		t.Fatal(err)
	}
	grown := k.ComputeStats().SpecSize
	if grown <= base || grown > 2*base {
		t.Errorf("spec growth not linear-ish: %d -> %d", base, grown)
	}
}
