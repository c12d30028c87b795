package dsl

import (
	"strings"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
	"netarch/internal/logic"
)

const sampleDSL = `
# The SIMON encoding, Listing 2 of the paper, in DSL form.
system simon {
    role: monitoring
    solves: capture_delays, detect_queue_length
    requires nic: NIC_TIMESTAMPS
    cores-per-kflows: 2
    maturity: research
    note smartnic: "requires SmartNICs (2.3)"
}

system pingmesh {
    role: monitoring
    solves: capture_delays
    resource cores: 1
    maturity: production
}

system shenango {
    role: network_stack
    solves: low_latency_stack
    requires nic: INTERRUPT_POLLING, DPDK
    context: !deadline_tight
    resource cores: 1
    maturity: research
}

system cubic {
    role: congestion_control
    solves: congestion_control
    conflicts: annulus
}

system annulus {
    role: congestion_control
    solves: congestion_control
    requires switch: QCN
    useful-when: wan_dc_mix
    requires any-of: simon | pingmesh
}

hardware "Cisco Catalyst 9500-40X" {
    kind: switch
    vendor: Cisco
    caps: ECN
    quant ports: 40
    quant power_w: 950
    cost: 12000
    attr "Port Bandwidth": "10 Gbps"
}

hardware nic-ts {
    kind: nic
    caps: NIC_TIMESTAMPS, INTERRUPT_POLLING, DPDK
    quant bandwidth_gbps: 100
}

workload inference_app {
    properties: dc_flows, short_flows, high_priority
    deployed-at: rack0, rack1, rack2
    peak-cores: 2800
    peak-memory-gb: 900
    peak-bandwidth-gbps: 30
    kflows: 50
    needs: congestion_control
}

rule pfc_no_flooding: ctx:pfc_enabled -> !ctx:flooding_enabled  "Guo SIGCOMM'16"

order monitoring {
    simon > pingmesh  "accuracy"
}

order deployment_ease {
    pingmesh > simon when !ctx:smartnics_everywhere  "no SmartNIC needed"
    simon = pingmesh when ctx:smartnics_everywhere
}
`

func TestParseSample(t *testing.T) {
	k, err := ParseString(sampleDSL)
	if err != nil {
		t.Fatal(err)
	}
	simon := k.SystemByName("simon")
	if simon == nil {
		t.Fatal("simon missing")
	}
	if simon.Role != kb.RoleMonitoring || !simon.SolvesProp("capture_delays") ||
		simon.CoresPerKFlows != 2 || simon.Maturity != "research" {
		t.Errorf("simon fields wrong: %+v", simon)
	}
	if simon.Notes["smartnic"] != "requires SmartNICs (2.3)" {
		t.Errorf("simon note wrong: %q", simon.Notes["smartnic"])
	}
	sh := k.SystemByName("shenango")
	if len(sh.RequiresCaps[kb.KindNIC]) != 2 {
		t.Errorf("shenango caps wrong: %v", sh.RequiresCaps)
	}
	if len(sh.RequiresContext) != 1 || sh.RequiresContext[0] != (kb.Condition{Atom: "deadline_tight", Value: false}) {
		t.Errorf("shenango context wrong: %v", sh.RequiresContext)
	}
	ann := k.SystemByName("annulus")
	if len(ann.UsefulOnlyWhen) != 1 || ann.UsefulOnlyWhen[0].Atom != "wan_dc_mix" {
		t.Errorf("annulus useful-when wrong: %v", ann.UsefulOnlyWhen)
	}
	if len(ann.RequiresAnyOf) != 1 || len(ann.RequiresAnyOf[0]) != 2 {
		t.Errorf("annulus any-of wrong: %v", ann.RequiresAnyOf)
	}
	cisco := k.HardwareByName("Cisco Catalyst 9500-40X")
	if cisco == nil || cisco.Kind != kb.KindSwitch || cisco.Q("ports") != 40 ||
		cisco.CostUSD != 12000 || cisco.Attrs["Port Bandwidth"] != "10 Gbps" {
		t.Errorf("cisco wrong: %+v", cisco)
	}
	w := k.WorkloadByName("inference_app")
	if w == nil || w.PeakCores != 2800 || len(w.Properties) != 3 || w.KFlows != 50 {
		t.Errorf("workload wrong: %+v", w)
	}
	if len(k.Rules) != 1 || k.Rules[0].Note != "Guo SIGCOMM'16" {
		t.Errorf("rule wrong: %+v", k.Rules)
	}
	if len(k.Orders) != 2 {
		t.Fatalf("orders wrong: %+v", k.Orders)
	}
	ease := k.OrderByDimension("deployment_ease")
	if len(ease.Edges) != 1 || ease.Edges[0].Guard == nil {
		t.Errorf("guarded edge wrong: %+v", ease.Edges)
	}
	if len(ease.Equals) != 1 || ease.Equals[0].Guard == nil {
		t.Errorf("guarded equal wrong: %+v", ease.Equals)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"garbage top", "bogus line\n", "expected a top-level block"},
		{"missing brace", "system x\nrole: monitoring\n", "expected '{'"},
		{"unclosed block", "system x {\n role: monitoring\n", "missing closing"},
		{"unknown field", "system x {\n role: monitoring\n frobnicate: 1\n}\n", "unknown field"},
		{"bad number", "system x {\n role: monitoring\n resource cores: many\n}\n", "bad number"},
		{"bad rule expr", "rule r: ctx:a -> (\n", "expected atom"},
		{"bad order line", "order d {\n just words\n}\n", "expected 'a > b'"},
		{"empty anyof", "system x {\n role: monitoring\n requires any-of: \n}\n", "empty any-of"},
		{"kv missing", "system x {\n no colon here\n}\n", "expected 'key: value'"},
		{"invalid kb", "system x {\n role: nonsense\n}\n", "unknown role"},
	}
	for _, c := range cases {
		_, err := ParseString(c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := ParseString("system x {\n role: monitoring\n frobnicate: 1\n}\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("want line 3 in error, got %v", err)
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	src := `
# full-line comment
system x {        # trailing comment
    role: monitoring
    note why: "contains # not a comment"
}
`
	k, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if k.Systems[0].Notes["why"] != "contains # not a comment" {
		t.Errorf("quoted # mishandled: %q", k.Systems[0].Notes["why"])
	}
}

func TestExprParsePrecedence(t *testing.T) {
	cases := []struct {
		src  string
		want string // kb.Expr.String() rendering
	}{
		{"ctx:a", "ctx:a"},
		{"!ctx:a", "!(ctx:a)"},
		{"ctx:a & ctx:b | ctx:c", "((ctx:a & ctx:b) | ctx:c)"},
		{"ctx:a | ctx:b & ctx:c", "(ctx:a | (ctx:b & ctx:c))"},
		{"ctx:a -> ctx:b -> ctx:c", "(ctx:a -> (ctx:b -> ctx:c))"},
		{"(ctx:a | ctx:b) & ctx:c", "((ctx:a | ctx:b) & ctx:c)"},
		{"ctx:a <-> ctx:b", "(ctx:a <-> ctx:b)"},
		{"!(ctx:a & ctx:b)", "!((ctx:a & ctx:b))"},
		{"true -> false", "(true -> false)"},
		{"system:rdma-roce -> ctx:pfc_enabled", "(system:rdma-roce -> ctx:pfc_enabled)"},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if got := e.String(); got != c.want {
			t.Errorf("%q: got %s, want %s", c.src, got, c.want)
		}
	}
}

func TestExprParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "&", "ctx:a &", "ctx:a ctx:b", "(ctx:a", "ctx:a)", "-> ctx:a", "! & ctx:a",
	} {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

// exprSemanticsEqual compares two expressions by compiling both to logic
// over a shared vocabulary and brute-forcing all assignments.
func exprSemanticsEqual(t *testing.T, a, b kb.Expr) bool {
	t.Helper()
	vo := logic.NewVocabulary()
	fa, err := a.Compile(vo.Get)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Compile(vo.Get)
	if err != nil {
		t.Fatal(err)
	}
	// Compile allocated every variable either formula names.
	var vars []logic.Var
	for v := 1; v <= vo.Len(); v++ {
		vars = append(vars, logic.Var(v))
	}
	if len(vars) > 16 {
		t.Fatal("too many vars for brute force")
	}
	assign := map[logic.Var]bool{}
	for mask := 0; mask < 1<<len(vars); mask++ {
		for i, v := range vars {
			assign[v] = mask&(1<<i) != 0
		}
		if fa.Eval(assign) != fb.Eval(assign) {
			return false
		}
	}
	return true
}

func TestExprFormatRoundTrip(t *testing.T) {
	exprs := []string{
		"ctx:a -> !ctx:b",
		"(ctx:a | ctx:b) & !(ctx:c & ctx:d)",
		"ctx:a <-> ctx:b -> ctx:c",
		"!(ctx:a) | ctx:b & ctx:c",
		"system:x & (ctx:y -> prop:z)",
	}
	for _, src := range exprs {
		e1, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		e2, err := ParseExpr(FormatExpr(e1))
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", FormatExpr(e1), src, err)
		}
		if !exprSemanticsEqual(t, e1, e2) {
			t.Errorf("%q: format/parse changed semantics: %q", src, FormatExpr(e1))
		}
	}
}

func TestFormatParseRoundTripSample(t *testing.T) {
	k1, err := ParseString(sampleDSL)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(k1)
	k2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n---\n%s", err, text)
	}
	s1, s2 := k1.ComputeStats(), k2.ComputeStats()
	if s1 != s2 {
		t.Errorf("round trip changed stats: %+v vs %+v", s1, s2)
	}
	if k2.SystemByName("simon").Notes["smartnic"] != "requires SmartNICs (2.3)" {
		t.Error("round trip lost notes")
	}
}

func TestFullCatalogRoundTrip(t *testing.T) {
	// The entire seed compendium must survive DSL format -> parse.
	k1 := catalog.Default()
	text := Format(k1)
	k2, err := ParseString(text)
	if err != nil {
		t.Fatalf("catalog DSL reparse failed: %v", err)
	}
	s1, s2 := k1.ComputeStats(), k2.ComputeStats()
	if s1 != s2 {
		t.Errorf("catalog round trip changed stats: %+v vs %+v", s1, s2)
	}
	// Spot-check a guarded order edge survived with semantics intact.
	tp1 := k1.OrderByDimension("throughput")
	tp2 := k2.OrderByDimension("throughput")
	if len(tp1.Edges) != len(tp2.Edges) || len(tp1.Equals) != len(tp2.Equals) {
		t.Fatal("throughput order lost edges")
	}
	for i := range tp1.Edges {
		g1, g2 := tp1.Edges[i].Guard, tp2.Edges[i].Guard
		if (g1 == nil) != (g2 == nil) {
			t.Fatalf("edge %d guard presence changed", i)
		}
		if g1 != nil && !exprSemanticsEqual(t, *g1, *g2) {
			t.Errorf("edge %d guard semantics changed: %s vs %s", i, g1, g2)
		}
	}
	// And the rules.
	if len(k1.Rules) != len(k2.Rules) {
		t.Fatal("rules lost")
	}
	for i := range k1.Rules {
		if !exprSemanticsEqual(t, k1.Rules[i].Expr, k2.Rules[i].Expr) {
			t.Errorf("rule %s semantics changed", k1.Rules[i].Name)
		}
	}
}

func TestParsedKBDrivesEngine(t *testing.T) {
	// A DSL-authored KB must work end to end (the crowd-sourcing flow).
	k, err := ParseString(sampleDSL)
	if err != nil {
		t.Fatal(err)
	}
	// kb validity is checked in ParseString; compile an order.
	r, err := k.OrderByDimension("deployment_ease").Resolve(map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Better("pingmesh", "simon") {
		t.Error("guarded edge must be active when atom is false")
	}
	r2, err := k.OrderByDimension("deployment_ease").Resolve(map[string]bool{"smartnics_everywhere": true})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Equal("pingmesh", "simon") {
		t.Error("guarded equal must merge when atom is true")
	}
}
