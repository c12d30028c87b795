package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"netarch/internal/catalog"
	"netarch/internal/core"
	"netarch/internal/kb"
	"netarch/internal/sat"
)

// testServer builds, starts, and readies a server over the case-study
// KB; the caller gets its base URL. mutate (optional) adjusts the config
// before New.
func testServer(t *testing.T, mutate func(*Config)) (*Server, string) {
	t.Helper()
	eng, err := core.New(catalog.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Engine:       eng,
		Addr:         "127.0.0.1:0",
		MaxInFlight:  4,
		QueueDepth:   8,
		DrainTimeout: 5 * time.Second,
		Prewarm:      []core.Scenario{{Workloads: []string{"inference_app"}}},
		Logf:         t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatalf("server never became ready: %v", err)
	}
	return s, "http://" + s.Addr()
}

// post sends one query and returns the status plus decoded body (into
// out when non-nil); the raw bytes always come back for error reporting.
func post(t *testing.T, url string, req any, out any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("status %d: body is not valid JSON for %T: %v\n%s", resp.StatusCode, out, err, raw)
		}
	}
	return resp.StatusCode, raw
}

func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode
}

// checkStatsReconcile asserts the /statsz invariant: for every mode,
// requests == ok + degraded + shed + errors — at any instant, not just
// at quiesce.
func checkStatsReconcile(t *testing.T, st *StatsResponse) {
	t.Helper()
	for mode, m := range st.Modes {
		if m.Requests != m.OK+m.Degraded+m.Shed+m.Errors {
			t.Errorf("mode %s does not reconcile: requests=%d ok=%d degraded=%d shed=%d errors=%d",
				mode, m.Requests, m.OK, m.Degraded, m.Shed, m.Errors)
		}
	}
}

var scInference = ScenarioJSON{Workloads: []string{"inference_app"}}

// TestServeModes drives one request through every query mode and the
// three observability endpoints, asserting well-formed responses that
// carry what the library engine answers on the same KB, and
// reconciling statsz.
func TestServeModes(t *testing.T) {
	_, base := testServer(t, nil)
	lib, err := core.New(catalog.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	// same compares a wire field with the library's answer rendered
	// through the same wire conversion.
	same := func(what string, got, want any) {
		t.Helper()
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from the library engine:\n serve %s\n   lib %s", what, g, w)
		}
	}
	inference := scInference.toScenario()

	// synth: a feasible scenario yields a design.
	var qr QueryResponse
	status, raw := post(t, base+"/v1/synth", QueryRequest{Scenario: scInference}, &qr)
	if status != http.StatusOK || qr.Verdict != "FEASIBLE" || qr.Design == nil {
		t.Fatalf("synth: status %d, verdict %q, design %v\n%s", status, qr.Verdict, qr.Design, raw)
	}
	rep, err := lib.Synthesize(inference)
	if err != nil {
		t.Fatal(err)
	}
	same("synth", []any{qr.Verdict, qr.Design}, []any{rep.Verdict.String(), designOut(rep.Design)})

	// check: the synthesized design must check out against its scenario.
	var cr QueryResponse
	witness := &DesignJSON{Systems: qr.Design.Systems, Hardware: qr.Design.Hardware}
	status, raw = post(t, base+"/v1/check", QueryRequest{Scenario: scInference, Design: witness}, &cr)
	if status != http.StatusOK || cr.Verdict != "FEASIBLE" {
		t.Fatalf("check: status %d verdict %q\n%s", status, cr.Verdict, raw)
	}
	if rep, err := lib.Check(witness.toDesign(), inference); err != nil {
		t.Fatal(err)
	} else {
		same("check", cr.Verdict, rep.Verdict.String())
	}

	// explain: an infeasible scenario yields a conflict explanation.
	var er QueryResponse
	explain := ScenarioJSON{
		Workloads:     []string{"inference_app"},
		PinnedSystems: []string{"simon"},
		Context:       map[string]bool{"lossless_fabric": false},
	}
	status, raw = post(t, base+"/v1/explain", QueryRequest{Scenario: explain}, &er)
	if status != http.StatusOK {
		t.Fatalf("explain: status %d\n%s", status, raw)
	}
	if er.Verdict == "INFEASIBLE" && (er.Explanation == nil || len(er.Explanation.Conflicts) == 0) {
		t.Fatalf("explain: infeasible with no conflicts\n%s", raw)
	}
	if rep, err := lib.Synthesize(explain.toScenario()); err != nil {
		t.Fatal(err)
	} else {
		same("explain", &Outcome{Verdict: er.Verdict, Explanation: er.Explanation},
			&Outcome{Verdict: rep.Verdict.String(), Explanation: explanationOut(rep.Explanation)})
	}

	// whatif: base vs delta, two outcomes.
	var wr QueryResponse
	status, raw = post(t, base+"/v1/whatif", QueryRequest{
		Scenario: scInference,
		Delta:    &DeltaJSON{Context: map[string]bool{"lossless_fabric": false}},
	}, &wr)
	if status != http.StatusOK || wr.Before == nil || wr.After == nil {
		t.Fatalf("whatif: status %d before=%v after=%v\n%s", status, wr.Before, wr.After, raw)
	}
	for _, o := range []struct {
		what string
		got  *Outcome
		sc   core.Scenario
	}{
		{"whatif before", wr.Before, inference},
		{"whatif after", wr.After, (&DeltaJSON{Context: map[string]bool{"lossless_fabric": false}}).apply(inference)},
	} {
		rep, err := lib.Synthesize(o.sc)
		if err != nil {
			t.Fatal(err)
		}
		same(o.what, o.got, outcomeOf(rep))
	}

	// enumerate: bounded class enumeration.
	var nr QueryResponse
	status, raw = post(t, base+"/v1/enumerate", QueryRequest{Scenario: scInference, Max: 4}, &nr)
	if status != http.StatusOK {
		t.Fatalf("enumerate: status %d\n%s", status, raw)
	}
	if len(nr.Designs) == 0 {
		t.Fatalf("enumerate returned no designs\n%s", raw)
	}
	if res, err := lib.EnumerateCtx(context.Background(), inference, 4, core.Budget{}); err != nil {
		t.Fatal(err)
	} else {
		var designs []*DesignOut
		for _, d := range res.Designs {
			designs = append(designs, designOut(d))
		}
		same("enumerate", nr.Designs, designs)
	}

	// optimize: a certified cost optimum.
	var or QueryResponse
	status, raw = post(t, base+"/v1/optimize", QueryRequest{Scenario: scInference, Objectives: []string{"cost"}}, &or)
	if status != http.StatusOK {
		t.Fatalf("optimize: status %d\n%s", status, raw)
	}
	if res, err := lib.Optimize(inference, []core.Objective{{Kind: core.MinimizeCost}}); err != nil {
		t.Fatal(err)
	} else {
		same("optimize", []any{or.Verdict, or.Design, or.ObjectiveValues},
			[]any{res.Verdict.String(), designOut(res.Design), res.ObjectiveValues})
	}

	// Observability endpoints.
	var hz map[string]any
	if st := get(t, base+"/healthz", &hz); st != http.StatusOK {
		t.Fatalf("healthz: %d", st)
	}
	var rz map[string]any
	if st := get(t, base+"/readyz", &rz); st != http.StatusOK {
		t.Fatalf("readyz: %d (%v)", st, rz)
	}
	var sz StatsResponse
	if st := get(t, base+"/statsz", &sz); st != http.StatusOK {
		t.Fatalf("statsz: %d", st)
	}
	checkStatsReconcile(t, &sz)
	var total int64
	for _, m := range sz.Modes {
		total += m.Requests
	}
	if total != 6 {
		t.Fatalf("statsz saw %d requests, want 6: %+v", total, sz.Modes)
	}
	if sz.Cache.Hits == 0 {
		t.Errorf("prewarmed server answered without cache hits: %+v", sz.Cache)
	}
	// The cache object's wire keys are core.CacheStats' JSON tags: the
	// deprecated pool counters stay off the wire.
	var wire struct {
		Cache map[string]json.RawMessage `json:"cache"`
	}
	if st := get(t, base+"/statsz", &wire); st != http.StatusOK {
		t.Fatalf("statsz: %d", st)
	}
	var keys []string
	for k := range wire.Cache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"capacity", "hits", "misses", "size",
		"slice_computed", "slice_hits", "slice_skus_in", "slice_skus_kept",
	}
	if !slices.Equal(keys, want) {
		t.Errorf("statsz cache keys = %v, want %v", keys, want)
	}
}

// TestStatszWireForm pins /statsz's wire form: its key set, one entry per
// mode from startup, reloads/reload_errors as the reload mode's
// ok/errors after mixed good and bad reloads, and in_flight never above
// MaxInFlight under load.
func TestStatszWireForm(t *testing.T) {
	_, base := testServer(t, func(c *Config) {
		c.MaxInFlight = 2
		c.QueueDepth = 2
	})
	keysOf := func(m map[string]json.RawMessage) []string {
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	var top map[string]json.RawMessage
	get(t, base+"/statsz", &top)
	wantTop := []string{"cache", "draining", "in_flight", "modes", "queued",
		"ready", "reload_errors", "reloads", "uptime_ms"}
	if got := keysOf(top); !slices.Equal(got, wantTop) {
		t.Errorf("statsz keys = %v, want %v", got, wantTop)
	}
	var modes map[string]map[string]json.RawMessage
	if err := json.Unmarshal(top["modes"], &modes); err != nil {
		t.Fatal(err)
	}
	wantModes := []string{"check", "enumerate", "explain", "optimize", "reload", "synth", "whatif"}
	var gotModes []string
	for name, m := range modes {
		gotModes = append(gotModes, name)
		want := []string{"degraded", "errors", "ok", "p50_ms", "p99_ms", "requests", "shed"}
		if got := keysOf(m); !slices.Equal(got, want) {
			t.Errorf("mode %s keys = %v, want %v", name, got, want)
		}
	}
	sort.Strings(gotModes)
	if !slices.Equal(gotModes, wantModes) {
		t.Errorf("statsz modes at startup = %v, want %v", gotModes, wantModes)
	}

	// Mixed reloads: two good, one malformed (400), one invalid (422).
	invalid := catalog.CaseStudy()
	invalid.Systems = append(invalid.Systems, invalid.Systems[0])
	for i, k := range []*kb.KB{catalog.CaseStudy(), invalid, catalog.CaseStudy()} {
		if status, raw := postKB(t, base, k); (status == http.StatusOK) != (i != 1) {
			t.Fatalf("reload %d: status %d\n%s", i, status, raw)
		}
	}
	resp, err := http.Post(base+"/v1/admin/reload", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var sz StatsResponse
	get(t, base+"/statsz", &sz)
	if r := sz.Modes["reload"]; sz.Reloads != r.OK || sz.ReloadErrors != r.Errors || r.OK != 2 || r.Errors != 2 {
		t.Errorf("reloads/reload_errors = %d/%d, reload mode ok/errors = %d/%d, want 2/2 for both",
			sz.Reloads, sz.ReloadErrors, r.OK, r.Errors)
	}

	// Load: 4x capacity of synth queries while a reader polls /statsz.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(QueryRequest{Scenario: scInference})
			if resp, err := http.Post(base+"/v1/synth", "application/json", bytes.NewReader(body)); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		var sz StatsResponse
		get(t, base+"/statsz", &sz)
		if sz.InFlight < 0 || sz.InFlight > 2 {
			t.Fatalf("in_flight = %d, want within [0, MaxInFlight=2]", sz.InFlight)
		}
		checkStatsReconcile(t, &sz)
	}
}

// TestServeBadRequests pins the 400 taxonomy: malformed JSON, missing
// mode-specific fields, unknown fields, a fleet whose quantities
// overflow int64. Every body is a typed ErrorBody.
func TestServeBadRequests(t *testing.T) {
	_, base := testServer(t, nil)

	for _, tc := range []struct {
		name string
		body string
		path string
	}{
		{"malformed", `{"scenario": nope}`, "/v1/synth"},
		{"unknown field", `{"scenarioooo": {}}`, "/v1/synth"},
		{"check without design", `{"scenario": {}}`, "/v1/check"},
		{"whatif without delta", `{"scenario": {}}`, "/v1/whatif"},
		// 2^60 switches overflow the fleet cost.
		{"fleet overflow", `{"scenario": {"num_switches": 1152921504606846976, "max_cost_usd": 2000000, "workloads": ["inference_app"]}}`, "/v1/synth"},
	} {
		resp, err := http.Post(base+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var eb ErrorBody
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatalf("%s: non-JSON error body: %s", tc.name, raw)
		}
		if resp.StatusCode != http.StatusBadRequest || eb.Error.Kind != "bad_request" {
			t.Fatalf("%s: status %d kind %q, want 400 bad_request", tc.name, resp.StatusCode, eb.Error.Kind)
		}
	}
}

// TestServeSlicesAboveThreshold: a server over a catalog of more than
// 512 SKUs slices its synthesis, as /statsz shows, and still answers
// /v1/enumerate, which compiles the full KB.
func TestServeSlicesAboveThreshold(t *testing.T) {
	_, base := testServer(t, func(c *Config) {
		eng, err := core.New(catalog.ScaledCatalog(1000))
		if err != nil {
			t.Fatal(err)
		}
		c.Engine = eng
	})
	var qr QueryResponse
	if status, raw := post(t, base+"/v1/synth", QueryRequest{Scenario: scInference}, &qr); status != http.StatusOK {
		t.Fatalf("synth: status %d\n%s", status, raw)
	}
	var sz StatsResponse
	get(t, base+"/statsz", &sz)
	if sz.Cache.SliceComputed == 0 {
		t.Fatalf("synth over 1000 SKUs did not slice: %+v", sz.Cache)
	}
	var er QueryResponse
	status, raw := post(t, base+"/v1/enumerate", QueryRequest{Scenario: scInference, Max: 3}, &er)
	if status != http.StatusOK || len(er.Designs) == 0 {
		t.Fatalf("enumerate: status %d, want 200 with designs\n%s", status, raw)
	}
}

// TestTighten: a client bound applies only where it is stricter than the
// policy's, and a timeout_ms too large for a time.Duration is no bound —
// it must neither wrap to a tiny budget nor go negative and vanish.
func TestTighten(t *testing.T) {
	maxMS := int64(math.MaxInt64 / int64(time.Millisecond))
	policy := core.Budget{Timeout: time.Second, MaxConflicts: 100}
	cases := []struct {
		name   string
		policy core.Budget
		req    *BudgetJSON
		want   core.Budget
	}{
		{"no request", policy, nil, policy},
		{"stricter", policy, &BudgetJSON{TimeoutMS: 10, MaxConflicts: 5, MaxDecisions: 7},
			core.Budget{Timeout: 10 * time.Millisecond, MaxConflicts: 5, MaxDecisions: 7}},
		{"looser", policy, &BudgetJSON{TimeoutMS: 5000, MaxConflicts: 500}, policy},
		{"negative", policy, &BudgetJSON{TimeoutMS: -1, MaxConflicts: -1}, policy},
		{"largest representable", core.Budget{}, &BudgetJSON{TimeoutMS: maxMS},
			core.Budget{Timeout: time.Duration(maxMS) * time.Millisecond}},
		// 18446744073710 ms wraps past 2^64 ns to a 448 µs budget.
		{"wraps small", policy, &BudgetJSON{TimeoutMS: 18446744073710}, policy},
		{"wraps small, no policy", core.Budget{}, &BudgetJSON{TimeoutMS: 18446744073710}, core.Budget{}},
		// 9223372036855 ms wraps negative.
		{"wraps negative", policy, &BudgetJSON{TimeoutMS: 9223372036855}, policy},
		{"wraps negative, no policy", core.Budget{}, &BudgetJSON{TimeoutMS: 9223372036855}, core.Budget{}},
	}
	for _, tc := range cases {
		if got := tighten(tc.policy, tc.req); got != tc.want {
			t.Errorf("%s: tighten = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestServeBudgetDegraded: a starvation budget produces either a typed
// resource_exhausted error (504, with cause and spent) or a degraded 200
// — never a malformed body — and the outcome lands in the right statsz
// counter.
func TestServeBudgetDegraded(t *testing.T) {
	_, base := testServer(t, nil)

	var qr QueryResponse
	status, raw := post(t, base+"/v1/enumerate", QueryRequest{
		Scenario: scInference,
		Max:      8,
		Budget:   &BudgetJSON{MaxConflicts: 1},
	}, nil)
	switch status {
	case http.StatusOK:
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("degraded 200 with bad body: %s", raw)
		}
		if !qr.Degraded && qr.Truncated {
			t.Fatalf("budget-truncated enumeration not marked degraded: %s", raw)
		}
	case http.StatusGatewayTimeout:
		var eb ErrorBody
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatalf("504 with bad body: %s", raw)
		}
		if eb.Error.Kind != "resource_exhausted" || eb.Error.Cause == "" || eb.Error.Spent == nil {
			t.Fatalf("504 body incomplete: %s", raw)
		}
	default:
		t.Fatalf("budget-starved enumerate: unexpected status %d\n%s", status, raw)
	}

	var sz StatsResponse
	get(t, base+"/statsz", &sz)
	checkStatsReconcile(t, &sz)
	m := sz.Modes["enumerate"]
	if m.Degraded+m.Errors == 0 {
		t.Fatalf("budget trip recorded as neither degraded nor error: %+v", m)
	}
}

// TestServeWhatifSharesDeadline: the per-request timeout covers the
// whole request, so a whatif's two syntheses share one deadline. Every
// solve is held for 200 ms against a 300 ms policy timeout: a synth
// fits, while the whatif's second synthesis starts past 200 ms and must
// stop on the deadline instead of answering after twice the timeout.
func TestServeWhatifSharesDeadline(t *testing.T) {
	const hold = 200 * time.Millisecond
	s, base := testServer(t, func(c *Config) { c.Policy.Timeout = 300 * time.Millisecond })
	s.eng.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev == sat.EventSolve {
			time.Sleep(hold)
		}
		return false
	})
	t.Cleanup(func() { s.eng.SetFaultHook(nil) })

	var qr QueryResponse
	if status, raw := post(t, base+"/v1/synth", QueryRequest{Scenario: scInference}, &qr); status != http.StatusOK || qr.Verdict != "FEASIBLE" {
		t.Fatalf("synth within the timeout: status %d verdict %q\n%s", status, qr.Verdict, raw)
	}
	var eb ErrorBody
	status, raw := post(t, base+"/v1/whatif", QueryRequest{
		Scenario: scInference,
		Delta:    &DeltaJSON{Context: map[string]bool{"lossless_fabric": false}},
	}, &eb)
	if status != http.StatusGatewayTimeout || eb.Error.Kind != "resource_exhausted" || eb.Error.Cause != "deadline" {
		t.Fatalf("whatif past the timeout: status %d kind %q cause %q, want 504 resource_exhausted/deadline\n%s",
			status, eb.Error.Kind, eb.Error.Cause, raw)
	}
}

// TestServeFaultMatrix exercises the fault-injection matrix through the
// HTTP layer: for each sat.FaultEvent kind, inject mid-request at 100%
// rate and assert the response is a well-formed typed error or a
// degraded-but-witnessed result; then disarm and assert the next request
// succeeds cleanly (the faulted clone was quarantined, not reused).
func TestServeFaultMatrix(t *testing.T) {
	chaos := NewChaos(1, 0) // installed at startup, armed per case
	_, base := testServer(t, func(c *Config) { c.Chaos = chaos })

	cases := []struct {
		name  string
		event sat.FaultEvent
	}{
		{"solve-entry", sat.EventSolve},
		{"conflict-boundary", sat.EventConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chaos.SetEvents(tc.event)
			chaos.SetRate(1.0)
			firedBefore := chaos.Fired()

			status, raw := post(t, base+"/v1/synth", QueryRequest{Scenario: scInference}, nil)
			switch status {
			case http.StatusOK:
				var qr QueryResponse
				if err := json.Unmarshal(raw, &qr); err != nil {
					t.Fatalf("200 with bad body: %s", raw)
				}
				// A conflict-boundary fault can miss a conflict-free
				// solve; only a fault that actually fired must degrade.
				if chaos.Fired() > firedBefore && !qr.Degraded && qr.Verdict == "" {
					t.Fatalf("fault fired but response neither degraded nor a verdict: %s", raw)
				}
			case http.StatusGatewayTimeout:
				var eb ErrorBody
				if err := json.Unmarshal(raw, &eb); err != nil {
					t.Fatalf("504 with bad body: %s", raw)
				}
				if eb.Error.Kind != "resource_exhausted" || eb.Error.Cause != "interrupt" {
					t.Fatalf("fault surfaced as kind=%q cause=%q, want resource_exhausted/interrupt\n%s",
						eb.Error.Kind, eb.Error.Cause, raw)
				}
			default:
				t.Fatalf("faulted request: unexpected status %d\n%s", status, raw)
			}

			// Disarm; the very next request must succeed from a pristine
			// clone (structural quarantine: each request clones the base
			// afresh, so a faulted clone is never reused).
			chaos.SetRate(0)
			var qr QueryResponse
			status, raw = post(t, base+"/v1/synth", QueryRequest{Scenario: scInference}, &qr)
			if status != http.StatusOK || qr.Verdict != "FEASIBLE" {
				t.Fatalf("request after disarm: status %d verdict %q\n%s", status, qr.Verdict, raw)
			}
		})
	}

	var sz StatsResponse
	get(t, base+"/statsz", &sz)
	checkStatsReconcile(t, &sz)
}

// TestServeShedUnderOverload is the chaos acceptance test, two phases.
// Phase A offers 2× the admission capacity deterministically: the fault
// hook parks in-flight queries on a gate, so the queue fills and every
// request beyond capacity must shed with 429 + Retry-After. Phase B
// releases the gate and storms the server with faults injected at a
// fixed rate: every response must be well-formed (a QueryResponse or a
// typed ErrorBody), the server must keep answering afterwards, and
// statsz must reconcile. Run under -race.
func TestServeShedUnderOverload(t *testing.T) {
	var (
		blocking atomic.Bool  // phase A: park queries on the gate
		faulting atomic.Bool  // phase B: inject faults
		events   atomic.Int64 // fault-point counter (deterministic rate)
	)
	gate := make(chan struct{})
	srv, base := testServer(t, func(c *Config) {
		c.MaxInFlight = 2
		c.QueueDepth = 2
		c.Engine.SetFaultHook(func(sat.FaultEvent, sat.Stats) bool {
			if blocking.Load() {
				<-gate
			}
			if !faulting.Load() {
				return false
			}
			return events.Add(1)%25 == 0 // 4% of fault points trip
		})
	})
	capacity := srv.cfg.MaxInFlight + srv.cfg.QueueDepth

	var (
		mu     sync.Mutex
		counts = map[int]int{}
		bad    []string
	)
	record := func(resp *http.Response, raw []byte) {
		mu.Lock()
		defer mu.Unlock()
		counts[resp.StatusCode]++
		switch resp.StatusCode {
		case http.StatusOK:
			var qr QueryResponse
			if err := json.Unmarshal(raw, &qr); err != nil || qr.Mode != "synth" {
				bad = append(bad, fmt.Sprintf("malformed 200: %s", raw))
			}
		case http.StatusTooManyRequests:
			var eb ErrorBody
			if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Kind != "shed" {
				bad = append(bad, fmt.Sprintf("malformed 429: %s", raw))
			} else if resp.Header.Get("Retry-After") == "" || eb.Error.RetryAfterMS <= 0 {
				bad = append(bad, "429 without Retry-After")
			}
		default:
			var eb ErrorBody
			if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Kind == "" {
				bad = append(bad, fmt.Sprintf("malformed %d: %s", resp.StatusCode, raw))
			}
		}
	}
	fire := func(wg *sync.WaitGroup) {
		defer wg.Done()
		body, _ := json.Marshal(QueryRequest{Scenario: scInference})
		resp, err := http.Post(base+"/v1/synth", "application/json", bytes.NewReader(body))
		if err != nil {
			mu.Lock()
			bad = append(bad, fmt.Sprintf("transport: %v", err))
			mu.Unlock()
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		record(resp, raw)
	}

	// Phase A: fill capacity with parked queries, then offer 2× more.
	blocking.Store(true)
	var parked sync.WaitGroup
	for i := 0; i < capacity; i++ {
		parked.Add(1)
		go fire(&parked)
	}
	// Give the parked requests time to occupy the in-flight slots (they
	// block at the solve-entry fault point) and the queue.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.sem) < srv.cfg.MaxInFlight || srv.queued.Load() < int64(srv.cfg.QueueDepth) {
		if time.Now().After(deadline) {
			t.Fatalf("capacity never filled: in-flight %d queued %d", len(srv.sem), srv.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}
	var overflow sync.WaitGroup
	for i := 0; i < capacity; i++ { // 2× offered load
		overflow.Add(1)
		go fire(&overflow)
	}
	overflow.Wait()
	mu.Lock()
	if got := counts[http.StatusTooManyRequests]; got != capacity {
		t.Errorf("at 2x load over full capacity, want %d sheds, got %v", capacity, counts)
	}
	mu.Unlock()
	blocking.Store(false)
	close(gate)
	parked.Wait()

	// Phase B: fault storm at 2× capacity, no gate.
	faulting.Store(true)
	var storm sync.WaitGroup
	for i := 0; i < 2*capacity; i++ {
		storm.Add(1)
		go fire(&storm)
	}
	storm.Wait()
	faulting.Store(false)

	for _, b := range bad {
		t.Error(b)
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("no successes across both phases: %v", counts)
	}

	// The server is still healthy after the storm.
	var qr QueryResponse
	status, raw := post(t, base+"/v1/synth", QueryRequest{Scenario: scInference}, &qr)
	if status != http.StatusOK || qr.Verdict != "FEASIBLE" {
		t.Fatalf("post-storm request: status %d\n%s", status, raw)
	}

	var sz StatsResponse
	get(t, base+"/statsz", &sz)
	checkStatsReconcile(t, &sz)
	m := sz.Modes["synth"]
	if m.Shed == 0 {
		t.Errorf("statsz shows no sheds after overload: %+v", m)
	}
	if want := int64(4*capacity + 1); m.Requests != want {
		t.Errorf("statsz synth requests = %d, want %d", m.Requests, want)
	}
}

// TestServeDrain pins the shutdown contract: during a drain new requests
// get 503 draining, Shutdown returns nil within the deadline, and the
// listener closes.
func TestServeDrain(t *testing.T) {
	s, base := testServer(t, nil)

	// One request proves the server worked before drain.
	status, _ := post(t, base+"/v1/synth", QueryRequest{Scenario: scInference}, nil)
	if status != http.StatusOK {
		t.Fatalf("pre-drain request: %d", status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain was not clean: %v", err)
	}

	// readyz flipped off and the port no longer accepts queries.
	if _, err := http.Post(base+"/v1/synth", "application/json",
		bytes.NewReader([]byte(`{"scenario":{}}`))); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestServeSmoke is the end-to-end smoke driven by `make serve-smoke`:
// boot on a random port, one query per mode, healthz + statsz, one
// injected fault, then SIGTERM to the whole process and a clean drain
// through the same signal path the CLI wires up. Race-clean.
func TestServeSmoke(t *testing.T) {
	eng, err := core.New(catalog.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	chaos := NewChaos(3, 0)
	s, err := New(Config{
		Engine:       eng,
		Addr:         "127.0.0.1:0",
		MaxInFlight:  2,
		DrainTimeout: 5 * time.Second,
		Prewarm:      []core.Scenario{{Workloads: []string{"inference_app"}}},
		Chaos:        chaos,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()

	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitReady(wctx); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	// One query per mode.
	for _, q := range []struct {
		mode string
		req  QueryRequest
	}{
		{"synth", QueryRequest{Scenario: scInference}},
		{"check", QueryRequest{Scenario: scInference, Design: &DesignJSON{Systems: []string{"homa"}}}},
		{"whatif", QueryRequest{Scenario: scInference, Delta: &DeltaJSON{Context: map[string]bool{"lossless_fabric": false}}}},
		{"enumerate", QueryRequest{Scenario: scInference, Max: 2}},
		{"explain", QueryRequest{Scenario: scInference}},
	} {
		status, raw := post(t, base+"/v1/"+q.mode, q.req, nil)
		var probe map[string]any
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("%s: non-JSON body at status %d: %s", q.mode, status, raw)
		}
		if status != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", q.mode, status, raw)
		}
	}

	// healthz + statsz.
	if st := get(t, base+"/healthz", nil); st != http.StatusOK {
		t.Fatalf("healthz: %d", st)
	}
	var sz StatsResponse
	if st := get(t, base+"/statsz", &sz); st != http.StatusOK {
		t.Fatalf("statsz: %d", st)
	}
	checkStatsReconcile(t, &sz)

	// One injected fault, then recovery.
	chaos.SetEvents(sat.EventSolve)
	chaos.SetRate(1.0)
	status, raw := post(t, base+"/v1/synth", QueryRequest{Scenario: scInference}, nil)
	if status != http.StatusGatewayTimeout && status != http.StatusOK {
		t.Fatalf("faulted query: status %d\n%s", status, raw)
	}
	chaos.SetRate(0)
	var qr QueryResponse
	if status, raw = post(t, base+"/v1/synth", QueryRequest{Scenario: scInference}, &qr); status != http.StatusOK {
		t.Fatalf("post-fault query: status %d\n%s", status, raw)
	}

	// SIGTERM the process: the signal context cancels, Run drains and
	// returns nil — the CLI maps that to exit 0.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drain after SIGTERM not clean: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain within 10s of SIGTERM")
	}
}
