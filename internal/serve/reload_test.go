package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netarch/internal/catalog"
	"netarch/internal/core"
	"netarch/internal/kb"
)

func mustTestEngine(t *testing.T) *core.Engine {
	t.Helper()
	eng, err := core.New(catalog.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestRetryAfterHeaderClamp is the regression test for the Retry-After
// truncation bug: a sub-second hint integer-divided to "Retry-After: 0",
// which compliant clients treat as "retry now" — the opposite of backing
// off. The header must round up and clamp to >= 1 second while the JSON
// body keeps the exact millisecond hint.
func TestRetryAfterHeaderClamp(t *testing.T) {
	cases := []struct {
		hint       time.Duration
		wantHeader string
		wantMS     int64
	}{
		{250 * time.Millisecond, "1", 250}, // the bug: used to emit "0"
		{time.Second, "1", 1000},
		{1500 * time.Millisecond, "2", 1500}, // round up, not down
		{3 * time.Second, "3", 3000},
	}
	for _, tc := range cases {
		s, err := New(Config{
			Engine:     mustTestEngine(t),
			RetryAfter: tc.hint,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.reject(rec, s.stats["synth"], time.Now(), http.StatusTooManyRequests, "shed", "test")
		if got := rec.Header().Get("Retry-After"); got != tc.wantHeader {
			t.Errorf("hint %v: Retry-After header = %q, want %q", tc.hint, got, tc.wantHeader)
		}
		var eb ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("hint %v: bad body: %v", tc.hint, err)
		}
		if eb.Error.RetryAfterMS != tc.wantMS {
			t.Errorf("hint %v: RetryAfterMS = %d, want %d (body must stay exact)",
				tc.hint, eb.Error.RetryAfterMS, tc.wantMS)
		}
	}
}

// postKB ships a knowledge base to /v1/admin/reload and returns the
// status plus raw body.
func postKB(t *testing.T, base string, k *kb.KB) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/admin/reload", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestServeReload drives the live-update path end to end: a reload with
// an edited catalog revalidates the warm base in place, and the very next
// query answers against the new KB — no restart, no cold compile.
func TestServeReload(t *testing.T) {
	_, base := testServer(t, nil)

	// Before the reload, the canary atom is unconstrained: feasible.
	req := QueryRequest{Scenario: ScenarioJSON{
		Workloads: []string{"inference_app"},
		Context:   map[string]bool{"reload_canary": true},
	}}
	var qr QueryResponse
	if status, raw := post(t, base+"/v1/synth", req, &qr); status != http.StatusOK || qr.Verdict != "FEASIBLE" {
		t.Fatalf("pre-reload query: status %d\n%s", status, raw)
	}

	// Reload with a rule that forbids the canary.
	next := catalog.CaseStudy()
	next.Rules = append(next.Rules, kb.Rule{
		Name: "no_canary",
		Expr: kb.Implies(kb.CtxAtom("reload_canary"), kb.FalseExpr()),
		Note: "reload canary must be off",
	})
	var rr ReloadResponse
	status, raw := postKB(t, base, next)
	if status != http.StatusOK {
		t.Fatalf("reload: status %d\n%s", status, raw)
	}
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Changes == 0 || rr.BasesUpdated == 0 {
		t.Fatalf("reload did not revalidate the warm base: %+v", rr)
	}

	// The same query is now infeasible: the new KB is live.
	if status, raw := post(t, base+"/v1/synth", req, &qr); status != http.StatusOK || qr.Verdict != "INFEASIBLE" {
		t.Fatalf("post-reload query: status %d verdict %q\n%s", status, qr.Verdict, raw)
	}

	// Malformed and invalid bodies are typed errors, not swaps.
	resp, err := http.Post(base+"/v1/admin/reload", "application/json", bytes.NewReader([]byte("not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}
	invalid := catalog.CaseStudy()
	invalid.Systems = append(invalid.Systems, invalid.Systems[0]) // duplicate
	if status, _ := postKB(t, base, invalid); status != http.StatusUnprocessableEntity {
		t.Errorf("invalid KB: status %d, want 422", status)
	}

	var sz StatsResponse
	get(t, base+"/statsz", &sz)
	if sz.Reloads != 1 || sz.ReloadErrors != 2 {
		t.Errorf("reload counters = %d ok / %d errors, want 1 / 2", sz.Reloads, sz.ReloadErrors)
	}
	checkStatsReconcile(t, &sz)
}

// TestServeReloadDecodeErrors: a body that does not decode is a 400
// bad_request, including a rule whose expression nests not 100,000 deep
// and a KB refused only by the decoder's strict rules; a well-formed KB
// that fails validation (a duplicate system, a negative cost_usd) is a
// 422 invalid_kb. None of them swaps the KB,
// and the server keeps answering.
func TestServeReloadDecodeErrors(t *testing.T) {
	_, base := testServer(t, nil)
	reload := func(body []byte) (int, ErrorBody) {
		t.Helper()
		resp, err := http.Post(base+"/v1/admin/reload", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, eb
	}
	deep := `{"rules":[{"name":"deep","expr":` + strings.Repeat(`{"op":"not","args":[`, 100_000) +
		`{"op":"true"}` + strings.Repeat(`]}`, 100_000) + `}]}`
	for _, body := range []string{deep, `{"Systems":[]}`, `{"rules":[]} {}`} {
		if status, eb := reload([]byte(body)); status != http.StatusBadRequest || eb.Error.Kind != "bad_request" {
			t.Errorf("body %.40q: status %d kind %q, want 400 bad_request", body, status, eb.Error.Kind)
		}
	}
	duplicate := catalog.CaseStudy()
	duplicate.Systems = append(duplicate.Systems, duplicate.Systems[0])
	negativeCost := catalog.CaseStudy()
	negativeCost.Hardware[0].CostUSD = -100
	for _, invalid := range []*kb.KB{duplicate, negativeCost} {
		var buf bytes.Buffer
		if err := invalid.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if status, eb := reload(buf.Bytes()); status != http.StatusUnprocessableEntity || eb.Error.Kind != "invalid_kb" {
			t.Errorf("invalid KB: status %d kind %q, want 422 invalid_kb", status, eb.Error.Kind)
		}
	}
	var qr QueryResponse
	req := QueryRequest{Scenario: ScenarioJSON{Workloads: []string{"inference_app"}}}
	if status, raw := post(t, base+"/v1/synth", req, &qr); status != http.StatusOK || qr.Verdict != "FEASIBLE" {
		t.Fatalf("query after refused reloads: status %d\n%s", status, raw)
	}
	var sz StatsResponse
	get(t, base+"/statsz", &sz)
	if sz.Reloads != 0 || sz.ReloadErrors != 5 {
		t.Errorf("reload counters = %d ok / %d errors, want 0 / 5", sz.Reloads, sz.ReloadErrors)
	}
}

// TestServeReloadShortBody: the reload buffer grows as the body arrives,
// not to the client's Content-Length, so declaring maxReloadBody and
// sending a few bytes allocates little. The short body is a 400.
func TestServeReloadShortBody(t *testing.T) {
	s, err := New(Config{Engine: mustTestEngine(t)})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/admin/reload", strings.NewReader(`{"systems":[`))
	req.ContentLength = maxReloadBody
	rec := httptest.NewRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.handleReload(rec, req)
	runtime.ReadMemStats(&m1)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d, want 400\n%s", rec.Code, rec.Body)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 1<<20 {
		t.Errorf("a %d-byte body declared as %d bytes allocated %d B; want under 1 MiB",
			len(`{"systems":[`), maxReloadBody, got)
	}
}

// TestServeReloadUnderLoad is the acceptance check for zero-downtime
// reloads: with queries hammering the server, repeated reloads must never
// shed, fail, or surface a non-200 on the query path.
func TestServeReloadUnderLoad(t *testing.T) {
	_, base := testServer(t, func(c *Config) {
		c.MaxInFlight = 4
		c.QueueDepth = 64 // absorb the hammer: this test is about reloads, not shedding
	})

	const queriers = 4
	stop := make(chan struct{})
	var failures atomic.Int64
	var queries atomic.Int64
	var wg sync.WaitGroup
	body, _ := json.Marshal(QueryRequest{Scenario: scInference})
	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(base+"/v1/synth", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					t.Errorf("query transport error mid-reload: %v", err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				queries.Add(1)
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("query mid-reload: status %d\n%s", resp.StatusCode, raw)
					return
				}
			}
		}()
	}

	for i := 0; i < 3; i++ {
		next := catalog.CaseStudy()
		next.Rules = append(next.Rules, kb.Rule{
			Name: fmt.Sprintf("reload_rev_%d", i),
			Expr: kb.Implies(kb.CtxAtom(fmt.Sprintf("rev_%d", i)), kb.TrueExpr()),
			Note: "revision marker",
		})
		if status, raw := postKB(t, base, next); status != http.StatusOK {
			t.Errorf("reload %d: status %d\n%s", i, status, raw)
		}
	}
	close(stop)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d of %d queries failed across reloads", failures.Load(), queries.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("hammer issued no queries")
	}

	var sz StatsResponse
	get(t, base+"/statsz", &sz)
	if sz.Reloads != 3 {
		t.Errorf("reloads = %d, want 3", sz.Reloads)
	}
	if m := sz.Modes["synth"]; m.Shed != 0 {
		t.Errorf("reloads shed %d queries; zero-downtime contract broken", m.Shed)
	}
	checkStatsReconcile(t, &sz)
}
