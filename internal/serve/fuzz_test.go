package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"netarch/internal/catalog"
	"netarch/internal/core"
	"netarch/internal/kb"
)

// The untrusted-input contract of the query service: every request body
// gets a 200 or a typed ErrorBody, never a 500 or a panic. The fuzzers
// drive the handlers in process through httptest.

var fuzzModes = []string{"check", "synth", "whatif", "enumerate", "explain", "optimize"}

// fuzzServer builds an unstarted server over the case-study KB. A
// short policy deadline and a small enumeration cap keep each input
// cheap; a tripped budget is a typed 504, which the contract allows.
func fuzzServer(t testing.TB) *Server {
	eng, err := core.New(catalog.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Engine:       eng,
		MaxEnumerate: 4,
		Policy:       core.Budget{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkTyped fails unless the response is a 200 or a non-500 typed
// ErrorBody.
func checkTyped(t *testing.T, rec *httptest.ResponseRecorder, body []byte) {
	t.Helper()
	if rec.Code == http.StatusOK {
		return
	}
	var eb ErrorBody
	if rec.Code == http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error.Kind == "" {
		t.Fatalf("status %d, body %s\nfor request %q", rec.Code, rec.Body.Bytes(), body)
	}
}

func FuzzServeQuery(f *testing.F) {
	seeds := []struct {
		mode string
		req  any
	}{
		{"synth", QueryRequest{Scenario: scInference}},
		{"check", QueryRequest{Scenario: scInference, Design: &DesignJSON{
			Systems:  []string{"homa", "quic", "simon"},
			Hardware: map[string]string{"nic": "Broadcoma Stingra-200G-LP"},
		}}},
		{"explain", QueryRequest{Scenario: ScenarioJSON{
			Workloads: []string{"inference_app"}, PinnedSystems: []string{"simon"},
			Context: map[string]bool{"lossless_fabric": false},
		}}},
		{"whatif", QueryRequest{Scenario: scInference, Delta: &DeltaJSON{Context: map[string]bool{"lossless_fabric": false}}}},
		{"enumerate", QueryRequest{Scenario: scInference, Max: 4}},
		{"optimize", QueryRequest{Scenario: scInference, Objectives: []string{"cost", "power"}, Pareto: true}},
		{"synth", QueryRequest{Scenario: ScenarioJSON{
			Workloads: []string{"inference_app"}, NumSwitches: 1 << 60, MaxCostUSD: 2_000_000,
		}}},
		{"synth", `{"scenario": nope}`},
		{"synth", `{"scenarioooo": {}}`},
		{"check", `{"scenario": {}}`},
		{"whatif", `{"scenario": {}}`},
	}
	for _, sd := range seeds {
		body, ok := sd.req.(string)
		if !ok {
			b, err := json.Marshal(sd.req)
			if err != nil {
				f.Fatal(err)
			}
			body = string(b)
		}
		for i, m := range fuzzModes {
			if m == sd.mode {
				f.Add(uint8(i), []byte(body))
			}
		}
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, mode uint8, body []byte) {
		rec := httptest.NewRecorder()
		path := "/v1/" + fuzzModes[int(mode)%len(fuzzModes)]
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		checkTyped(t, rec, body)
	})
}

func FuzzServeReload(f *testing.F) {
	var buf bytes.Buffer
	if err := catalog.CaseStudy().Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	canary := catalog.CaseStudy()
	canary.Rules = append(canary.Rules, kb.Rule{
		Name: "reload_canary", Expr: kb.Implies(kb.CtxAtom("reload_canary"), kb.FalseExpr()),
	})
	dup := catalog.CaseStudy()
	dup.Systems = append(dup.Systems, dup.Systems[0])
	for _, k := range []*kb.KB{canary, dup} {
		buf.Reset()
		if err := k.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("this is not a knowledge base"))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"systems":[{"name":"x","role":"network_stack","solves":["p"]}],"workloads":[{"name":"inference_app","needs":["p"]}]}`))
	f.Add([]byte(`{"rules":[{"name":"r","expr":{"op":"implies","args":[{"op":"atom","atom":"ctx:x"},{"op":"false"}]}}]}`))
	f.Add([]byte(`{"hardware":[{"name":"h","kind":"nic","quant":{"ports":-1}}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := fuzzServer(t)
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admin/reload", bytes.NewReader(body)))
		checkTyped(t, rec, body)
		if rec.Code == http.StatusOK {
			// The reloaded engine must still answer every mode typed.
			req := []byte(`{"scenario":{"workloads":["inference_app"]},"max":2,"objectives":["cost"]}`)
			for _, m := range fuzzModes {
				rec := httptest.NewRecorder()
				s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+m, bytes.NewReader(req)))
				checkTyped(t, rec, req)
			}
		}
	})
}
