package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"netarch/internal/sat"
)

// Satellite coverage for POST /v1/optimize: the happy paths
// (lexicographic and Pareto), request validation, and the
// fault-matrix rows the chaos harness demands of every mode — budget
// trip degrading to a 200 that still carries the proven lower_bounds
// bracket, panic isolation, and shedding under load.

func TestServeOptimizeHappyPath(t *testing.T) {
	_, base := testServer(t, nil)
	var qr QueryResponse
	status, raw := post(t, base+"/v1/optimize", QueryRequest{
		Scenario:   scInference,
		Objectives: []string{"systems", "cost"},
	}, &qr)
	if status != http.StatusOK || qr.Verdict != "FEASIBLE" {
		t.Fatalf("status %d verdict %q\n%s", status, qr.Verdict, raw)
	}
	if qr.Degraded {
		t.Fatalf("unbudgeted optimize degraded: %s", raw)
	}
	if len(qr.ObjectiveValues) != 2 || len(qr.LowerBounds) != 2 {
		t.Fatalf("bracket missing: %s", raw)
	}
	for i := range qr.ObjectiveValues {
		if qr.LowerBounds[i] != qr.ObjectiveValues[i] {
			t.Fatalf("certified level %d has loose bracket [%d, %d]",
				i, qr.LowerBounds[i], qr.ObjectiveValues[i])
		}
	}
	if qr.Design == nil || len(qr.Design.Systems) == 0 {
		t.Fatalf("no witness design: %s", raw)
	}
}

func TestServeOptimizePareto(t *testing.T) {
	_, base := testServer(t, nil)
	var qr QueryResponse
	status, raw := post(t, base+"/v1/optimize", QueryRequest{
		Scenario:   scInference,
		Objectives: []string{"cost", "power"},
		Pareto:     true,
	}, &qr)
	if status != http.StatusOK {
		t.Fatalf("status %d\n%s", status, raw)
	}
	if !qr.Complete || qr.Degraded {
		t.Fatalf("unbudgeted pareto must be complete: %s", raw)
	}
	if len(qr.ParetoPoints) == 0 {
		t.Fatalf("empty frontier on a feasible scenario: %s", raw)
	}
	for i, p := range qr.ParetoPoints {
		if len(p.Values) != 2 || p.Design == nil {
			t.Fatalf("point %d malformed: %s", i, raw)
		}
		// Sorted, mutually non-dominated frontier: strictly increasing in
		// the first objective, strictly decreasing in the second.
		if i > 0 {
			prev := qr.ParetoPoints[i-1]
			if p.Values[0] <= prev.Values[0] || p.Values[1] >= prev.Values[1] {
				t.Fatalf("frontier not sorted/non-dominated at %d: %v then %v",
					i, prev.Values, p.Values)
			}
		}
	}
}

func TestServeOptimizeValidation(t *testing.T) {
	_, base := testServer(t, nil)
	// There is one MaxSAT descent, so a body naming a strategy is an
	// unknown field: rejected at decode, never answered silently.
	strategy := func(name string) json.RawMessage {
		return json.RawMessage(`{"scenario":{"workloads":["inference_app"]},"objectives":["cost"],"strategy":"` + name + `"}`)
	}
	cases := []struct {
		name   string
		req    any
		detail string // substring the error detail must contain
	}{
		{"no objectives", QueryRequest{Scenario: scInference}, ""},
		{"unknown objective", QueryRequest{Scenario: scInference, Objectives: []string{"karma"}}, ""},
		{"strategy linear", strategy("linear"), `unknown field "strategy"`},
		{"strategy binary", strategy("binary"), `unknown field "strategy"`},
	}
	for _, tc := range cases {
		var eb ErrorBody
		status, raw := post(t, base+"/v1/optimize", tc.req, &eb)
		if status != http.StatusBadRequest || eb.Error.Kind != "bad_request" {
			t.Fatalf("%s: status %d kind %q, want 400 bad_request\n%s",
				tc.name, status, eb.Error.Kind, raw)
		}
		if !strings.Contains(eb.Error.Detail, tc.detail) {
			t.Fatalf("%s: detail %q lacks %q", tc.name, eb.Error.Detail, tc.detail)
		}
	}
}

// TestServeOptimizeBudgetTripDegrades arms a deterministic fault hook
// that lets feasibility and the search's initial model through, then
// trips: the response must be a degraded 200 still carrying the witness
// and the proven [lower_bound, value] bracket — the wire form of the
// bounded-suboptimality contract.
func TestServeOptimizeBudgetTripDegrades(t *testing.T) {
	s, base := testServer(t, nil)
	var mu sync.Mutex
	solves := 0
	s.eng.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev != sat.EventSolve {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		solves++
		return solves > 2
	})
	var qr QueryResponse
	status, raw := post(t, base+"/v1/optimize", QueryRequest{
		Scenario:   scInference,
		Objectives: []string{"cost"},
	}, &qr)
	if status != http.StatusOK {
		t.Fatalf("mid-search trip must degrade to 200, got %d\n%s", status, raw)
	}
	if !qr.Degraded || qr.DegradedCause != "interrupt" {
		t.Fatalf("want degraded/interrupt, got degraded=%v cause=%q\n%s",
			qr.Degraded, qr.DegradedCause, raw)
	}
	if qr.Verdict != "FEASIBLE" || qr.Design == nil {
		t.Fatalf("degraded optimize lost the witness: %s", raw)
	}
	if len(qr.LowerBounds) != len(qr.ObjectiveValues) || len(qr.ObjectiveValues) == 0 {
		t.Fatalf("degraded optimize missing the bracket: %s", raw)
	}
	if qr.LowerBounds[0] > qr.ObjectiveValues[0] {
		t.Fatalf("inverted bracket [%d, %d]", qr.LowerBounds[0], qr.ObjectiveValues[0])
	}

	// Disarm; the next optimize must certify from a pristine clone. (A
	// fresh response struct: Unmarshal leaves omitted fields untouched.)
	s.eng.SetFaultHook(nil)
	qr = QueryResponse{}
	status, raw = post(t, base+"/v1/optimize", QueryRequest{
		Scenario:   scInference,
		Objectives: []string{"cost"},
	}, &qr)
	if status != http.StatusOK || qr.Degraded {
		t.Fatalf("post-disarm optimize: status %d degraded=%v\n%s", status, qr.Degraded, raw)
	}
	if qr.LowerBounds[0] != qr.ObjectiveValues[0] {
		t.Fatalf("post-disarm bracket loose: [%d, %d]", qr.LowerBounds[0], qr.ObjectiveValues[0])
	}

	var sz StatsResponse
	get(t, base+"/statsz", &sz)
	checkStatsReconcile(t, &sz)
	if m := sz.Modes["optimize"]; m.Degraded == 0 {
		t.Fatalf("degraded optimize not counted: %+v", m)
	}
}

// TestServeOptimizePanicIsolation: a panic inside an optimize request is
// a 500 with a typed body, and the server keeps answering.
func TestServeOptimizePanicIsolation(t *testing.T) {
	s, base := testServer(t, nil)
	s.eng.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		panic("chaos: injected panic")
	})
	var eb ErrorBody
	status, raw := post(t, base+"/v1/optimize", QueryRequest{
		Scenario:   scInference,
		Objectives: []string{"cost"},
	}, &eb)
	if status != http.StatusInternalServerError || eb.Error.Kind != "internal" {
		t.Fatalf("status %d kind %q, want 500 internal\n%s", status, eb.Error.Kind, raw)
	}
	s.eng.SetFaultHook(nil)
	var qr QueryResponse
	status, raw = post(t, base+"/v1/optimize", QueryRequest{
		Scenario:   scInference,
		Objectives: []string{"cost"},
	}, &qr)
	if status != http.StatusOK || qr.Verdict != "FEASIBLE" {
		t.Fatalf("request after panic: status %d verdict %q\n%s", status, qr.Verdict, raw)
	}
}

// TestServeOptimizeShedsUnderLoad: with capacity 1+1 and the single
// in-flight slot parked on a gate, surplus optimize requests must shed
// with 429 + Retry-After, and every response stays well-formed.
func TestServeOptimizeShedsUnderLoad(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	parked := make(chan struct{}, 16)
	s, base := testServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.QueueDepth = 1
	})
	s.eng.SetFaultHook(func(ev sat.FaultEvent, _ sat.Stats) bool {
		if ev == sat.EventSolve {
			select {
			case parked <- struct{}{}:
			default:
			}
			<-gate
		}
		return false
	})

	const clients = 4
	statuses := make(chan int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(QueryRequest{
				Scenario:   scInference,
				Objectives: []string{"cost"},
			})
			resp, err := http.Post(base+"/v1/optimize", "application/json",
				bytes.NewReader(body))
			if err != nil {
				statuses <- -1
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				statuses <- -2
				return
			}
			statuses <- resp.StatusCode
		}()
	}
	// Wait until the first request is parked inside the solver; surplus
	// arrivals then overflow the depth-1 queue and shed immediately. Once
	// shedding is observed, release the gate so the admitted requests can
	// finish.
	<-parked
	shed := 0
	for got := 0; got < clients; got++ {
		switch st := <-statuses; st {
		case -1:
			t.Fatal("transport error during overload")
		case -2:
			t.Fatal("429 without Retry-After header")
		case http.StatusTooManyRequests:
			shed++
			gateOnce.Do(func() { close(gate) })
		case http.StatusOK:
		default:
			t.Fatalf("unexpected status %d under overload", st)
		}
	}
	gateOnce.Do(func() { close(gate) })
	wg.Wait()
	s.eng.SetFaultHook(nil)

	if shed == 0 {
		t.Fatal("no request shed at 4× capacity")
	}
	var sz StatsResponse
	get(t, base+"/statsz", &sz)
	checkStatsReconcile(t, &sz)
	if m := sz.Modes["optimize"]; m.Shed == 0 {
		t.Fatalf("shed not counted for optimize: %+v", m)
	}
}
