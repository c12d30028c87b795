package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"netarch/internal/core"
	"netarch/internal/kb"
)

// Config configures a Server. Engine is required; everything else has a
// serving-grade default.
type Config struct {
	// Engine answers the queries. The server takes ownership of its
	// fault hook (when Chaos is set) and leaves its cache capacity as
	// the caller set it.
	Engine *core.Engine

	// Addr is the listen address; ":0" or "127.0.0.1:0" picks a random
	// port (see Server.Addr). Default "127.0.0.1:8080".
	Addr string

	// MaxInFlight caps concurrently executing queries. Default:
	// runtime.GOMAXPROCS(0).
	MaxInFlight int
	// QueueDepth caps requests waiting for an in-flight slot; arrivals
	// beyond MaxInFlight+QueueDepth are shed with 429 + Retry-After.
	// Default: 2×MaxInFlight.
	QueueDepth int

	// Policy is the server-side per-request budget ceiling. Clients may
	// tighten it per request (QueryRequest.Budget), never widen it. The
	// zero value imposes no ceiling. The timeout covers the whole
	// request: a whatif's two syntheses share one deadline.
	Policy core.Budget

	// MaxEnumerate caps the per-request enumeration class limit.
	// Default 64.
	MaxEnumerate int

	// DrainTimeout bounds the graceful drain on shutdown: in-flight
	// requests get this long to finish before connections are forced
	// closed. Default 10s.
	DrainTimeout time.Duration

	// RetryAfter is the backoff hint sent with 429/503 rejections.
	// Sub-second values are preserved exactly in the JSON body's
	// RetryAfterMS; the Retry-After header (whole seconds by RFC 9110)
	// rounds up, never down to 0. Default 1s.
	RetryAfter time.Duration

	// Prewarm lists scenario shapes to compile before the server reports
	// ready. Default: the zero scenario (every workload in the KB,
	// default fleet).
	Prewarm []core.Scenario

	// Chaos, when non-nil, is wired into the engine's fault hook at
	// startup: a seeded fault-injection profile for chaos testing.
	Chaos *Chaos

	// Logf, when non-nil, receives one line per lifecycle event
	// (startup, ready, drain, recovered panics).
	Logf func(format string, args ...any)
}

// Server is the long-lived query service. Create with New, start with
// Start (or Run, which also handles shutdown), stop with Shutdown.
type Server struct {
	cfg   Config
	eng   *core.Engine
	mux   *http.ServeMux
	hs    *http.Server
	lis   net.Listener
	stats serverStats

	sem    chan struct{} // in-flight slots; len(sem) is the in-flight count
	queued atomic.Int64

	ready    atomic.Bool
	readyCh  chan struct{}
	draining atomic.Bool
	drainCh  chan struct{}

	start time.Time
}

// New validates the config and builds a server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: Config.Engine is required")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:8080"
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.MaxInFlight
	}
	if cfg.MaxEnumerate <= 0 {
		cfg.MaxEnumerate = 64
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if len(cfg.Prewarm) == 0 {
		cfg.Prewarm = []core.Scenario{{}}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	s := &Server{
		cfg:     cfg,
		eng:     cfg.Engine,
		stats:   newServerStats(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		readyCh: make(chan struct{}),
		drainCh: make(chan struct{}),
	}
	if cfg.Chaos != nil {
		// Installed once, before any query runs; the profile's own
		// atomics make rate/event changes safe mid-flight.
		s.eng.SetFaultHook(cfg.Chaos.Hook)
	}

	s.mux = http.NewServeMux()
	for _, mode := range queryModes {
		s.mux.HandleFunc("POST /v1/"+mode, s.queryHandler(mode))
	}
	s.mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s, nil
}

// Start listens and begins serving. It returns once the listener is
// bound; compilation of the prewarm set continues in the background and
// flips /readyz when done (WaitReady blocks on it).
func (s *Server) Start() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.lis = lis
	s.start = time.Now()
	s.hs = &http.Server{Handler: s.mux}
	go func() {
		if err := s.hs.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.cfg.Logf("serve: listener error: %v", err)
		}
	}()
	go s.warmup()
	s.cfg.Logf("serve: listening on %s (in-flight %d, queue %d)",
		s.Addr(), s.cfg.MaxInFlight, s.cfg.QueueDepth)
	return nil
}

// warmup compiles every prewarm shape, then flips readiness.
func (s *Server) warmup() {
	for _, sc := range s.cfg.Prewarm {
		if err := s.eng.Prewarm(sc); err != nil {
			s.cfg.Logf("serve: prewarm failed: %v", err)
		}
	}
	s.ready.Store(true)
	close(s.readyCh)
	s.cfg.Logf("serve: ready (%s)", s.eng.CacheStats())
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.lis == nil {
		return s.cfg.Addr
	}
	return s.lis.Addr().String()
}

// WaitReady blocks until the prewarm set is compiled or the context
// expires.
func (s *Server) WaitReady(ctx context.Context) error {
	select {
	case <-s.readyCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shutdown drains the server: new requests are rejected with 503,
// queued-but-unstarted requests are shed, and in-flight requests get
// until ctx's deadline to finish. Returns nil on a clean drain; the
// context error if the deadline passed with requests still in flight
// (connections are then closed).
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
	s.cfg.Logf("serve: draining (%d in flight, %d queued)", len(s.sem), s.queued.Load())
	err := s.hs.Shutdown(ctx)
	if err != nil {
		_ = s.hs.Close()
	}
	s.cfg.Logf("serve: drained")
	return err
}

// Run starts the server and blocks until ctx is canceled (the CLI wires
// SIGINT/SIGTERM into it), then drains under the configured
// DrainTimeout. Returns nil on a clean drain — the process should then
// exit 0.
func (s *Server) Run(ctx context.Context) error {
	if err := s.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(dctx)
}

// admitResult says how admission ended.
type admitResult int

const (
	admitOK admitResult = iota
	admitQueueFull
	admitDraining
	admitClientGone
)

// admit implements admission control: an immediate in-flight slot if
// one is free, else a bounded queue wait. The queue sheds on overflow,
// drain start, and client disconnect.
func (s *Server) admit(ctx context.Context) admitResult {
	if s.draining.Load() {
		return admitDraining
	}
	select {
	case s.sem <- struct{}{}:
		return admitOK
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		return admitQueueFull
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return admitOK
	case <-s.drainCh:
		return admitDraining
	case <-ctx.Done():
		return admitClientGone
	}
}

func (s *Server) release() { <-s.sem }

// queryHandler builds the handler for one query mode. Every path
// through it records exactly one outcome on the mode's stats, and the
// response body is always either a QueryResponse or a typed ErrorBody.
func (s *Server) queryHandler(mode string) http.HandlerFunc {
	ms := s.stats[mode]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()

		switch s.admit(r.Context()) {
		case admitQueueFull:
			s.reject(w, ms, start, http.StatusTooManyRequests, "shed",
				fmt.Sprintf("admission queue full (%d in flight, %d queued)",
					s.cfg.MaxInFlight, s.cfg.QueueDepth))
			return
		case admitDraining:
			s.reject(w, ms, start, http.StatusServiceUnavailable, "draining", "server is draining")
			return
		case admitClientGone:
			ms.record(outcomeShed, time.Since(start))
			return // client already gone; nothing to write
		}
		defer s.release()

		// Panic isolation: a panicking query must not take down the
		// server. The request's solver clone is abandoned where it
		// stands — each request clones the base afresh, so the next
		// one gets a pristine solver.
		defer func() {
			if p := recover(); p != nil {
				buf := make([]byte, 4096)
				buf = buf[:runtime.Stack(buf, false)]
				s.cfg.Logf("serve: recovered panic in %s: %v\n%s", mode, p, buf)
				s.writeError(w, ms, start, http.StatusInternalServerError, ErrorInfo{
					Kind: "internal", Detail: fmt.Sprint(p),
				})
			}
		}()

		var req QueryRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeError(w, ms, start, http.StatusBadRequest, ErrorInfo{
				Kind: "bad_request", Detail: err.Error(),
			})
			return
		}
		if mode == "check" && req.Design == nil {
			s.writeError(w, ms, start, http.StatusBadRequest, ErrorInfo{
				Kind: "bad_request", Detail: "check requires a design",
			})
			return
		}
		if mode == "whatif" && req.Delta == nil {
			s.writeError(w, ms, start, http.StatusBadRequest, ErrorInfo{
				Kind: "bad_request", Detail: "whatif requires a delta",
			})
			return
		}
		if mode == "optimize" && len(req.Objectives) == 0 {
			s.writeError(w, ms, start, http.StatusBadRequest, ErrorInfo{
				Kind: "bad_request", Detail: "optimize requires at least one objective",
			})
			return
		}

		budget := tighten(s.cfg.Policy, req.Budget)
		resp, errInfo, status := s.execute(r.Context(), mode, &req, budget)
		if errInfo != nil {
			s.writeError(w, ms, start, status, *errInfo)
			return
		}
		outcome := outcomeOK
		if resp.Degraded {
			outcome = outcomeDegraded
		}
		s.writeJSON(w, http.StatusOK, resp)
		ms.record(outcome, time.Since(start))
	}
}

// execute runs one admitted, parsed query and renders the outcome. It
// returns either a response or a typed error with its HTTP status. The
// budget's timeout is armed once, on ctx, so it covers every engine call
// the request makes; the engine gets the budget without it.
func (s *Server) execute(ctx context.Context, mode string, req *QueryRequest, budget core.Budget) (*QueryResponse, *ErrorInfo, int) {
	if budget.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget.Timeout)
		defer cancel()
		budget.Timeout = 0
	}
	sc := req.Scenario.toScenario()
	resp := &QueryResponse{Mode: mode}

	fail := func(err error) (*QueryResponse, *ErrorInfo, int) {
		var ex *core.ErrResourceExhausted
		if errors.As(err, &ex) {
			info := &ErrorInfo{Kind: "resource_exhausted", Cause: ex.Cause, Detail: err.Error()}
			sp := spentJSON(ex.Spent)
			info.Spent = &sp
			status := http.StatusGatewayTimeout
			if errors.Is(err, context.Canceled) {
				info.Kind = "client_gone"
			}
			return nil, info, status
		}
		return nil, &ErrorInfo{Kind: "bad_request", Detail: err.Error()}, http.StatusBadRequest
	}

	switch mode {
	case "synth", "explain":
		rep, err := s.eng.SynthesizeCtx(ctx, sc, budget)
		if err != nil {
			return fail(err)
		}
		resp.Verdict = rep.Verdict.String()
		resp.Explanation = explanationOut(rep.Explanation)
		if mode == "synth" {
			resp.Design = designOut(rep.Design)
		}
		resp.Spent = spentJSON(rep.Spent)
		if resp.Explanation != nil && resp.Explanation.Approximate {
			resp.Degraded = true
			resp.DegradedCause = resp.Explanation.Cause
		}

	case "check":
		rep, err := s.eng.CheckCtx(ctx, req.Design.toDesign(), sc, budget)
		if err != nil {
			return fail(err)
		}
		resp.Verdict = rep.Verdict.String()
		resp.Design = designOut(rep.Design)
		resp.Explanation = explanationOut(rep.Explanation)
		resp.Spent = spentJSON(rep.Spent)
		if resp.Explanation != nil && resp.Explanation.Approximate {
			resp.Degraded = true
			resp.DegradedCause = resp.Explanation.Cause
		}

	case "whatif":
		before, err := s.eng.SynthesizeCtx(ctx, sc, budget)
		if err != nil {
			return fail(err)
		}
		after, err := s.eng.SynthesizeCtx(ctx, req.Delta.apply(sc), budget)
		if err != nil {
			return fail(err)
		}
		resp.Before = outcomeOf(before)
		resp.After = outcomeOf(after)
		resp.Spent = spentJSON(core.BudgetSpent{
			Conflicts: before.Spent.Conflicts + after.Spent.Conflicts,
			Decisions: before.Spent.Decisions + after.Spent.Decisions,
			Wall:      before.Spent.Wall + after.Spent.Wall,
		})
		for _, o := range []*Outcome{resp.Before, resp.After} {
			if o.Explanation != nil && o.Explanation.Approximate {
				resp.Degraded = true
				resp.DegradedCause = o.Explanation.Cause
			}
		}

	case "enumerate":
		max := req.Max
		if max <= 0 || max > s.cfg.MaxEnumerate {
			max = s.cfg.MaxEnumerate
		}
		res, err := s.eng.EnumerateCtx(ctx, sc, max, budget)
		if err != nil {
			return fail(err)
		}
		for _, d := range res.Designs {
			resp.Designs = append(resp.Designs, designOut(d))
		}
		resp.Truncated = res.Truncated
		resp.TruncateReason = res.Reason
		resp.Spent = spentJSON(res.Spent)
		if res.Exhausted != nil {
			// Budget-truncated but still witnessed: a degraded 200, per
			// the enumeration degradation contract.
			resp.Degraded = true
			resp.DegradedCause = res.Exhausted.Cause
		}

	case "optimize":
		objs := make([]core.Objective, len(req.Objectives))
		for i, name := range req.Objectives {
			obj, err := core.ParseObjective(name)
			if err != nil {
				return nil, &ErrorInfo{Kind: "bad_request", Detail: err.Error()}, http.StatusBadRequest
			}
			objs[i] = obj
		}
		if req.Pareto {
			res, err := s.eng.ParetoCtx(ctx, sc, objs, budget)
			if err != nil {
				return fail(err)
			}
			for _, p := range res.Points {
				resp.ParetoPoints = append(resp.ParetoPoints, &ParetoPointOut{
					Values: p.Values, Design: designOut(p.Design),
				})
			}
			resp.Complete = res.Complete
			resp.Spent = spentJSON(res.Spent)
			if res.Exhausted != nil {
				// Partial frontier: degraded 200, mirroring enumerate.
				resp.Degraded = true
				resp.DegradedCause = res.Exhausted.Cause
			}
			return resp, nil, 0
		}
		res, err := s.eng.OptimizeCtx(ctx, sc, objs, budget)
		if err != nil {
			return fail(err)
		}
		resp.Verdict = res.Verdict.String()
		resp.Design = designOut(res.Design)
		resp.Explanation = explanationOut(res.Explanation)
		resp.ObjectiveValues = res.ObjectiveValues
		resp.LowerBounds = res.LowerBounds
		resp.Spent = spentJSON(res.Spent)
		if res.Approximate {
			// Budget-tripped but witnessed: the response still carries the
			// best design plus the proven [lower_bound, value] bracket.
			resp.Degraded = true
			resp.DegradedCause = res.ApproxCause
		}

	default:
		return nil, &ErrorInfo{Kind: "bad_request", Detail: "unknown mode " + mode}, http.StatusBadRequest
	}
	return resp, nil, 0
}

// reject sheds one request with a Retry-After hint and a typed body. The
// header speaks whole seconds (RFC 9110), so the configured hint rounds
// UP and clamps to >= 1 — the old `hint / time.Second` truncation turned
// any sub-second hint into `Retry-After: 0`, which compliant clients
// read as "retry immediately", amplifying the very overload being shed.
// The JSON body's RetryAfterMS carries the exact duration.
func (s *Server) reject(w http.ResponseWriter, ms *modeStats, start time.Time, status int, kind, detail string) {
	hint := s.cfg.RetryAfter
	secs := int64((hint + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	s.writeJSON(w, status, ErrorBody{Error: ErrorInfo{
		Kind: kind, Detail: detail, RetryAfterMS: hint.Milliseconds(),
	}})
	ms.record(outcomeShed, time.Since(start))
}

// writeError renders a typed error body and records the error outcome.
func (s *Server) writeError(w http.ResponseWriter, ms *modeStats, start time.Time, status int, info ErrorInfo) {
	s.writeJSON(w, status, ErrorBody{Error: info})
	ms.record(outcomeError, time.Since(start))
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // write errors mean the client is gone
}

// ReloadResponse is the /v1/admin/reload success body: the engine-level
// update summary plus the wall time the swap took.
type ReloadResponse struct {
	// Changes is the number of section-level KB differences applied.
	Changes int `json:"changes"`
	// BasesUpdated / BasesDropped: cached bases recompiled in place vs
	// evicted because they no longer compile under the new KB.
	BasesUpdated int `json:"bases_updated"`
	BasesDropped int `json:"bases_dropped"`
	// ElapsedMS is the wall time of the whole reload.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// maxReloadBody bounds the reload request body; catalogs are small (the
// full case-study KB is ~100KB), so 32MB is generous without letting a
// bad client balloon the heap.
const maxReloadBody = 32 << 20

// handleReload swaps the knowledge base for the one in the request body
// (KB JSON, as written by kb.Save) without shedding in-flight requests:
// Engine.UpdateKB recompiles the cached bases while running queries
// finish on clones of the old ones, so there is no drain, no downtime,
// and no cold-cache window — the very first post-reload query hits a
// revalidated base. Reloads serialize inside UpdateKB; a reload during
// drain is refused.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ms := s.stats["reload"]
	if s.draining.Load() {
		s.reject(w, ms, start, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	// Decode and validate separately (kb.Load fuses them): a body that
	// does not decode is a 400, a well-formed KB that fails semantic
	// validation (UpdateKB validates before swapping) is a 422. The body
	// buffer grows only as bytes arrive: sizing it from the client's
	// Content-Length would let a short body commit maxReloadBody. It
	// doubles as it grows, where io.ReadAll's quarter steps allocate
	// twice the bytes for a 100 KB catalog.
	var body bytes.Buffer
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxReloadBody)); err != nil {
		s.writeError(w, ms, start, http.StatusBadRequest, ErrorInfo{
			Kind: "bad_request", Detail: "reading knowledge base: " + err.Error(),
		})
		return
	}
	k, err := kb.Decode(body.Bytes())
	if err != nil {
		s.writeError(w, ms, start, http.StatusBadRequest, ErrorInfo{
			Kind: "bad_request", Detail: "parsing knowledge base: " + err.Error(),
		})
		return
	}
	up, err := s.eng.UpdateKB(k)
	if err != nil {
		s.writeError(w, ms, start, http.StatusUnprocessableEntity, ErrorInfo{
			Kind: "invalid_kb", Detail: err.Error(),
		})
		return
	}
	s.cfg.Logf("serve: reloaded KB: %s", up)
	s.writeJSON(w, http.StatusOK, ReloadResponse{
		Changes:      len(up.Diff),
		BasesUpdated: up.BasesUpdated, BasesDropped: up.BasesDropped,
		ElapsedMS: time.Since(start).Milliseconds(),
	})
	ms.record(outcomeOK, time.Since(start))
}

// handleHealthz: liveness — the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleReadyz: readiness — the prewarm set is compiled and the server
// is not draining.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := s.ready.Load() && !s.draining.Load()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, map[string]any{
		"ready":    ready,
		"draining": s.draining.Load(),
	})
}

// StatsResponse is the /statsz body.
type StatsResponse struct {
	UptimeMS     int64                    `json:"uptime_ms"`
	Ready        bool                     `json:"ready"`
	Draining     bool                     `json:"draining"`
	InFlight     int64                    `json:"in_flight"`
	Queued       int64                    `json:"queued"`
	Reloads      int64                    `json:"reloads"`
	ReloadErrors int64                    `json:"reload_errors"`
	Cache        core.CacheStats          `json:"cache"`
	Modes        map[string]ModeStatsJSON `json:"modes"`
}

// handleStatsz reports the full counter set: engine cache stats plus
// per-mode request/outcome/latency counters. Reloads and ReloadErrors
// are the reload mode's ok and errors counts.
func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	modes := s.stats.snapshot()
	s.writeJSON(w, http.StatusOK, StatsResponse{
		UptimeMS:     time.Since(s.start).Milliseconds(),
		Ready:        s.ready.Load(),
		Draining:     s.draining.Load(),
		InFlight:     int64(len(s.sem)),
		Queued:       s.queued.Load(),
		Reloads:      modes["reload"].OK,
		ReloadErrors: modes["reload"].Errors,
		Cache:        s.eng.CacheStats(),
		Modes:        modes,
	})
}
