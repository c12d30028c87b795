package serve

import (
	"sync"
	"time"
)

// Per-mode request accounting. Every request resolves to exactly one
// outcome, and the outcome counters are bumped together with the
// request total under one mutex at response time — so a /statsz
// snapshot can never observe requests != ok+degraded+shed+errors, even
// mid-flight (requests still being processed are visible in the
// in_flight/queued gauges instead, not in the mode counters). The
// reload endpoint is accounted as one more mode, so /statsz's reloads
// and reload_errors are its ok and errors counts.

// outcomeKind classifies how a request ended.
type outcomeKind int

const (
	// outcomeOK: a full-fidelity 200.
	outcomeOK outcomeKind = iota
	// outcomeDegraded: a 200 whose body is budget-degraded but still
	// witnessed (approximate explanation, budget-truncated enumeration).
	outcomeDegraded
	// outcomeShed: rejected by admission control — 429 queue-full or 503
	// draining.
	outcomeShed
	// outcomeError: typed error response — bad request, resource
	// exhaustion before a verdict, client gone, recovered panic.
	outcomeError
)

// latency histogram: exponential buckets, ~100µs base, ×2 per bucket.
// Bucket i covers [base·2^(i-1), base·2^i); the last bucket is open.
const (
	histBuckets = 24
	histBase    = 100 * time.Microsecond
)

func bucketOf(d time.Duration) int {
	if d < histBase {
		return 0
	}
	b := 0
	for v := d / histBase; v > 0 && b < histBuckets-1; v >>= 1 {
		b++
	}
	return b
}

// bucketUpper is the upper bound of bucket i, used as the reported
// quantile value (a conservative estimate: real latency is at most it).
func bucketUpper(i int) time.Duration {
	return histBase << uint(i)
}

// modeStats accounts one query mode.
type modeStats struct {
	mu       sync.Mutex
	requests int64
	ok       int64
	degraded int64
	shed     int64
	errors   int64
	hist     [histBuckets]int64
	observed int64 // latencies recorded (completed requests; sheds excluded)
}

// record finalizes one request: outcome + latency, atomically with the
// request total. Sheds skip the histogram — their latency measures the
// rejection path, not query service time.
func (m *modeStats) record(outcome outcomeKind, latency time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	switch outcome {
	case outcomeOK:
		m.ok++
	case outcomeDegraded:
		m.degraded++
	case outcomeShed:
		m.shed++
		return
	case outcomeError:
		m.errors++
	}
	m.hist[bucketOf(latency)]++
	m.observed++
}

// quantile reports the upper bound of the bucket holding the q-quantile
// observation. Caller holds mu.
func (m *modeStats) quantile(q float64) time.Duration {
	if m.observed == 0 {
		return 0
	}
	target := int64(q * float64(m.observed))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range m.hist {
		cum += n
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// ModeStatsJSON is the /statsz wire form of one mode's counters.
type ModeStatsJSON struct {
	Requests int64   `json:"requests"`
	OK       int64   `json:"ok"`
	Degraded int64   `json:"degraded"`
	Shed     int64   `json:"shed"`
	Errors   int64   `json:"errors"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// snapshot returns a consistent copy of the counters.
func (m *modeStats) snapshot() ModeStatsJSON {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ModeStatsJSON{
		Requests: m.requests,
		OK:       m.ok,
		Degraded: m.degraded,
		Shed:     m.shed,
		Errors:   m.errors,
		P50MS:    float64(m.quantile(0.50)) / float64(time.Millisecond),
		P99MS:    float64(m.quantile(0.99)) / float64(time.Millisecond),
	}
}

// queryModes are the query endpoints; statsModes adds the reload
// endpoint, which is accounted like a query mode.
var (
	statsModes = [...]string{"check", "synth", "whatif", "enumerate", "explain", "optimize", "reload"}
	queryModes = statsModes[:6]
)

// serverStats holds one modeStats per entry of statsModes. New builds it
// once and it is never written after, so lookups take no lock.
type serverStats map[string]*modeStats

func newServerStats() serverStats {
	s := make(serverStats, len(statsModes))
	for _, name := range statsModes {
		s[name] = &modeStats{}
	}
	return s
}

func (s serverStats) snapshot() map[string]ModeStatsJSON {
	out := make(map[string]ModeStatsJSON, len(s))
	for name, m := range s {
		out[name] = m.snapshot()
	}
	return out
}
