package serve

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"netarch/internal/sat"
)

// The chaos profile is the server's fault-injection surface: a seeded,
// rate-controlled hook wired into Engine.SetFaultHook at startup. Every
// solver the engine specializes carries the hook; when it fires, the
// solve is interrupted exactly as a budget trip or deadline would
// interrupt it, so chaos exercises the same degraded paths production
// overload does — typed resource_exhausted errors and degraded-but-
// witnessed responses, never malformed bodies or crashes. The solver
// clone a fault hits is discarded with its request (every request clones
// the base afresh, see core.Engine.instance), so one injected fault can
// never poison a later request.

// Chaos is a concurrency-safe fault-injection profile. The zero value
// (or a nil *Chaos) injects nothing.
type Chaos struct {
	mu   sync.Mutex
	rng  *rand.Rand
	rate float64
	// events gates which sat.FaultEvent kinds are eligible; empty means
	// both solve-entry and conflict-boundary events.
	events map[sat.FaultEvent]bool

	fired int64 // faults injected so far (see Fired)
}

// NewChaos builds a profile injecting at the given per-event rate
// (0..1) from a deterministic seed. events lists the eligible fault
// points; empty means all.
func NewChaos(seed int64, rate float64, events ...sat.FaultEvent) *Chaos {
	c := &Chaos{rng: rand.New(rand.NewSource(seed)), rate: rate}
	if len(events) > 0 {
		c.events = make(map[sat.FaultEvent]bool, len(events))
		for _, ev := range events {
			c.events[ev] = true
		}
	}
	return c
}

// ParseChaos parses a CLI chaos spec: comma-separated key=value pairs
// "seed=N,rate=F[,event=solve|conflict|both]", e.g.
// "seed=42,rate=0.01,event=conflict". Rate is the probability of
// injecting a fault at each eligible solver event.
func ParseChaos(spec string) (*Chaos, error) {
	var (
		seed   int64 = 1
		rate   float64
		events []sat.FaultEvent
	)
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("serve: bad chaos spec element %q (want key=value)", kv)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("serve: bad chaos seed %q", v)
			}
			seed = n
		case "rate":
			f, err := strconv.ParseFloat(v, 64)
			// Written so NaN fails too: every comparison with NaN is false.
			if err != nil || !(f >= 0 && f <= 1) {
				return nil, fmt.Errorf("serve: bad chaos rate %q (want 0..1)", v)
			}
			rate = f
		case "event":
			switch v {
			case "solve":
				events = []sat.FaultEvent{sat.EventSolve}
			case "conflict":
				events = []sat.FaultEvent{sat.EventConflict}
			case "both":
				events = nil
			default:
				return nil, fmt.Errorf("serve: bad chaos event %q (want solve|conflict|both)", v)
			}
		default:
			return nil, fmt.Errorf("serve: unknown chaos key %q", k)
		}
	}
	return NewChaos(seed, rate, events...), nil
}

// Hook is the sat fault hook. It runs on solving goroutines, so the RNG
// draw is mutex-guarded; returning true interrupts the solve.
func (c *Chaos) Hook(ev sat.FaultEvent, _ sat.Stats) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rate <= 0 {
		return false
	}
	if c.events != nil && !c.events[ev] {
		return false
	}
	if c.rng.Float64() >= c.rate {
		return false
	}
	c.fired++
	return true
}

// SetRate changes the injection rate at runtime (tests arm and disarm
// specific fault kinds this way without touching the engine's hook,
// which must be installed once before queries start).
func (c *Chaos) SetRate(rate float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rate = rate
}

// SetEvents changes the eligible fault kinds at runtime; no arguments
// makes every kind eligible.
func (c *Chaos) SetEvents(events ...sat.FaultEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(events) == 0 {
		c.events = nil
		return
	}
	c.events = make(map[sat.FaultEvent]bool, len(events))
	for _, ev := range events {
		c.events[ev] = true
	}
}

// Fired reports how many faults the profile has injected.
func (c *Chaos) Fired() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}
