package topo

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestQuickUpDownPathsAreValleyFree checks the routing invariant the PFC
// analysis rests on: every produced path climbs tiers monotonically, then
// descends monotonically — no valley (down-then-up) anywhere.
func TestQuickUpDownPathsAreValleyFree(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tp *Topology
		var err error
		if r.Intn(2) == 0 {
			tp, err = NewLeafSpine(1+r.Intn(4), 2+r.Intn(4), 1, 8)
		} else {
			tp, err = NewFatTree(4, 8)
		}
		if err != nil {
			return false
		}
		servers := make([]string, 0, len(tp.servers))
		for n := range tp.servers {
			servers = append(servers, n)
		}
		sort.Strings(servers)
		src := servers[r.Intn(len(servers))]
		dst := servers[r.Intn(len(servers))]
		if src == dst {
			return true
		}
		paths, err := tp.UpDownPaths(src, dst)
		if err != nil {
			return false
		}
		for _, p := range paths {
			descending := false
			for i := 1; i < len(p); i++ {
				prev, cur := tp.switches[p[i-1]].Tier, tp.switches[p[i]].Tier
				switch {
				case cur == prev+1: // going up
					if descending {
						return false // valley!
					}
				case cur == prev-1: // going down
					descending = true
				default:
					return false // non-adjacent tier hop
				}
			}
			// Endpoints must be the right leaves.
			if p[0] != tp.servers[src].Leaf || p[len(p)-1] != tp.servers[dst].Leaf {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickFloodingSupersetOfRouting checks a monotonicity property the
// deadlock experiment relies on: the flooding dependency graph contains
// every routed dependency, so enabling flooding can only add cycles,
// never remove them.
func TestQuickFloodingMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tp, err := NewLeafSpine(1+r.Intn(3), 2+r.Intn(3), 1, 8)
		if err != nil {
			return false
		}
		plain := tp.PFCDeadlockCheck(false)
		flooded := tp.PFCDeadlockCheck(true)
		if plain.Deadlock && !flooded.Deadlock {
			return false // flooding removed a deadlock: impossible
		}
		return flooded.Edges >= plain.Edges
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
