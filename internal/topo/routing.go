package topo

import (
	"fmt"
	"sort"
)

// UpDownPaths returns every valid up-down (valley-free) switch path from
// the leaf of src to the leaf of dst: the packet climbs zero or more
// tiers, crosses at a single common ancestor tier, then descends. Each
// path is a sequence of switch names starting at src's leaf and ending at
// dst's leaf. Same-leaf pairs yield the single one-element path.
func (t *Topology) UpDownPaths(src, dst string) ([][]string, error) {
	s, ok := t.servers[src]
	if !ok {
		return nil, fmt.Errorf("topo: unknown server %q", src)
	}
	d, ok := t.servers[dst]
	if !ok {
		return nil, fmt.Errorf("topo: unknown server %q", dst)
	}
	if s.Leaf == d.Leaf {
		return [][]string{{s.Leaf}}, nil
	}
	// Upward cones from both leaves, tier by tier; when the cones
	// intersect at a tier, splice paths at each common switch.
	type cone map[string][][]string // switch -> paths from leaf to it
	up := func(from string) []cone {
		cones := []cone{{from: {{from}}}}
		cur := cones[0]
		for {
			next := cone{}
			for sw, paths := range cur {
				for _, u := range t.upNeighbors(sw) {
					for _, p := range paths {
						np := append(append([]string(nil), p...), u)
						next[u] = append(next[u], np)
					}
				}
			}
			if len(next) == 0 {
				break
			}
			cones = append(cones, next)
			cur = next
		}
		return cones
	}
	sc, dc := up(s.Leaf), up(d.Leaf)
	var out [][]string
	tiers := len(sc)
	if len(dc) < tiers {
		tiers = len(dc)
	}
	for tier := 1; tier < tiers; tier++ {
		// Deterministic order over common ancestors.
		common := make([]string, 0, len(sc[tier]))
		for sw := range sc[tier] {
			if _, ok := dc[tier][sw]; ok {
				common = append(common, sw)
			}
		}
		sort.Strings(common)
		for _, sw := range common {
			sPaths, dPaths := sc[tier][sw], dc[tier][sw]
			for _, sp := range sPaths {
				for _, dp := range dPaths {
					path := append([]string(nil), sp...)
					for i := len(dp) - 2; i >= 0; i-- {
						path = append(path, dp[i])
					}
					out = append(out, path)
				}
			}
		}
		if len(out) > 0 {
			// Up-down routing uses the lowest common ancestor tier.
			break
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("topo: no up-down path from %q to %q", src, dst)
	}
	return out, nil
}

// FloodSegments returns the three-hop switch segments [in, via, out]
// traversed by L2 flooding: a flooded frame arriving at switch via from in
// is forwarded out every other port, including ports of the same or upper
// tier — the down-up turns that break the up-down invariant.
func (t *Topology) FloodSegments() [][3]string {
	var segs [][3]string
	for _, via := range t.Switches() {
		neigh := t.Neighbors(via)
		for _, in := range neigh {
			for _, out := range neigh {
				if in == out {
					continue
				}
				segs = append(segs, [3]string{in, via, out})
			}
		}
	}
	return segs
}

// RoutedSegments returns the three-hop segments induced by up-down routing
// between every pair of distinct leaves (with every ECMP choice), plus the
// two-hop ingress/egress segments represented with empty endpoints. These
// feed the buffer-dependency graph.
func (t *Topology) RoutedSegments() [][3]string {
	var segs [][3]string
	leaves := t.leafNames()
	seen := map[[3]string]bool{}
	for _, l1 := range leaves {
		srvs1 := t.serversAt[l1]
		if len(srvs1) == 0 {
			continue
		}
		for _, l2 := range leaves {
			if l1 == l2 {
				continue
			}
			srvs2 := t.serversAt[l2]
			if len(srvs2) == 0 {
				continue
			}
			paths, err := t.UpDownPaths(srvs1[0], srvs2[0])
			if err != nil {
				continue
			}
			for _, p := range paths {
				for i := 0; i+2 < len(p); i++ {
					seg := [3]string{p[i], p[i+1], p[i+2]}
					if !seen[seg] {
						seen[seg] = true
						segs = append(segs, seg)
					}
				}
			}
		}
	}
	return segs
}

func (t *Topology) leafNames() []string {
	var out []string
	for _, n := range t.Switches() {
		if t.switches[n].Tier == TierLeaf {
			out = append(out, n)
		}
	}
	return out
}
