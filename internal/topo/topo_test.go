package topo

import (
	"strings"
	"testing"
)

func mustLeafSpine(t *testing.T, spines, leaves, perLeaf int) *Topology {
	t.Helper()
	tp, err := NewLeafSpine(spines, leaves, perLeaf, 64)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestLeafSpineShape(t *testing.T) {
	tp := mustLeafSpine(t, 2, 3, 4)
	if got := len(tp.Switches()); got != 5 {
		t.Errorf("switches: got %d, want 5", got)
	}
	if got := len(tp.servers); got != 12 {
		t.Errorf("servers: got %d, want 12", got)
	}
	racks := map[string]bool{}
	for _, s := range tp.servers {
		racks[s.Rack] = true
	}
	if got := len(racks); got != 3 {
		t.Errorf("racks: got %d, want 3", got)
	}
	// Every leaf sees every spine.
	for _, l := range []string{"leaf0", "leaf1", "leaf2"} {
		n := tp.Neighbors(l)
		if len(n) != 2 || n[0] != "spine0" || n[1] != "spine1" {
			t.Errorf("leaf %s neighbours: %v", l, n)
		}
	}
	var inRack1 int
	for _, s := range tp.servers {
		if s.Rack == "rack1" {
			inRack1++
			if s.Cores != 64 {
				t.Errorf("server %s cores: got %d", s.Name, s.Cores)
			}
		}
	}
	if inRack1 != 4 {
		t.Errorf("servers in rack1: got %d, want 4", inRack1)
	}
}

func TestLeafSpineInvalid(t *testing.T) {
	if _, err := NewLeafSpine(0, 1, 1, 1); err == nil {
		t.Error("zero spines must fail")
	}
}

func TestFatTreeShape(t *testing.T) {
	k := 4
	tp, err := NewFatTree(k, 32)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 4 core, 8 agg, 8 edge switches; 16 servers.
	if got := len(tp.Switches()); got != 20 {
		t.Errorf("switches: got %d, want 20", got)
	}
	if got := len(tp.servers); got != 16 {
		t.Errorf("servers: got %d, want 16", got)
	}
	if _, err := NewFatTree(3, 1); err == nil {
		t.Error("odd arity must fail")
	}
	if _, err := NewFatTree(0, 1); err == nil {
		t.Error("zero arity must fail")
	}
}

func TestUpDownPathsSameLeaf(t *testing.T) {
	tp := mustLeafSpine(t, 2, 2, 2)
	paths, err := tp.UpDownPaths("srv-0-0", "srv-0-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 1 || paths[0][0] != "leaf0" {
		t.Errorf("same-leaf path: %v", paths)
	}
}

func TestUpDownPathsCrossLeaf(t *testing.T) {
	tp := mustLeafSpine(t, 3, 2, 1)
	paths, err := tp.UpDownPaths("srv-0-0", "srv-1-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("want one path per spine, got %v", paths)
	}
	for _, p := range paths {
		if len(p) != 3 || p[0] != "leaf0" || p[2] != "leaf1" || !strings.HasPrefix(p[1], "spine") {
			t.Errorf("malformed path %v", p)
		}
	}
}

func TestUpDownPathsFatTreeCrossPod(t *testing.T) {
	tp, err := NewFatTree(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := tp.UpDownPaths("srv-0-0-0", "srv-1-0-0")
	if err != nil {
		t.Fatal(err)
	}
	// Cross-pod in k=4 fat tree: 4 paths (2 agg × 2 core... per agg pair).
	if len(paths) != 4 {
		t.Fatalf("cross-pod paths: got %d (%v)", len(paths), paths)
	}
	for _, p := range paths {
		if len(p) != 5 {
			t.Errorf("cross-pod path length: %v", p)
		}
		if !strings.HasPrefix(p[2], "core") {
			t.Errorf("cross-pod must traverse core: %v", p)
		}
	}
	// Same-pod different edge: 2 paths via the 2 aggs, length 3.
	paths, err = tp.UpDownPaths("srv-0-0-0", "srv-0-1-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("same-pod paths: got %d", len(paths))
	}
	for _, p := range paths {
		if len(p) != 3 || !strings.HasPrefix(p[1], "agg0-") {
			t.Errorf("same-pod path must use lowest common tier: %v", p)
		}
	}
}

func TestUpDownPathErrors(t *testing.T) {
	tp := mustLeafSpine(t, 2, 2, 1)
	if _, err := tp.UpDownPaths("ghost", "srv-0-0"); err == nil {
		t.Error("unknown src must fail")
	}
	if _, err := tp.UpDownPaths("srv-0-0", "ghost"); err == nil {
		t.Error("unknown dst must fail")
	}
}

func TestPFCNoDeadlockWithUpDown(t *testing.T) {
	for _, build := range []func() *Topology{
		func() *Topology { return mustLeafSpine(t, 2, 3, 2) },
		func() *Topology { return mustLeafSpine(t, 4, 8, 4) },
		func() *Topology {
			tp, err := NewFatTree(4, 32)
			if err != nil {
				t.Fatal(err)
			}
			return tp
		},
	} {
		rep := build().PFCDeadlockCheck(false)
		if rep.Deadlock {
			t.Errorf("up-down routing must be deadlock-free: %s", rep)
		}
		if rep.Edges == 0 {
			t.Error("dependency graph should not be empty")
		}
	}
}

func TestPFCDeadlockWithFlooding(t *testing.T) {
	// The Microsoft incident: flooding creates down-up turns and cycles.
	// Needs at least 2 spines and 2 leaves.
	tp := mustLeafSpine(t, 2, 2, 1)
	rep := tp.PFCDeadlockCheck(true)
	if !rep.Deadlock {
		t.Fatalf("flooding must create a cyclic buffer dependency: %s", rep)
	}
	if len(rep.Cycle) < 3 {
		t.Errorf("cycle witness too short: %v", rep.Cycle)
	}
	if rep.Cycle[0] != rep.Cycle[len(rep.Cycle)-1] {
		t.Error("cycle witness must close")
	}
	// The witness must be a real cycle: each consecutive pair must be a
	// valid segment dependency (b1.At == b2.From).
	for i := 0; i+1 < len(rep.Cycle); i++ {
		if rep.Cycle[i].At != rep.Cycle[i+1].From {
			t.Errorf("cycle step %d broken: %v -> %v", i, rep.Cycle[i], rep.Cycle[i+1])
		}
	}
	if !strings.Contains(rep.String(), "DEADLOCK") {
		t.Error("report string should mention deadlock")
	}
}

func TestPFCFloodingSingleSpineSafe(t *testing.T) {
	// With a single spine there is no alternative up-port, so flooding
	// cannot create a down-up-down loop among switches.
	tp := mustLeafSpine(t, 1, 3, 1)
	rep := tp.PFCDeadlockCheck(true)
	if rep.Deadlock {
		t.Errorf("single-spine flooding should be safe: %s", rep)
	}
}

func TestFloodSegmentsIncludeDownUpTurn(t *testing.T) {
	tp := mustLeafSpine(t, 2, 2, 1)
	segs := tp.FloodSegments()
	found := false
	for _, s := range segs {
		if s[0] == "spine0" && s[1] == "leaf0" && s[2] == "spine1" {
			found = true
		}
	}
	if !found {
		t.Error("flooding must include spine->leaf->spine turns")
	}
}

func TestBufferGraphDirect(t *testing.T) {
	g := NewBufferGraph()
	g.AddSegment("a", "b", "c")
	g.AddSegment("b", "c", "a")
	g.AddSegment("c", "a", "b")
	cycle := g.FindCycle()
	if cycle == nil {
		t.Fatal("triangle must cycle")
	}
	if g.Size() != 3 {
		t.Errorf("size: got %d, want 3", g.Size())
	}
	g2 := NewBufferGraph()
	g2.AddSegment("a", "b", "c")
	g2.AddSegment("b", "c", "d")
	if g2.FindCycle() != nil {
		t.Error("chain must be acyclic")
	}
	if !strings.Contains((Buffer{From: "x", At: "y"}).String(), "x->y") {
		t.Error("Buffer.String wrong")
	}
}

func TestTierString(t *testing.T) {
	if TierLeaf.String() != "leaf" || TierSpine.String() != "spine" || TierCore.String() != "core" {
		t.Error("tier names wrong")
	}
}

func TestServersAtLeaf(t *testing.T) {
	tp := mustLeafSpine(t, 2, 2, 3)
	if got := tp.serversAt["leaf0"]; len(got) != 3 {
		t.Errorf("servers at leaf0: %v", got)
	}
}
