package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netarch"
	"netarch/internal/dsl"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errCh := make(chan error, 1)
	go func() {
		errCh <- fn()
		w.Close()
	}()
	data, readErr := io.ReadAll(r)
	os.Stdout = old
	if readErr != nil {
		t.Fatal(readErr)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("command failed: %v", err)
	}
	return string(data)
}

func TestCmdCatalogStats(t *testing.T) {
	out := capture(t, func() error { return cmdCatalog([]string{"stats"}) })
	for _, want := range []string{"systems:", "hardware:", "spec size:", "network_stack"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats missing %q", want)
		}
	}
}

func TestCmdCatalogSystems(t *testing.T) {
	out := capture(t, func() error { return cmdCatalog([]string{"systems"}) })
	if !strings.Contains(out, "simon") || !strings.Contains(out, "congestion_control:") {
		t.Errorf("systems listing incomplete")
	}
}

func TestCmdCatalogHardware(t *testing.T) {
	out := capture(t, func() error { return cmdCatalog([]string{"hardware"}) })
	if !strings.Contains(out, "Cisco Catalyst 9500-40X") {
		t.Error("hardware listing missing the Listing 1 SKU")
	}
}

func TestCmdCatalogExportRoundTrip(t *testing.T) {
	jsonOut := capture(t, func() error { return cmdCatalog([]string{"export"}) })
	if !strings.HasPrefix(strings.TrimSpace(jsonOut), "{") {
		t.Error("export must emit JSON")
	}
	dslOut := capture(t, func() error { return cmdCatalog([]string{"export-dsl"}) })
	if !strings.Contains(dslOut, "system linux {") {
		t.Error("export-dsl must emit DSL")
	}
	if err := cmdCatalog([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand must error")
	}
}

func TestCmdViz(t *testing.T) {
	out := capture(t, func() error { return cmdViz([]string{"throughput"}) })
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "netchannel") {
		t.Errorf("viz output wrong:\n%s", out)
	}
	if err := cmdViz([]string{"nope"}); err == nil {
		t.Error("unknown dimension must error")
	}
	if err := cmdViz(nil); err == nil {
		t.Error("missing dimension must error")
	}
}

func TestCmdPFC(t *testing.T) {
	out := capture(t, func() error {
		return cmdPFC([]string{"-topo", "leafspine:2x2", "-flooding"})
	})
	if !strings.Contains(out, "DEADLOCK") {
		t.Errorf("flooded leaf-spine must deadlock:\n%s", out)
	}
	out = capture(t, func() error {
		return cmdPFC([]string{"-topo", "fattree:4"})
	})
	if !strings.Contains(out, "no PFC deadlock") {
		t.Errorf("clean fat-tree must be safe:\n%s", out)
	}
	for _, bad := range [][]string{
		{"-topo", "ring:3"}, {"-topo", "leafspine:x"}, {"-topo", "fattree:x"},
	} {
		if err := cmdPFC(bad); err == nil {
			t.Errorf("bad topo %v must error", bad)
		}
	}
}

func TestCmdKBValidateAndConvert(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.dsl")
	src := "system x {\n    role: monitoring\n    solves: p\n}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error { return cmdKB([]string{"validate", path}) })
	if !strings.Contains(out, "valid: 1 systems") {
		t.Errorf("validate output wrong: %s", out)
	}
	jsonOut := capture(t, func() error { return cmdKB([]string{"to-json", path}) })
	if !strings.Contains(jsonOut, `"name": "x"`) {
		t.Errorf("to-json wrong: %s", jsonOut)
	}
	jsonPath := filepath.Join(dir, "kb.json")
	if err := os.WriteFile(jsonPath, []byte(jsonOut), 0o644); err != nil {
		t.Fatal(err)
	}
	dslOut := capture(t, func() error { return cmdKB([]string{"to-dsl", jsonPath}) })
	if !strings.Contains(dslOut, "system x {") {
		t.Errorf("to-dsl wrong: %s", dslOut)
	}
	if err := cmdKB([]string{"validate"}); err == nil {
		t.Error("missing file arg must error")
	}
	if err := cmdKB([]string{"bogus", path}); err == nil {
		t.Error("unknown subcommand must error")
	}
}

func TestCmdKBDiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.dsl")
	b := filepath.Join(dir, "b.dsl")
	os.WriteFile(a, []byte("system x {\n    role: monitoring\n}\n"), 0o644)
	os.WriteFile(b, []byte("system x {\n    role: monitoring\n}\nsystem y {\n    role: monitoring\n}\n"), 0o644)
	out := capture(t, func() error { return cmdKB([]string{"diff", a, b}) })
	if !strings.Contains(out, `added system "y"`) {
		t.Errorf("diff output wrong: %s", out)
	}
	if err := cmdKB([]string{"diff", a}); err == nil {
		t.Error("diff needs two files")
	}
}

func TestCmdExtract(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.txt")
	os.WriteFile(path, []byte("Model Name: Test Switch\nDevice Class: Ethernet Switch\nECN supported?: Yes\n"), 0o644)
	out := capture(t, func() error { return cmdExtract([]string{path}) })
	if !strings.Contains(out, `"name": "Test Switch"`) || !strings.Contains(out, "ECN") {
		t.Errorf("extract output wrong: %s", out)
	}
	if err := cmdExtract(nil); err == nil {
		t.Error("missing arg must error")
	}
}

func TestCmdExperimentsSingle(t *testing.T) {
	out := capture(t, func() error { return cmdExperiments([]string{"L1"}) })
	if !strings.Contains(out, "SHAPE-MATCH") || !strings.Contains(out, "Cisco") {
		t.Errorf("experiment output wrong:\n%s", out)
	}
	if err := cmdExperiments([]string{"nope"}); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestCmdSolveModes(t *testing.T) {
	out := capture(t, func() error {
		return cmdSolve([]string{"-require", "congestion_control"}, "synth")
	})
	if !strings.Contains(out, "FEASIBLE") || !strings.Contains(out, "systems:") {
		t.Errorf("synth output wrong:\n%s", out)
	}
	out = capture(t, func() error {
		return cmdSolve([]string{"-context", "pfc_enabled=true,flooding_enabled=true"}, "explain")
	})
	if !strings.Contains(out, "pfc_no_flooding") {
		t.Errorf("explain output wrong:\n%s", out)
	}
	out = capture(t, func() error {
		return cmdSolve([]string{"-context", "pfc_enabled=true,flooding_enabled=true"}, "suggest")
	})
	if !strings.Contains(out, "relax:") {
		t.Errorf("suggest output wrong:\n%s", out)
	}
	out = capture(t, func() error {
		return cmdSolve([]string{"-require", "congestion_control", "-objectives", "systems,cost"}, "optimize")
	})
	if !strings.Contains(out, "objective[0] minimize_systems") {
		t.Errorf("optimize output wrong:\n%s", out)
	}
	out = capture(t, func() error {
		return cmdSolve([]string{"-md", "-require", "congestion_control"}, "synth")
	})
	if !strings.Contains(out, "# Network architecture reasoning report") {
		t.Errorf("markdown synth output wrong:\n%s", out)
	}
	out = capture(t, func() error {
		return cmdSolve([]string{"-require", "congestion_control"}, "disambiguate")
	})
	if !strings.Contains(out, "design classes") {
		t.Errorf("disambiguate output wrong:\n%s", out)
	}
}

// TestCmdSolveKBFile: -kb names the knowledge base a query runs on. The
// case study written as JSON or as DSL answers exactly like the built-in
// one, and a file the decoder refuses fails the command.
func TestCmdSolveKBFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	synth := func(args ...string) string {
		out := capture(t, func() error {
			return cmdSolve(append(args, "-require", "congestion_control"), "synth")
		})
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "spent:") { // wall time differs run to run
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	var js strings.Builder
	if err := netarch.CaseStudy().Save(&js); err != nil {
		t.Fatal(err)
	}
	want := synth()
	for name, data := range map[string]string{"cs.json": js.String(), "cs.na": dsl.Format(netarch.CaseStudy())} {
		if got := synth("-kb", write(name, data)); got != want {
			t.Errorf("synth -kb %s:\n%s\nwant the built-in case study's:\n%s", name, got, want)
		}
	}
	bad := write("dup.json", `{"systems":[],"systems":[]}`)
	if err := cmdSolve([]string{"-kb", bad}, "synth"); err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Errorf("synth -kb with a repeated key: err %v, want a duplicate-key decode error", err)
	}
}

// TestCmdDisambiguateAboveSliceThreshold: on a catalog large enough
// that queries slice, disambiguate still answers, over the full KB.
func TestCmdDisambiguateAboveSliceThreshold(t *testing.T) {
	var js strings.Builder
	if err := netarch.ScaledCatalog(600).Save(&js); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scaled.json")
	if err := os.WriteFile(path, []byte(js.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error {
		return cmdSolve([]string{"-kb", path, "-workloads", "inference_app", "-require", "congestion_control"}, "disambiguate")
	})
	if !strings.Contains(out, "16 compliant design classes") {
		t.Errorf("disambiguate over 600 SKUs:\n%s", out)
	}
}

// TestCmdRejectsSlice: the engine decides slicing itself, so -slice is
// not a flag of any command and fails at parsing, before any query runs.
func TestCmdRejectsSlice(t *testing.T) {
	slice := []string{"-slice", "off"}
	cmds := map[string]func() error{
		"check": func() error { return cmdCheck(append([]string{"-systems", "linux"}, slice...)) },
		"multi": func() error { return cmdMulti(slice) },
		"serve": func() error { return cmdServe(slice) },
	}
	for _, mode := range []string{"synth", "optimize", "explain", "suggest", "disambiguate"} {
		cmds[mode] = func() error { return cmdSolve(slice, mode) }
	}
	for name, run := range cmds {
		if err := run(); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -slice") {
			t.Errorf("%s -slice: err = %v, want a flag-parsing error", name, err)
		}
	}
}

// TestCmdOptimizeRejectsStrategy: optimize has one MaxSAT descent, so
// -strategy is not a flag and fails at parsing, before any query runs.
func TestCmdOptimizeRejectsStrategy(t *testing.T) {
	for _, name := range []string{"linear", "binary"} {
		err := cmdSolve([]string{"-objectives", "cost", "-strategy", name}, "optimize")
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -strategy") {
			t.Errorf("-strategy %s: err = %v, want a flag-parsing error", name, err)
		}
	}
}

func TestCmdCheckFlow(t *testing.T) {
	out := capture(t, func() error {
		return cmdCheck([]string{
			"-systems", "linux,cubic,ecmp,tcp,ovs,pingmesh,simon",
			"-switch", "Aristo EX-32x100G",
			"-nic", "Marvella SoC-100G",
			"-server", "Suprima HD-128c",
			"-workloads", "inference_app",
		})
	})
	if !strings.Contains(out, "FEASIBLE") && !strings.Contains(out, "INFEASIBLE") {
		t.Errorf("check output wrong:\n%s", out)
	}
}

func TestCmdMulti(t *testing.T) {
	out := capture(t, func() error {
		return cmdMulti([]string{"-rounds", "2", "-require", "congestion_control"})
	})
	for _, want := range []string{"round 1:", "round 2:", "FEASIBLE", "cache:", "hit rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("multi output missing %q:\n%s", want, out)
		}
	}
	// Two rounds of synth+explain+optimize over one shape: one compile,
	// the rest served from the cache.
	if !strings.Contains(out, "1 bases cached") || !strings.Contains(out, "1 misses") {
		t.Errorf("multi should compile exactly one base:\n%s", out)
	}
}

func TestCmdSolveCacheStatsFlag(t *testing.T) {
	out := capture(t, func() error {
		return cmdSolve([]string{"-require", "congestion_control", "-cache-stats"}, "synth")
	})
	if !strings.Contains(out, "cache:") || !strings.Contains(out, "misses") {
		t.Errorf("synth -cache-stats should print cache counters:\n%s", out)
	}
}

// TestCmdSolveCacheDir: the persistent compiled-base cache is gone, so
// -cache-dir is not a flag of any query command and fails at parsing,
// before any query runs.
func TestCmdSolveCacheDir(t *testing.T) {
	for _, mode := range []string{"synth", "explain", "optimize"} {
		err := cmdSolve([]string{"-require", "congestion_control", "-cache-dir", t.TempDir()}, mode)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -cache-dir") {
			t.Errorf("%s -cache-dir: err = %v, want a flag-parsing error", mode, err)
		}
	}
	err := cmdCheck([]string{"-systems", "linux", "-cache-dir", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -cache-dir") {
		t.Errorf("check -cache-dir: err = %v, want a flag-parsing error", err)
	}
}
