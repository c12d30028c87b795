package netarch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported functions and methods under internal/
// that no production code calls but that stay on purpose. Each entry
// carries its reason.
var exportAllowlist = map[string]string{
	"DatalogCheck":     "§3.4 Datalog reasoner, a reproduction artifact the tests drive",
	"CheckRUP":         "independent proof checker, a reproduction artifact",
	"WriteDRAT":        "DRAT proof output, a reproduction artifact",
	"AttachProof":      "turns on proof logging for the proof-checking tests and benchmarks",
	"ParseDIMACS":      "DIMACS input, a reproduction artifact",
	"WriteDIMACS":      "DIMACS output, a reproduction artifact",
	"Solve":            "assumption-free solve, the entry point of the DPLL ablation and proof logging",
	"AtMostKSeq":       "sequential counter, the baseline arm of the cardinality ablation benchmark",
	"AtLeastLit":       "totalizer at-least bound, imposed by the cardinality ablation and tests",
	"CheckObjectivity": "§4.2 objectivity check over extracted specs",
	"NewWeighted":      "weighted MaxSAT objective, the weighted-descent fuzz fixture",
	"ArenaWords":       "solver-storage accessor that core's alloc tests read",
	"WatchSlab":        "solver-storage accessor that core's alloc tests read",
	"VarCapacity":      "solver-storage accessor that core's alloc tests read",
	"Snapshot":         "solver-state bytes that sat, core and intlin tests compare and the compiled-base golden test pins",
	"SetRate":          "serve chaos setter the chaos tests arm and disarm faults with",
	"SetEvents":        "serve chaos setter the chaos tests pick fault kinds with",
	"Fired":            "serve chaos counter the chaos tests read",
	"SetCacheCapacity": "engine knob the bench/ harness sets",
	"SetClonePool":     "no-op the bench/ harness still calls",
	"SetSliceMode":     "no-op the bench/ harness still calls",
	"SetWorkers":       "no-op the bench/ harness still calls",
	"WaitReady":        "serve readiness wait the bench/ harness calls",
}

// standardMethods satisfy standard-library interfaces, which callers
// reach through the interface rather than by name.
var standardMethods = map[string]bool{"Error": true, "Unwrap": true, "String": true}

// TestNoUnreachableExports fails on any exported function or method
// declared in a non-test file under internal/ whose name no non-test
// expression outside bench/ references. Code only tests reach belongs
// in test files; names that stay anyway are in exportAllowlist.
func TestNoUnreachableExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // name -> declaring positions
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && internal && fd.Name.IsExported() {
				name := fd.Name.Name
				if fd.Recv != nil && standardMethods[name] {
					continue
				}
				declared[name] = append(declared[name], fset.Position(fd.Name.Pos()).String())
			}
		}
		collectUses(f, used)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for name, pos := range declared {
		if used[name] {
			continue
		}
		if _, ok := exportAllowlist[name]; ok {
			continue
		}
		dead = append(dead, name+" ("+strings.Join(pos, ", ")+")")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but unreachable from non-test code: %s", d)
	}
	for name := range exportAllowlist {
		if len(declared[name]) == 0 {
			t.Errorf("allowlisted %s is no longer declared under internal/; drop it from exportAllowlist", name)
		} else if used[name] {
			t.Errorf("allowlisted %s is now referenced by non-test code; drop it from exportAllowlist", name)
		}
	}
}

// collectUses records every identifier f uses as an expression. Names
// in declaring position (function, type, field, parameter and variable
// names, and composite-literal keys) are not uses.
func collectUses(f *ast.File, used map[string]bool) {
	decl := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			decl[n.Name] = true
		case *ast.TypeSpec:
			decl[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				decl[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				decl[id] = true
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				decl[id] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						decl[id] = true
					}
				}
			}
		case *ast.Ident:
			if !decl[n] {
				used[n.Name] = true
			}
		}
		return true
	})
}
