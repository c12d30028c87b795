package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"netarch"
	"netarch/internal/kb"
	"netarch/internal/serve"
)

// TestCmdSolveBudgetTripped pins the exit-4 path the signal handler
// shares: a starvation budget trips before a verdict, the command
// returns a typed resource-exhaustion error, and run() maps exactly that
// error class to exit code 4.
func TestCmdSolveBudgetTripped(t *testing.T) {
	err := cmdSolve([]string{"-require", "congestion_control", "-timeout", "1ns"}, "synth")
	if err == nil {
		t.Fatal("1ns budget did not trip")
	}
	if !netarch.IsResourceExhausted(err) {
		t.Fatalf("budget trip is not a typed exhaustion error: %v", err)
	}
}

// TestQueryContextSignal pins the one-shot signal wiring: SIGINT cancels
// the query context (queries then stop at the next solver boundary and
// surface as "canceled" exhaustion errors → exit 4). NotifyContext
// consumes the signal, so the test process survives.
func TestQueryContextSignal(t *testing.T) {
	ctx, stop := queryContext()
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
		if ctx.Err() != context.Canceled {
			t.Fatalf("ctx.Err() = %v, want Canceled", ctx.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the query context")
	}
}

// TestCmdServeBadFlags pins serve's flag validation error paths.
func TestCmdServeBadFlags(t *testing.T) {
	if err := cmdServe([]string{"-chaos", "rate=2.0"}); err == nil {
		t.Error("chaos rate 2.0 must be rejected")
	}
	if err := cmdServe([]string{"-chaos", "flavor=spicy"}); err == nil {
		t.Error("unknown chaos key must be rejected")
	}
	if err := cmdServe([]string{"-addr", "not:a:valid:addr:at:all"}); err == nil {
		t.Error("unlistenable address must be rejected")
	}
}

// TestCmdReload drives the reload client against a live in-process
// server: a DSL file on disk round-trips to JSON on the wire, the server
// swaps catalogs, and the client's error paths (bad usage, unreadable
// file, no server) all surface as errors rather than panics.
func TestCmdReload(t *testing.T) {
	eng, err := netarch.NewEngine(netarch.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Engine:  eng,
		Addr:    "127.0.0.1:0",
		Prewarm: []netarch.Scenario{{Workloads: []string{"inference_app"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	// Ship the case study (as JSON) with one extra rule.
	k := netarch.CaseStudy()
	k.Rules = append(k.Rules, kb.Rule{
		Name: "cli_reload_marker",
		Expr: kb.Implies(kb.CtxAtom("cli_reload"), kb.TrueExpr()),
	})
	kbFile := filepath.Join(t.TempDir(), "next.json")
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(kbFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdReload([]string{"-addr", srv.Addr(), kbFile}); err != nil {
		t.Fatalf("reload against live server: %v", err)
	}

	// Error paths.
	if err := cmdReload([]string{"-addr", srv.Addr()}); err == nil {
		t.Error("missing file argument must be a usage error")
	}
	if err := cmdReload([]string{"-addr", srv.Addr(), "/nonexistent/kb.json"}); err == nil {
		t.Error("unreadable file must error")
	}
	if err := cmdReload([]string{"-addr", "127.0.0.1:1", "-timeout", "2s", kbFile}); err == nil {
		t.Error("reload with no server listening must error")
	}
}
