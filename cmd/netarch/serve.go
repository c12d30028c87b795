package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netarch"
	"netarch/internal/serve"
)

// cmdServe runs the long-lived HTTP/JSON query service (DESIGN.md §12).
// The scenario flags define the prewarm shape: the server compiles that
// base before reporting ready, so the
// first real query already hits a warm base. SIGINT/SIGTERM trigger a
// graceful drain; a clean drain exits 0.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port, :0 picks a port)")
	maxInFlight := fs.Int("max-inflight", 0, "concurrently executing queries (0 = one per CPU)")
	queueDepth := fs.Int("queue-depth", 0, "admission queue length (0 = 2x max-inflight)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline on shutdown")
	maxEnum := fs.Int("max-enumerate", 64, "ceiling on per-request enumeration limits")
	chaosSpec := fs.String("chaos", "", "fault-injection profile: seed=N,rate=F[,event=solve|conflict|both]")
	retryAfter := fs.Duration("retry-after", 0, "backoff hint on 429/503 rejections (0 = 1s)")
	getScenario, _ := scenarioFlags(fs)
	getBudget := budgetFlags(fs)
	newEngine := engineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := getScenario()
	if err != nil {
		return err
	}
	var chaos *serve.Chaos
	if *chaosSpec != "" {
		if chaos, err = serve.ParseChaos(*chaosSpec); err != nil {
			return err
		}
	}

	eng, _, err := newEngine()
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		Engine:       eng,
		Addr:         *addr,
		MaxInFlight:  *maxInFlight,
		QueueDepth:   *queueDepth,
		Policy:       getBudget(),
		MaxEnumerate: *maxEnum,
		DrainTimeout: *drainTimeout,
		RetryAfter:   *retryAfter,
		Prewarm:      []netarch.Scenario{sc},
		Chaos:        chaos,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM cancel the context; Run then drains in-flight
	// requests under -drain-timeout and returns nil on a clean drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return srv.Run(ctx)
}

// cmdReload ships a knowledge-base file (JSON or DSL, "-" for stdin) to a
// running server's /v1/admin/reload endpoint. The server recompiles its
// warm bases in place — in-flight queries finish on the old catalog,
// queries admitted after the swap see the new one, and nothing is shed.
func cmdReload(args []string) error {
	fs := flag.NewFlagSet("reload", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "address of the running netarch serve instance")
	timeout := fs.Duration("timeout", 2*time.Minute, "reload request deadline (covers the recompiles)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: netarch reload [-addr host:port] <kbfile|->")
	}
	var data []byte
	var err error
	if fs.Arg(0) == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		return err
	}
	// Parse locally first: catches syntax and validation problems without
	// a round trip, and normalizes DSL input to the JSON the wire wants.
	k, err := loadAnyKB(data)
	if err != nil {
		return err
	}
	var body bytes.Buffer
	if err := k.Save(&body); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+*addr+"/v1/admin/reload", &body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var eb serve.ErrorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error.Kind != "" {
			return fmt.Errorf("reload rejected (%s): %s", eb.Error.Kind, eb.Error.Detail)
		}
		return fmt.Errorf("reload failed: status %d: %s", resp.StatusCode, raw)
	}
	var rr serve.ReloadResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return fmt.Errorf("reload: malformed response: %w", err)
	}
	fmt.Printf("reloaded: %d changes, %d bases updated (%d dropped), %dms\n",
		rr.Changes, rr.BasesUpdated, rr.BasesDropped, rr.ElapsedMS)
	return nil
}
