// Command gegate fronts a pool of geserve replicas with health-checked
// load balancing, per-replica circuit breakers, hedged requests, and a
// global retry budget — the tier that keeps answering when individual
// replicas stall or die:
//
//	gegate -addr :8370 -replicas http://127.0.0.1:8377,http://127.0.0.1:8378,http://127.0.0.1:8379
//
// Clients speak the same protocol as to a single geserve:
//
//	curl -X POST localhost:8370/v1/run -d '{"DurationSec": 2}'
//	curl localhost:8370/replicaz   # live per-replica breaker/probe/load table
//	curl localhost:8370/metricz    # hedge + breaker + per-replica counters
//
// Every response carries X-GE-Replica (which backend answered),
// X-GE-Attempts, and X-GE-Hedged when a tail hedge won — cmd/geload
// aggregates these into a per-replica attribution report. SIGTERM/SIGINT
// shuts down gracefully: the listener drains in-flight requests, probe
// loops stop, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"goodenough/internal/gateway"
	"goodenough/internal/obs"
	"goodenough/internal/server"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so the span log is flushed on every exit.
func run() int {
	var (
		addr         = flag.String("addr", ":8370", "listen address")
		replicas     = flag.String("replicas", "", "comma-separated geserve base URLs (required)")
		probeEvery   = flag.Duration("probe-interval", 500*time.Millisecond, "active /readyz probe period")
		probeTimeout = flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
		brFailures   = flag.Int("breaker-failures", 3, "consecutive failures that open a replica's breaker")
		brOpenFor    = flag.Duration("breaker-open", 2*time.Second, "open-state duration before a half-open trial")
		noHedge      = flag.Bool("no-hedge", false, "disable tail-latency hedging")
		qualityAware = flag.Bool("quality-aware", false, "prefer replicas by governor signals (brownout state, then headroom) before raw load")
		hedgeQ       = flag.Float64("hedge-quantile", 0.95, "latency quantile that sets the hedge delay")
		hedgeMin     = flag.Duration("hedge-min", 50*time.Millisecond, "hedge delay floor (also the cold-start delay)")
		hedgeMax     = flag.Duration("hedge-max", 2*time.Second, "hedge delay ceiling")
		maxAttempts  = flag.Int("max-attempts", 3, "upstream attempts per request, hedges included")
		budgetRatio  = flag.Float64("retry-budget", 0.2, "retry/hedge tokens earned per client request")
		budgetBurst  = flag.Float64("retry-burst", 16, "retry budget bucket size")
		timeout      = flag.Duration("timeout", 90*time.Second, "end-to-end deadline per client request")
		shutdownGr   = flag.Duration("shutdown-grace", 15*time.Second, "drain deadline on SIGTERM")
		spanLog      = flag.String("span-log", "", "trace proxied requests + attempts to this JSONL file (empty = tracing off)")
		rampSteps    = flag.Int("rejoin-ramp-steps", 3, "slow-start steps a rejoining replica climbs before full weight")
		rampStep     = flag.Duration("rejoin-ramp-step", 500*time.Millisecond, "duration of each rejoin slow-start step")
	)
	flag.Parse()

	var spans *obs.SpanBus
	if *spanLog != "" {
		f, err := os.Create(*spanLog)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		sink := obs.NewSpanLog(f)
		defer sink.Flush()
		spans = obs.NewSpanBus(sink)
	}

	if *replicas == "" {
		fmt.Fprintln(os.Stderr, "gegate: -replicas is required (comma-separated geserve URLs)")
		return 1
	}
	var pool []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			pool = append(pool, r)
		}
	}

	gw, err := gateway.New(gateway.Config{
		Replicas:         pool,
		ProbeInterval:    *probeEvery,
		ProbeTimeout:     *probeTimeout,
		BreakerFailures:  *brFailures,
		BreakerOpenFor:   *brOpenFor,
		DisableHedging:   *noHedge,
		QualityAware:     *qualityAware,
		HedgeQuantile:    *hedgeQ,
		HedgeMinDelay:    *hedgeMin,
		HedgeMaxDelay:    *hedgeMax,
		MaxAttempts:      *maxAttempts,
		RetryBudgetRatio: *budgetRatio,
		RetryBudgetBurst: *budgetBurst,
		RequestTimeout:   *timeout,
		RejoinRampSteps:  *rampSteps,
		RejoinRampStep:   *rampStep,
		Spans:            spans,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return fail(err)
	}
	gw.Start()
	defer gw.Close()

	hs := server.NewHTTPServer(*addr, gw.Handler(), 0, 0)
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "gegate: listening on %s, %d replicas\n", *addr, len(pool))
		errCh <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return fail(err)
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintln(os.Stderr, "gegate: shutting down...")
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownGr)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "gegate: shutdown:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "gegate: drained cleanly")
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "gegate:", err)
	return 1
}
