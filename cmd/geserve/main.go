// Command geserve runs the goodenough simulator as a long-lived HTTP/JSON
// service with admission control, load shedding, and graceful drain:
//
//	geserve -addr :8377 -concurrency 4 -queue 8 -timeout 30s
//
// Submit work with any HTTP client; bodies are goodenough.Config overlays
// on DefaultConfig:
//
//	curl -X POST localhost:8377/v1/run   -d '{"DurationSec": 5, "ArrivalRate": 200}'
//	curl -X POST localhost:8377/v1/sweep -d '{"config":{"DurationSec":2},"rates":[100,154,200]}'
//	curl localhost:8377/healthz
//	curl localhost:8377/metricz
//
// When every worker is busy and the admission queue is full, requests are
// shed with 429 and a Retry-After hint (cmd/geload honors it). SIGTERM or
// SIGINT starts a graceful drain: admission stops (readyz flips to 503),
// in-flight runs get -drain-timeout to finish, stragglers are cancelled and
// still answer with their partial results, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"goodenough/internal/governor"
	"goodenough/internal/obs"
	"goodenough/internal/server"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so the logs are flushed on every exit.
func run() int {
	var (
		addr         = flag.String("addr", ":8377", "listen address")
		concurrency  = flag.Int("concurrency", 0, "max simultaneous runs (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "admission queue depth beyond running (0 = 2×concurrency)")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request run deadline")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "grace for in-flight runs on shutdown")
		retryAfter   = flag.Duration("retry-after", time.Second, "backoff hint attached to shed (429) responses")
		maxBody      = flag.Int64("max-body", 8<<20, "request body cap in bytes")
		maxSweep     = flag.Int("max-sweep", 64, "max points one sweep request may fan out to")
		spanLog      = flag.String("span-log", "", "trace request + scheduler spans to this JSONL file (empty = tracing off)")
		journalPath  = flag.String("journal", "", "crash-safe request journal (JSONL, appended across restarts; empty = off)")

		govern      = flag.Bool("governor", false, "run the live GE overload governor (brownout degradation + power-budget enforcement)")
		govBudget   = flag.Float64("governor-budget", 0, "governor work-rate budget in work-units/sec (0 = worker count)")
		govQuantum  = flag.Duration("governor-quantum", 100*time.Millisecond, "governor control period")
		govQGE      = flag.Float64("governor-qge", 0.9, "good-enough batch quality target Q_GE")
		govCritical = flag.Float64("governor-critical", 0.85, "critical-load fraction where metering switches ES -> WF")
		govNominal  = flag.Duration("governor-nominal", time.Second, "seed estimate of full-quality seconds per request")
		govWindow   = flag.Duration("governor-window", 5*time.Second, "rate-estimator window / backlog drain horizon")
		decisionLog = flag.String("decision-log", "", "record governor admit/cut/compensate/shed decisions to this JSONL file")
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

	var decisions obs.DecisionSink
	if *decisionLog != "" {
		f, err := os.Create(*decisionLog)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		dlog := obs.NewDecisionLog(f)
		defer dlog.Flush()
		// The governor emits from the admission path and the control loop
		// concurrently; the log itself is single-writer.
		decisions = obs.NewSyncDecision(dlog)
	}

	var gov *governor.Governor
	if *govern {
		budget := *govBudget
		if budget <= 0 {
			// Default the work-rate budget to the worker count: one running
			// request consumes one work-unit/sec, so a full pool is load 1.0.
			budget = float64(*concurrency)
			if budget <= 0 {
				budget = float64(runtime.GOMAXPROCS(0))
			}
		}
		var err error
		gov, err = governor.New(governor.Config{
			Budget:        budget,
			Quantum:       *govQuantum,
			CriticalLoad:  *govCritical,
			QGE:           *govQGE,
			NominalDemand: *govNominal,
			RateWindow:    *govWindow,
			Decisions:     decisions,
			Spans:         spans,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "geserve: governor on (budget=%.3g Q_GE=%.3g quantum=%s)\n",
			budget, *govQGE, *govQuantum)
	}

	var journal *server.Journal
	if *journalPath != "" {
		var err error
		journal, err = server.OpenJournal(*journalPath)
		if err != nil {
			return fail(err)
		}
		defer journal.Close()
		rec := journal.Recovery()
		fmt.Fprintf(os.Stderr, "geserve: journal %s incarnation=%d prior=%d corrupt=%d orphans=%d\n",
			*journalPath, rec.Incarnation, rec.PriorRecords, rec.Corrupt, len(rec.Orphans))
		for _, o := range rec.Orphans {
			fmt.Fprintf(os.Stderr, "geserve: orphaned request %s (%s) from incarnation %d — accepted, never finished\n",
				o.ID, o.Path, o.Inc)
		}
	}

	srv := server.New(server.Config{
		MaxConcurrent:  *concurrency,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		DrainTimeout:   *drainTimeout,
		RetryAfter:     *retryAfter,
		MaxBodyBytes:   *maxBody,
		MaxSweepPoints: *maxSweep,
		Spans:          spans,
		Governor:       gov,
		Journal:        journal,
	})
	hs := server.NewHTTPServer(*addr, srv.Handler(), 0, 0)

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "geserve: listening on %s\n", *addr)
		errCh <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		// Listener died before any signal: that is a startup failure.
		return fail(err)
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintln(os.Stderr, "geserve: draining (new requests rejected)...")
	// Give the drain its configured grace plus slack for response writes;
	// the bound guarantees the process cannot hang on shutdown.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "geserve: drain:", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "geserve: shutdown:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "geserve: drained cleanly")
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "geserve:", err)
	return 1
}
