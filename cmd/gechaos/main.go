// Command gechaos is a deterministic chaos proxy for geserve fleets: put
// it between gegate and a replica and it injects latency, jitter,
// connection resets, black-holes, and 5xx bursts on a seeded schedule, so
// failover behavior is reproducible instead of anecdotal:
//
//	# replica stalls completely 2s in, for 5s:
//	gechaos -listen 127.0.0.1:9001 -target 127.0.0.1:8377 \
//	    -spec '[{"at":2,"kind":"blackhole","duration":5}]'
//
//	# seeded MTBF/MTTR outage process, 60s horizon:
//	gechaos -listen 127.0.0.1:9001 -target 127.0.0.1:8377 \
//	    -seed 7 -horizon 60 -mtbf 10 -mttr 3 -kind blackhole
//
// The -spec JSON mirrors internal/faults' schedule shape: objects with
// "at", "kind", "duration" (0 = permanent), plus per-kind payloads
// ("delay"/"jitter" seconds for latency, "code" for http-error). Kinds:
// latency, blackhole, reset, http-error. A @path reads the JSON from a
// file. SIGTERM/SIGINT severs all connections and exits 0.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"goodenough/internal/chaos"
)

func parseSpecs(arg string) ([]chaos.Spec, error) {
	raw := []byte(arg)
	if strings.HasPrefix(arg, "@") {
		b, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		raw = b
	}
	// Strict: a misspelled key must not silently drop a field.
	var specs []chaos.Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("parsing -spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("parsing -spec: trailing data after the schedule")
	}
	return specs, nil
}

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:9001", "address to accept gateway traffic on")
		target  = flag.String("target", "", "replica address to forward to (required)")
		spec    = flag.String("spec", "", "JSON schedule (inline or @file); empty uses the generator flags")
		seed    = flag.Uint64("seed", 1, "generator seed")
		horizon = flag.Float64("horizon", 0, "generator horizon in seconds (0 disables the generator)")
		mtbf    = flag.Float64("mtbf", 10, "generator mean time between outages (s)")
		mttr    = flag.Float64("mttr", 2, "generator mean outage duration (s)")
		kindStr = flag.String("kind", "blackhole", "generator fault kind")
		delay   = flag.Float64("delay", 0.2, "generator latency delay (s, kind=latency)")
		jitter  = flag.Float64("jitter", 0.05, "generator latency jitter (s, kind=latency)")
		quiet   = flag.Bool("quiet", false, "suppress per-injection log lines")
	)
	flag.Parse()

	if *target == "" {
		fmt.Fprintln(os.Stderr, "gechaos: -target is required")
		os.Exit(1)
	}

	var sched *chaos.Schedule
	var err error
	switch {
	case *spec != "":
		var specs []chaos.Spec
		if specs, err = parseSpecs(*spec); err == nil {
			sched, err = chaos.New(specs)
		}
	case *horizon > 0:
		var kind chaos.Kind
		if kind, err = chaos.ParseKind(*kindStr); err == nil {
			sched, err = chaos.Generate(*seed, *horizon, *mtbf, *mttr, kind, *delay, *jitter)
		}
	default:
		sched, err = chaos.New(nil) // transparent proxy
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gechaos:", err)
		os.Exit(1)
	}

	p, err := chaos.NewProxy(*listen, *target, sched, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gechaos:", err)
		os.Exit(1)
	}
	if !*quiet {
		p.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	fmt.Fprintf(os.Stderr, "gechaos: %s -> %s schedule=%s\n", p.Addr(), *target, sched)
	p.Start()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "gechaos: shutting down")
	_ = p.Close()
}
