// Command gestat is the live fleet dashboard: a top-like poller for the
// serving tier's observability endpoints, plus an offline span-log merger
// that turns per-process JSONL span logs into one Perfetto trace.
//
// Live mode polls each target's /timeseriez (ring-buffer samples behind
// geserve and gegate) and, on gateways, /replicaz, then redraws a compact
// dashboard once per interval:
//
//	gestat -targets http://127.0.0.1:8370,http://127.0.0.1:8377
//	gestat -targets http://127.0.0.1:8377 -interval 2s -n 10 -plain
//
// Each series renders as a sparkline over the sampler's retained window
// with its latest value; -plain suppresses the ANSI screen clear so output
// appends (for logs and CI), and -n bounds the number of refreshes.
//
// Merge mode stitches span logs written by geload/gegate/geserve -span-log
// into a single Chrome trace-event file whose flow arrows connect each
// request's client, gateway, attempt, server, and scheduler spans:
//
//	gestat -spans client.jsonl,gate.jsonl,serve.jsonl -trace trace.json
//
// Open the output in Perfetto (ui.perfetto.dev) or chrome://tracing; one
// request = one connected tree across processes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"goodenough/internal/obs"
)

// timeseries mirrors the /timeseriez JSON document.
type timeseries struct {
	IntervalMS int64 `json:"interval_ms"`
	Series     map[string]struct {
		T []int64   `json:"t"`
		V []float64 `json:"v"`
	} `json:"series"`
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vs as block characters scaled to the series' own range,
// keeping at most width trailing samples.
func sparkline(vs []float64, width int) string {
	if len(vs) > width {
		vs = vs[len(vs)-width:]
	}
	if len(vs) == 0 {
		return ""
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vs {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// get fetches one URL with a short timeout; "" on any failure (a dashboard
// must keep drawing when a target is down).
func get(client *http.Client, url string) string {
	resp, err := client.Get(url)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return ""
	}
	return string(b)
}

// renderTarget draws one target's panel.
func renderTarget(w io.Writer, client *http.Client, base string) {
	fmt.Fprintf(w, "── %s ──\n", base)
	raw := get(client, base+"/timeseriez")
	if raw == "" {
		fmt.Fprintln(w, "  unreachable")
		return
	}
	var ts timeseries
	if err := json.Unmarshal([]byte(raw), &ts); err != nil {
		fmt.Fprintf(w, "  bad /timeseriez: %v\n", err)
		return
	}
	names := make([]string, 0, len(ts.Series))
	for name := range ts.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := ts.Series[name]
		last := 0.0
		if len(s.V) > 0 {
			last = s.V[len(s.V)-1]
		}
		fmt.Fprintf(w, "  %-26s %10g  %s\n", name, last, sparkline(s.V, 40))
	}
	// Gateways also expose the live replica table; relay it verbatim.
	if rz := get(client, base+"/replicaz"); rz != "" && strings.Contains(rz, "breaker=") {
		for _, line := range strings.Split(strings.TrimRight(rz, "\n"), "\n") {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
}

// mergeSpans reads every span log and writes one Chrome trace.
func mergeSpans(paths []string, out string) error {
	var all []obs.Span
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		spans, err := obs.ReadSpans(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		all = append(all, spans...)
	}
	if len(all) == 0 {
		return fmt.Errorf("no spans found in %s", strings.Join(paths, ", "))
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := obs.WriteSpanTrace(f, all); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "gestat: wrote %d spans to %s\n", len(all), out)
	return f.Close()
}

func main() {
	var (
		targets  = flag.String("targets", "http://127.0.0.1:8377", "comma-separated geserve/gegate base URLs to poll")
		interval = flag.Duration("interval", time.Second, "poll and redraw period")
		n        = flag.Int("n", 0, "number of refreshes before exiting (0 = forever)")
		plain    = flag.Bool("plain", false, "append panels instead of clearing the screen (logs, CI)")
		spansIn  = flag.String("spans", "", "comma-separated span-log JSONL files to merge (with -trace)")
		traceOut = flag.String("trace", "", "write the merged Chrome trace to this file (with -spans)")
	)
	flag.Parse()

	if (*spansIn == "") != (*traceOut == "") {
		fmt.Fprintln(os.Stderr, "gestat: -spans and -trace must be used together")
		os.Exit(1)
	}
	if *spansIn != "" {
		var paths []string
		for _, p := range strings.Split(*spansIn, ",") {
			if p = strings.TrimSpace(p); p != "" {
				paths = append(paths, p)
			}
		}
		if err := mergeSpans(paths, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "gestat:", err)
			os.Exit(1)
		}
		return
	}

	var bases []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			bases = append(bases, strings.TrimRight(t, "/"))
		}
	}
	if len(bases) == 0 {
		fmt.Fprintln(os.Stderr, "gestat: -targets is empty")
		os.Exit(1)
	}

	client := &http.Client{Timeout: *interval}
	for tick := 0; *n <= 0 || tick < *n; tick++ {
		if tick > 0 {
			time.Sleep(*interval)
		}
		if !*plain {
			fmt.Print("\x1b[2J\x1b[H")
		}
		fmt.Printf("gestat  %s  (every %s)\n", time.Now().Format("15:04:05"), *interval)
		for _, base := range bases {
			renderTarget(os.Stdout, client, base)
		}
	}
}
