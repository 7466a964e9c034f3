// Command gedrill runs a process-level crash-recovery drill against a real
// geserve fleet behind gegate: it boots the processes, drives seeded
// traffic, SIGKILLs / pauses / rolling-restarts replicas on a
// deterministic schedule, and audits the invariants a resilient tier must
// hold — zero acknowledged-then-lost requests, bounded rejoin, goodput
// recovery, and the quality floor.
//
//	gedrill -seed 7 -replicas 3 -rate 40 -duration 12s -json report.json
//
// With no -geserve / -gegate paths, gedrill builds both binaries from the
// enclosing module into a temp dir first (requires the go toolchain). The
// process exits 0 when every invariant held and 1 otherwise, printing the
// audit either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"goodenough/internal/drill"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred clean-up (the temp binary
// directory) also runs when the drill fails.
func run() int {
	var (
		seed     = flag.Uint64("seed", 1, "fault-schedule and trace-ID seed")
		replicas = flag.Int("replicas", 3, "geserve fleet size")
		rate     = flag.Float64("rate", 40, "offered open-loop request rate (req/s)")
		duration = flag.Duration("duration", 12*time.Second, "traffic horizon")
		governed = flag.Bool("governed", true, "run replicas under the GE overload governor")
		geserve  = flag.String("geserve", "", "geserve binary (empty = go build ./cmd/geserve)")
		gegate   = flag.String("gegate", "", "gegate binary (empty = go build ./cmd/gegate)")
		workdir  = flag.String("workdir", "", "journal/log directory (empty = temp dir, kept on failure)")
		rejoin   = flag.Duration("rejoin-bound", 5*time.Second, "max allowed relaunch -> back-in-rotation time")
		goodput  = flag.Float64("goodput-frac", 0.95, "recovery-window goodput floor as a fraction of baseline")
		quality  = flag.Float64("quality-floor", 0, "mean-quality floor for acked requests (0 = default: 0.85 when governed)")
		jsonOut  = flag.String("json", "", "write the full report as JSON to this file")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	geservePath, gegatePath := *geserve, *gegate
	if geservePath == "" || gegatePath == "" {
		bindir, err := os.MkdirTemp("", "gedrill-bin-*")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(bindir)
		logf("gedrill: building geserve + gegate into %s", bindir)
		if geservePath == "" {
			geservePath = filepath.Join(bindir, "geserve")
			if err := goBuild(geservePath, "./cmd/geserve"); err != nil {
				return fail(err)
			}
		}
		if gegatePath == "" {
			gegatePath = filepath.Join(bindir, "gegate")
			if err := goBuild(gegatePath, "./cmd/gegate"); err != nil {
				return fail(err)
			}
		}
	}

	workDir := *workdir
	if workDir == "" {
		dir, err := os.MkdirTemp("", "gedrill-*")
		if err != nil {
			return fail(err)
		}
		workDir = dir
	}

	report, err := drill.Run(drill.Config{
		Seed:         *seed,
		Replicas:     *replicas,
		Rate:         *rate,
		Duration:     *duration,
		Governed:     *governed,
		GeservePath:  geservePath,
		GegatePath:   gegatePath,
		WorkDir:      workDir,
		RejoinBound:  *rejoin,
		GoodputFrac:  *goodput,
		QualityFloor: *quality,
		Logf:         logf,
	})
	if err != nil {
		return fail(err)
	}

	if *jsonOut != "" {
		data, _ := json.MarshalIndent(report, "", "  ")
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}

	fmt.Printf("gedrill seed=%d requests=%d acked=%d shed=%d errors=%d\n",
		report.Seed, report.Requests, report.Acked, report.Shed, report.Errors)
	fmt.Printf("  acked-lost=%d orphans=%d (budget %d) slowstart-enters=%d\n",
		len(report.AckedLost), len(report.Orphans), report.OrphanBudget, report.SlowStartEnters)
	fmt.Printf("  goodput baseline=%.1f rps recovered=%.1f rps rejoin-max=%v quality-mean=%.3f\n",
		report.BaselineGoodput, report.RecoveredGoodput,
		report.RejoinMax.Round(time.Millisecond), report.QualityMean)
	if report.Pass {
		fmt.Println("PASS: all invariants held")
		if *workdir == "" {
			os.RemoveAll(workDir)
		}
		return 0
	}
	for _, f := range report.Failures {
		fmt.Println("FAIL:", f)
	}
	fmt.Fprintf(os.Stderr, "gedrill: artifacts kept in %s\n", workDir)
	return 1
}

func goBuild(out, pkg string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "gedrill:", err)
	return 1
}
