// Command gesweep regenerates every figure of the paper's evaluation
// section. Each figure is written as tidy CSV plus an aligned text table
// (and optionally an ASCII chart) under the output directory, and the
// headline GE-vs-BE energy saving is printed after Fig. 3.
//
//	gesweep                         # all figures, paper-scale (600 s runs)
//	gesweep -duration 60            # 10x faster, same shapes
//	gesweep -figures fig1,fig3      # a subset
//	gesweep -figures ablations      # the studies beyond the paper
//	gesweep -out results -ascii
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"goodenough/internal/experiments"
	"goodenough/internal/plot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gesweep:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("gesweep", flag.ExitOnError)
	var (
		out      = fs.String("out", "results", "output directory")
		duration = fs.Float64("duration", 600, "simulated seconds per sweep point")
		seed     = fs.Uint64("seed", 2017, "workload RNG seed")
		figures  = fs.String("figures", "all", "comma-separated target ids (fig1,...,fig12, abl-*, ext-*), all or ablations")
		ascii    = fs.Bool("ascii", false, "also print ASCII charts to stdout")
		workers  = fs.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS)")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 inside Parse
	targets, err := selectTargets(*figures)
	if err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, perr := os.Create(*cpuprofile)
		if perr != nil {
			return perr
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return perr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, ferr := os.Create(*memprofile)
			if ferr == nil {
				runtime.GC()
				ferr = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); ferr == nil {
					ferr = cerr
				}
			}
			if err == nil {
				err = ferr
			}
		}()
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	s := experiments.DefaultSettings()
	s.Duration = *duration
	s.Seed = *seed
	s.Workers = *workers

	for _, t := range targets {
		start := time.Now()
		figs, note, err := t.Draw(s)
		if err != nil {
			return fmt.Errorf("%s: %w", t.ID, err)
		}
		for i, fig := range figs {
			if err := emit(stdout, filepath.Join(*out, t.Files[i]), fig, *ascii); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "%s done in %v\n", t.ID, time.Since(start).Round(time.Millisecond))
		if note != "" {
			fmt.Fprintln(stdout, note)
		}
	}
	return nil
}

// selectTargets resolves the -figures list: target ids, "all" for the
// paper's figures and "ablations" for the studies beyond it, matched
// case-insensitively. An unknown name is an error, so a typo cannot skip
// a figure. Targets run in table order whatever the list's order.
func selectTargets(list string) ([]experiments.Target, error) {
	known := map[string]bool{"all": true, "ablations": true}
	for _, t := range experiments.Targets {
		known[t.ID] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if !known[name] {
			return nil, fmt.Errorf("-figures: unknown figure %q (want an id such as fig3 or abl-static, all, or ablations)", name)
		}
		want[name] = true
	}
	var picked []experiments.Target
	for _, t := range experiments.Targets {
		if want[t.ID] || (want["all"] && !t.Ablation) || (want["ablations"] && t.Ablation) {
			picked = append(picked, t)
		}
	}
	return picked, nil
}

// emit writes fig as path.csv and path.txt, plus an ASCII chart on stdout
// when asked.
func emit(stdout io.Writer, path string, fig plot.Figure, ascii bool) error {
	for _, f := range []struct {
		ext   string
		write func(io.Writer) error
	}{{".csv", fig.WriteCSV}, {".txt", fig.WriteTable}} {
		file, err := os.Create(path + f.ext)
		if err != nil {
			return err
		}
		err = f.write(file)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "wrote %s.csv (+.txt)\n", path)
	if ascii {
		return fig.WriteASCII(stdout, 72, 18)
	}
	return nil
}
