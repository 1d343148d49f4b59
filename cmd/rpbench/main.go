// Command rpbench regenerates every table and figure of the paper's
// evaluation section from the synthetic database.
//
// Usage:
//
//	rpbench -experiment all                 # everything, full scale (slow)
//	rpbench -experiment table2 -scale 0.1   # one experiment, reduced data
//	rpbench -experiment fig5 -pop 8 -gen 10 # reduced GA budget
//
// Experiments: table1, table2, table3, fig4, fig5, energy, ga, downsample,
// alpha, record, heads, all.
//
// Unknown flags, stray arguments and unknown experiment names are errors:
// rpbench prints a usage message and exits non-zero instead of silently
// running nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rpbeat/internal/experiments"
)

// experimentNames lists the valid -experiment values, in run order.
var experimentNames = []string{
	"table1", "table2", "fig4", "fig5", "table3",
	"energy", "ga", "downsample", "alpha", "record", "heads",
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		"usage: rpbench [-experiment name] [options]\n\nexperiments: %s, all\n\noptions:\n",
		strings.Join(experimentNames, ", "))
	flag.PrintDefaults()
}

func main() {
	var (
		exp      = flag.String("experiment", "all", "which experiment to run (table1|table2|table3|fig4|fig5|energy|ga|downsample|alpha|record|heads|all)")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (1 = full Table I composition)")
		pop      = flag.Int("pop", 20, "GA population size (paper: 20)")
		gen      = flag.Int("gen", 30, "GA generations (paper: 30)")
		scgIters = flag.Int("scg", 120, "SCG iterations per NFC fit")
		minARR   = flag.Float64("minarr", 0.97, "minimum abnormal recognition rate constraint")
		seed     = flag.Uint64("seed", 0, "experiment seed (0 = default)")
		parallel = flag.Int("parallel", 0, "worker goroutines (0 = NumCPU)")
	)
	flag.Usage = usage
	flag.Parse()
	// flag.Parse already rejects undefined flags (ExitOnError); stray
	// positional arguments would otherwise be dropped on the floor.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rpbench: unexpected argument %q\n\n", flag.Arg(0))
		usage()
		os.Exit(2)
	}
	want := strings.ToLower(*exp)
	if want != "all" {
		known := false
		for _, name := range experimentNames {
			if want == name {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "rpbench: unknown experiment %q\n\n", *exp)
			usage()
			os.Exit(2)
		}
	}

	r := experiments.NewRunner(experiments.Options{
		Seed:        *seed,
		Scale:       *scale,
		PopSize:     *pop,
		Generations: *gen,
		SCGIters:    *scgIters,
		MinARR:      *minARR,
		Parallel:    *parallel,
	})

	run := func(name string, f func() error) {
		if want != "all" && want != name {
			return
		}
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "rpbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
	}

	run("table1", func() error {
		res, err := r.TableI()
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})
	run("table2", func() error {
		res, err := r.TableII([]int{8, 16, 32})
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})
	run("fig4", func() error {
		fmt.Print(experiments.RenderFigure4(experiments.Figure4()))
		return nil
	})
	run("fig5", func() error {
		res, err := r.Figure5()
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		for _, arr := range []float64{0.97, 0.985} {
			g, _ := experiments.NDRAtARROnFront(res.Gaussian, arr)
			l, _ := experiments.NDRAtARROnFront(res.Linear, arr)
			t, _ := experiments.NDRAtARROnFront(res.Triangular, arr)
			fmt.Printf("NDR at ARR>=%.1f%%: gaussian %.1f%%, linear %.1f%%, triangular %.1f%%\n",
				100*arr, 100*g, 100*l, 100*t)
		}
		return nil
	})
	run("table3", func() error {
		res, err := r.TableIII()
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})
	run("energy", func() error {
		res, err := r.Energy()
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})
	run("ga", func() error {
		res, err := r.GAAblation()
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})
	run("downsample", func() error {
		rows, err := r.DownsampleSweep(nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderDownsample(rows))
		return nil
	})
	run("alpha", func() error {
		pts, err := r.AlphaSensitivity()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAlphaCurve(pts))
		return nil
	})
	run("record", func() error {
		res, err := r.RecordLevel(6, 300)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})
	run("heads", func() error {
		res, err := r.HeadComparison(nil, 6, 300)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})
}
