// Command ioexp regenerates the experiment tables in EXPERIMENTS.md: one
// table per theorem/lemma of the paper, measured on the simulated
// external-memory machine.
//
// Usage:
//
//	ioexp            # run everything (several minutes)
//	ioexp -exp E4    # run one experiment
//	ioexp -list      # list experiment ids and titles (runs nothing)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/expt"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range expt.Experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	exps := expt.Experiments
	if *exp != "" {
		e, err := expt.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		exps = []expt.Experiment{e}
	}
	for _, e := range exps {
		start := time.Now()
		t := e.Table()
		t.Render(os.Stdout)
		fmt.Printf("   (%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
