// Command selectbench regenerates the tables and figures of the paper's
// evaluation (§5). Each experiment prints the series the paper plots,
// measured in simulated seconds on the CM-5-like machine model.
//
// Usage:
//
//	selectbench -list
//	selectbench -exp fig1            # one experiment, full grid
//	selectbench -exp all -quick      # everything, shrunk grid
//	selectbench -exp fig2 -csv -seeds 3
//
// Host performance (CPU time, throughput, memory, per-layer traces) is
// measured by the separate benchmark module: bash bench/run.sh, declared
// in BENCHMARK.json.
package main

import (
	"flag"
	"fmt"
	"os"

	"parsel/internal/harness"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id (see -list) or \"all\"")
		list  = flag.Bool("list", false, "list experiments and exit")
		quick = flag.Bool("quick", false, "shrink problem sizes for a fast smoke run")
		seeds = flag.Int("seeds", 5, "trials averaged per random data point")
		csv   = flag.Bool("csv", false, "emit comma-separated rows instead of aligned text")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range harness.Experiments {
			fmt.Printf("  %-9s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	cfg := harness.Config{Out: os.Stdout, Seeds: *seeds, Quick: *quick, CSV: *csv}
	if *exp == "all" {
		for _, e := range harness.Experiments {
			fmt.Printf("\n== %s: %s ==\n", e.ID, e.Title)
			if err := e.Run(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "selectbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
		return
	}
	e, ok := harness.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "selectbench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
	if err := e.Run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "selectbench: %v\n", err)
		os.Exit(1)
	}
}
