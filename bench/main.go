// Command bench is parsel's benchmark. It runs four workloads against
// the program — serve_point, rank_sets, sorted_select, ingest_mixed —
// client and daemon in one process on loopback, with load from at most
// two closed-loop clients, and checks every answer against a sort
// oracle. Each workload runs five repetitions, interleaved round-robin
// across workloads; a repetition builds a fresh program instance (timed
// as setup_s), runs an untimed check pass over its own 64-query slice of
// the seeded sequence (sim_s), then a 1-client phase (cpu_ms,
// p90_cpu_ms) and a 2-client phase (qps_per_core). Times are CPU times on
// one P, scaled to a reference host speed by a probe run between 100 ms
// windows (clock.go): on a shared host, wall time measures the neighbours.
//
// Usage, from the repository root (see bench/README.md):
//
//	bash bench/run.sh                  # all four workloads, end-to-end metrics
//	bash bench/run.sh -trace           # the per-layer decomposition
//	bash bench/run.sh --workload rank_sets --seed 2 --seconds 24 --trace 0
//	bash bench/run.sh -compare bench/results/a.json bench/results/b.json
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The exit status is 1 when any operation failed or answered wrong, or
// when a traced run's decomposition leaves more than 5% unattributed.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"
)

// residualLimit is the share of the traced window the layer
// decomposition may leave unattributed.
const residualLimit = 0.05

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// joinBoolValues lets a boolean flag take its value as the next word
// ("--trace 0"), which the flag package accepts only as "--trace=0".
func joinBoolValues(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) &&
			slices.Contains([]string{"0", "1", "false", "true"}, args[i+1]) {
			out = append(out, args[i]+"="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "run one workload and end with a one-line JSON result (default: all four, interleaved)")
		seed    = fl.Uint64("seed", 1, "seed of every generated dataset and query sequence (2 is the holdout seed)")
		seconds = fl.Float64("seconds", 0, "measured seconds per workload, split over the repetitions' phases (default 24, or 8 with -trace)")
		trace   = fl.Bool("trace", false, "measure the per-layer metrics instead of the end-to-end ones")
		out     = fl.String("out", "", "append this run's set to a results JSON file, and a traced run's spans to the same name ending .spans.jsonl")
		cmp     = fl.Bool("compare", false, "compare two result sets given as arguments: file or file#k")
		tmp     = fl.String("tmpdir", ".bench_build/tmp", "directory for on-disk state (snapshot directories)")
	)
	if err := fl.Parse(joinBoolValues(args)); err != nil {
		return 2
	}
	if *cmp {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result sets: a.json[#k] b.json[#k]")
			return 2
		}
		regressed, err := compare(stdout, fl.Arg(0), fl.Arg(1))
		if err != nil {
			fmt.Fprintf(stderr, "bench: compare: %v\n", err)
			return 2
		}
		if regressed > 0 {
			return 1
		}
		return 0
	}
	if fl.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fl.Args())
		return 2
	}
	wls := workloads
	if *name != "" {
		i := slices.IndexFunc(workloads, func(w *workload) bool { return w.name == *name })
		if i < 0 {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		wls = workloads[i : i+1]
	}
	cfg := config{seed: *seed, seconds: *seconds, reps: repetitions, trace: *trace, tmp: *tmp}
	if cfg.seconds == 0 {
		cfg.seconds = 24
		if cfg.trace {
			cfg.seconds = 8
		}
	}
	if cfg.seconds <= 0 || math.IsInf(cfg.seconds, 0) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}

	// A hung run must still end: set-up and check passes take seconds,
	// so a run far past its measured time is stuck.
	limit := 2*time.Minute + time.Duration(2*cfg.seconds*float64(len(wls))*float64(time.Second))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "bench: run exceeded %v; aborting\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	set, tracers, err := run(cfg, wls, func(msg string) { fmt.Fprintln(stderr, "bench: "+msg) })
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	printSet(stdout, set)
	if *out != "" {
		k, err := appendResults(*out, set)
		if err == nil && cfg.trace {
			err = appendSpans(strings.TrimSuffix(*out, ".json")+".spans.jsonl", k, tracers, set.Order)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	status := 0
	for _, n := range set.Order {
		res := set.Workloads[n]
		if res.Failed > 0 {
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed\n", n, res.Failed, res.Attempted)
			status = 1
		}
		if r := res.Metrics["decomp.residual_frac"]; cfg.trace && math.Abs(r) > residualLimit {
			fmt.Fprintf(stderr, "bench: %s: decomposition leaves %.1f%% of the traced window unattributed (limit %.0f%%)\n", n, 100*r, 100*residualLimit)
			status = 1
		}
	}
	if *name != "" {
		line, err := summaryLine(set.Workloads[*name], cfg.trace)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return status
}
