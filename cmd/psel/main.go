// Command psel runs one parallel selection over generated data and prints
// the result together with the run report — a quick way to explore how
// algorithm, balancer, distribution, n and p interact.
//
// Usage:
//
//	psel -n 1048576 -p 32 -dist sorted -alg rand -bal none -q 0.5
//	psel -n 2097152 -p 64 -alg fastrand -bal modomlb -rank 1
package main

import (
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"

	"parsel/internal/balance"
	"parsel/internal/flagname"
	"parsel/internal/machine"
	"parsel/internal/selection"
	"parsel/internal/workload"
)

var (
	algNames  = flagname.ByName[selection.Algorithm](selection.AllAlgorithms)
	balNames  = flagname.ByName[balance.Method](balance.Methods)
	distNames = flagname.ByName[workload.Kind](workload.Kinds)
)

// keys lists a name table's names, sorted (see flagname.Keys).
func keys[V any](m map[string]V) string { return flagname.Keys(m) }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "psel: %v\n", err)
		os.Exit(2)
	}
}

// run parses args (without the program name), runs the selection and
// writes its report to out. A bad flag exits as flag.ExitOnError does;
// every other failure is returned.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("psel", flag.ExitOnError)
	var (
		n     = fs.Int64("n", 1<<20, "total number of keys")
		p     = fs.Int("p", 16, "number of simulated processors")
		alg   = fs.String("alg", "fastrand", "algorithm: "+keys(algNames))
		bal   = fs.String("bal", "none", "load balancer: "+keys(balNames))
		dist  = fs.String("dist", "random", "input distribution: "+keys(distNames))
		rank  = fs.Int64("rank", 0, "1-based rank to select (0 = use -q)")
		q     = fs.Float64("q", 0.5, "quantile in [0,1] used when -rank is 0")
		seed  = fs.Uint64("seed", 1, "seed for data and algorithm randomness")
		trial = fs.Int("trials", 1, "repeat count (reports the average simulated time)")
		trace = fs.Bool("trace", false, "print a per-iteration trace of the last trial")
	)
	fs.Parse(args)

	a, ok := algNames[*alg]
	if !ok {
		return fmt.Errorf("unknown -alg %q (want %s)", *alg, keys(algNames))
	}
	b, ok := balNames[*bal]
	if !ok {
		return fmt.Errorf("unknown -bal %q (want %s)", *bal, keys(balNames))
	}
	d, ok := distNames[*dist]
	if !ok {
		return fmt.Errorf("unknown -dist %q (want %s)", *dist, keys(distNames))
	}
	if *n < 1 || *p < 1 {
		return fmt.Errorf("need -n >= 1 and -p >= 1")
	}
	r := *rank
	if r == 0 {
		var err error
		if r, err = quantileRank(*n, *q); err != nil {
			return err
		}
	}
	if r < 1 || r > *n {
		return fmt.Errorf("rank %d out of range [1,%d]", r, *n)
	}

	var simSum float64
	var value int64
	var last selection.Stats
	for t := 0; t < *trial; t++ {
		shards := workload.Generate(d, *n, *p, *seed+uint64(t))
		params := machine.DefaultParams(*p)
		params.Seed = *seed + uint64(t)
		stats := make([]selection.Stats, *p)
		vals := make([]int64, *p)
		sim, err := machine.Run(params, func(pr *machine.Proc) {
			vals[pr.ID()], stats[pr.ID()] = selection.Select(pr, shards[pr.ID()], r, selection.Options{
				Algorithm:   a,
				Balancer:    b,
				RecordTrace: *trace,
			})
		})
		if err != nil {
			return fmt.Errorf("run failed: %v", err)
		}
		simSum += sim
		value = vals[0]
		last = stats[0]
		for _, st := range stats {
			if st.BalanceSeconds > last.BalanceSeconds {
				last.BalanceSeconds = st.BalanceSeconds
			}
		}
	}

	fmt.Fprintf(out, "selected rank %d of %d (%s data, p=%d, %s + %s)\n", r, *n, *dist, *p, *alg, *bal)
	fmt.Fprintf(out, "value:            %d\n", value)
	fmt.Fprintf(out, "simulated time:   %.6f s (avg of %d trial(s))\n", simSum/float64(*trial), *trial)
	fmt.Fprintf(out, "iterations:       %d\n", last.Iterations)
	if last.Unsuccessful > 0 {
		fmt.Fprintf(out, "unsuccessful:     %d\n", last.Unsuccessful)
	}
	if last.BalanceSeconds > 0 {
		fmt.Fprintf(out, "balance time:     %.6f s\n", last.BalanceSeconds)
	}
	if last.FinalGatherElems > 0 {
		fmt.Fprintf(out, "final gather:     %d elements\n", last.FinalGatherElems)
	}
	if *trace {
		fmt.Fprintf(out, "\n%4s %14s %14s %10s %12s %12s\n",
			"iter", "population", "rank", "local(P0)", "sim(s)", "balance(s)")
		for i, tr := range last.Trace {
			fmt.Fprintf(out, "%4d %14d %14d %10d %12.6f %12.6f\n",
				i+1, tr.Population, tr.Rank, tr.Local, tr.SimSeconds, tr.BalanceSeconds)
		}
	}
	return nil
}

// quantileRank returns the rank of quantile q among n keys: ceil(n*q),
// at least 1, computed exactly in rationals so that it always agrees
// with parsel.Quantile. A q outside [0,1] (NaN included) is an error.
func quantileRank(n int64, q float64) (int64, error) {
	if !(q >= 0 && q <= 1) {
		return 0, fmt.Errorf("-q %g outside [0,1]", q)
	}
	r := new(big.Rat).SetFloat64(q)
	r.Mul(r, new(big.Rat).SetInt64(n))
	// ceil(a/b) = (a+b-1)/b for a >= 0, b > 0.
	ceil := new(big.Int).Add(r.Num(), r.Denom())
	ceil.Sub(ceil, big.NewInt(1)).Quo(ceil, r.Denom())
	return max(1, ceil.Int64()), nil
}
