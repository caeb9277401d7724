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
	var (
		n     = flag.Int64("n", 1<<20, "total number of keys")
		p     = flag.Int("p", 16, "number of simulated processors")
		alg   = flag.String("alg", "fastrand", "algorithm: "+keys(algNames))
		bal   = flag.String("bal", "none", "load balancer: "+keys(balNames))
		dist  = flag.String("dist", "random", "input distribution: "+keys(distNames))
		rank  = flag.Int64("rank", 0, "1-based rank to select (0 = use -q)")
		q     = flag.Float64("q", 0.5, "quantile in [0,1] used when -rank is 0")
		seed  = flag.Uint64("seed", 1, "seed for data and algorithm randomness")
		trial = flag.Int("trials", 1, "repeat count (reports the average simulated time)")
		trace = flag.Bool("trace", false, "print a per-iteration trace of the last trial")
	)
	flag.Parse()

	a, ok := algNames[*alg]
	if !ok {
		fail("unknown -alg %q (want %s)", *alg, keys(algNames))
	}
	b, ok := balNames[*bal]
	if !ok {
		fail("unknown -bal %q (want %s)", *bal, keys(balNames))
	}
	d, ok := distNames[*dist]
	if !ok {
		fail("unknown -dist %q (want %s)", *dist, keys(distNames))
	}
	if *n < 1 || *p < 1 {
		fail("need -n >= 1 and -p >= 1")
	}
	r := *rank
	if r == 0 {
		var err error
		if r, err = quantileRank(*n, *q); err != nil {
			fail("%v", err)
		}
	}
	if r < 1 || r > *n {
		fail("rank %d out of range [1,%d]", r, *n)
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
			fail("run failed: %v", err)
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

	fmt.Printf("selected rank %d of %d (%s data, p=%d, %s + %s)\n", r, *n, *dist, *p, *alg, *bal)
	fmt.Printf("value:            %d\n", value)
	fmt.Printf("simulated time:   %.6f s (avg of %d trial(s))\n", simSum/float64(*trial), *trial)
	fmt.Printf("iterations:       %d\n", last.Iterations)
	if last.Unsuccessful > 0 {
		fmt.Printf("unsuccessful:     %d\n", last.Unsuccessful)
	}
	if last.BalanceSeconds > 0 {
		fmt.Printf("balance time:     %.6f s\n", last.BalanceSeconds)
	}
	if last.FinalGatherElems > 0 {
		fmt.Printf("final gather:     %d elements\n", last.FinalGatherElems)
	}
	if *trace {
		fmt.Printf("\n%4s %14s %14s %10s %12s %12s\n",
			"iter", "population", "rank", "local(P0)", "sim(s)", "balance(s)")
		for i, tr := range last.Trace {
			fmt.Printf("%4d %14d %14d %10d %12.6f %12.6f\n",
				i+1, tr.Population, tr.Rank, tr.Local, tr.SimSeconds, tr.BalanceSeconds)
		}
	}
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

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "psel: "+format+"\n", args...)
	os.Exit(2)
}
