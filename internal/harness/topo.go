package harness

import (
	"fmt"
	"time"

	"parsel"
	"parsel/internal/machine"
	"parsel/internal/model"
	"parsel/internal/selection"
	"parsel/internal/workload"
)

// runTopo quantifies the paper's §2.1 modelling argument: with
// wormhole-like small per-hop latency, the distance-dependent topologies
// cost nearly the same as the virtual crossbar (justifying the two-level
// model); with store-and-forward-like large per-hop latency they do not.
func runTopo(cfg Config) error {
	cfg = cfg.withDefaults()
	n := int64(k512)
	ps := []int{16, 64}
	if cfg.Quick {
		n = 64 << 10
		ps = []int{16}
	}
	w := cfg.Out
	for _, scenario := range []struct {
		label  string
		perHop time.Duration
	}{
		{"wormhole-like (per hop = tau/20)", 0}, // 0 = the default tau/20
		{"store-and-forward-like (per hop = tau)", 100 * time.Microsecond},
	} {
		fmt.Fprintf(w, "\n# topo %s, randomized selection, random data, n=%s\n", scenario.label, sizeName(n))
		fmt.Fprintf(w, "%6s", "p")
		for _, topo := range machine.Topologies {
			fmt.Fprintf(w, " %12s", topo)
		}
		fmt.Fprintln(w)
		for _, p := range ps {
			fmt.Fprintf(w, "%6d", p)
			for _, topo := range machine.Topologies {
				fmt.Fprintf(w, " %12.6f", measureTopo(cfg, n, p, parsel.Topology(topo), scenario.perHop))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "close columns in the first table = the crossbar abstraction is sound under wormhole routing")
	return nil
}

// measureTopo runs randomized median selection under one topology.
func measureTopo(cfg Config, n int64, p int, topo parsel.Topology, perHop time.Duration) float64 {
	var total float64
	for t := 0; t < cfg.Seeds; t++ {
		total += medianReport(parsel.Options{
			Algorithm: parsel.Randomized,
			Balancer:  parsel.NoBalance,
			Machine:   parsel.Machine{Seed: uint64(t + 1), Topology: topo, PerHop: perHop},
		}, workload.Generate(workload.Random, n, p, uint64(7000+t))).SimSeconds
	}
	return total / float64(cfg.Seeds)
}

// runSortSel compares the paper's selection algorithms against the
// sort-everything baseline: a PSRS sort of the full dataset followed by a
// rank lookup. Selection's whole reason to exist is beating this.
func runSortSel(cfg Config) error {
	cfg = cfg.withDefaults()
	n := int64(k512)
	ps := []int{4, 16, 64}
	if cfg.Quick {
		n = 64 << 10
		ps = []int{4, 16}
	}
	w := cfg.Out
	fmt.Fprintf(w, "\n# sortsel random n=%s: simulated seconds, selection vs full parallel sort\n", sizeName(n))
	fmt.Fprintf(w, "%6s %12s %12s %12s %10s\n", "p", "rand", "fastrand", "psort+rank", "sort/rand")
	for _, p := range ps {
		ra := measure(cfg, spec{alg: parsel.Randomized, bal: parsel.NoBalance, kind: workload.Random, n: n, p: p})
		fa := measure(cfg, spec{alg: parsel.FastRandomized, bal: parsel.NoBalance, kind: workload.Random, n: n, p: p})
		vs := measureViaSort(cfg, n, p)
		fmt.Fprintf(w, "%6d %12.6f %12.6f %12.6f %10.1f\n", p, ra.sim, fa.sim, vs, vs/ra.sim)
	}
	return nil
}

// measureViaSort times the sort-based baseline. It runs the engine
// directly: sort-the-world is a baseline, not a public Algorithm.
func measureViaSort(cfg Config, n int64, p int) float64 {
	var total float64
	for t := 0; t < cfg.Seeds; t++ {
		shards := workload.Generate(workload.Random, n, p, uint64(7100+t))
		params := machine.DefaultParams(p)
		params.Seed = uint64(t + 1)
		sim, err := machine.Run(params, func(pr *machine.Proc) {
			selection.ViaSort(pr, shards[pr.ID()], (n+1)/2)
		})
		if err != nil {
			panic(err)
		}
		total += sim
	}
	return total / float64(cfg.Seeds)
}

// runModel prints the analytic Table 1/2 predictions next to simulated
// measurements, with their ratio — the executable version of the paper's
// complexity tables.
func runModel(cfg Config) error {
	cfg = cfg.withDefaults()
	n := int64(m2)
	ps := []int{4, 16, 64}
	if cfg.Quick {
		n = 128 << 10
		ps = []int{4, 16}
	}
	w := cfg.Out
	rows := []struct {
		name      string
		alg       parsel.Algorithm
		bal       parsel.Balancer
		kind      workload.Kind
		worstCase bool
	}{
		{"mom (table1)", parsel.MedianOfMedians, parsel.GlobalExchange, workload.Random, false},
		{"bucket (table2)", parsel.BucketBased, parsel.NoBalance, workload.Sorted, true},
		{"rand (table1)", parsel.Randomized, parsel.NoBalance, workload.Random, false},
		{"rand (table2)", parsel.Randomized, parsel.NoBalance, workload.Sorted, true},
		{"fastrand (table1)", parsel.FastRandomized, parsel.NoBalance, workload.Random, false},
	}
	fmt.Fprintf(w, "\n# model n=%s: analytic Table 1/2 prediction vs simulation\n", sizeName(n))
	fmt.Fprintf(w, "%-18s %6s %12s %12s %8s\n", "row", "p", "predicted", "simulated", "ratio")
	for _, r := range rows {
		for _, p := range ps {
			m := measure(cfg, spec{alg: r.alg, bal: r.bal, kind: r.kind, n: n, p: p})
			pred := model.Predict(selection.Algorithm(r.alg), n, machine.DefaultParams(p), r.worstCase)
			fmt.Fprintf(w, "%-18s %6d %12.5f %12.5f %8.2f\n", r.name, p, pred, m.sim, pred/m.sim)
		}
	}
	return nil
}
