// Topology: the paper's §2.1 models the interconnect as a virtual
// crossbar — a fixed message cost regardless of which processors talk —
// arguing that wormhole routing makes distance negligible. This example
// uses the machine's topology-aware pricing to test that argument: the
// same selection runs under crossbar, hypercube, 2-D mesh and ring
// pricing, first with a wormhole-like per-hop cost (tau/20), then with a
// store-and-forward-like cost (tau per hop).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"parsel"
)

func main() {
	const (
		n = 1 << 19
		p = 64
	)
	shards := make([][]int64, p)
	for i := range shards {
		shard := make([]int64, n/p)
		x := uint64(i + 1)
		for j := range shard {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			shard[j] = int64(x >> 20)
		}
		shards[i] = shard
	}

	fmt.Printf("median of %d keys on %d processors, randomized selection\n\n", n, p)
	for _, scenario := range []struct {
		name   string
		perHop time.Duration
	}{
		{"wormhole-like routing (5 us/hop)", 5 * time.Microsecond},
		{"store-and-forward (100 us/hop)", 100 * time.Microsecond},
	} {
		fmt.Println(scenario.name)
		base := 0.0
		for _, topo := range []parsel.Topology{
			parsel.TopologyCrossbar, parsel.TopologyHypercube, parsel.TopologyMesh2D, parsel.TopologyRing,
		} {
			res, err := parsel.Over(shards, parsel.Options{
				Algorithm: parsel.Randomized,
				Balancer:  parsel.NoBalance,
				Machine:   parsel.Machine{Topology: topo, PerHop: scenario.perHop},
			}).Median(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			if base == 0 {
				base = res.SimSeconds
			}
			fmt.Printf("  %-10v %8.4f s  (%.2fx crossbar)\n", topo, res.SimSeconds, res.SimSeconds/base)
		}
		fmt.Println()
	}
	fmt.Println("wormhole: all topologies within a few percent -> the paper's crossbar model is sound;")
	fmt.Println("store-and-forward: the ring's diameter dominates -> distance would matter.")
}
