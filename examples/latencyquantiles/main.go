// Latency quantiles: the workload that motivates distributed selection in
// practice. Every node of a service records request latencies locally;
// computing fleet-wide p50/p95/p99 exactly — not sketched — is a
// selection problem over data that must stay sharded. The latency
// distribution is heavy-tailed and differs per node (hot shards), which
// is exactly the skew the paper's load balancers address.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand/v2"

	"parsel"
)

// syntheticLatencies builds a heavy-tailed latency population (in
// microseconds) for one node. Nodes with higher index are "hotter": more
// requests and a fatter tail.
func syntheticLatencies(node, nodes int, rng *rand.Rand) []int64 {
	base := 20_000 + 60_000*node/nodes // requests per node
	out := make([]int64, base)
	hot := 1 + float64(node)/float64(nodes)
	for i := range out {
		// Log-normal-ish: exp of a scaled sum of uniforms.
		s := 0.0
		for j := 0; j < 4; j++ {
			s += rng.Float64()
		}
		lat := 200 * math.Exp(hot*(s-2)) // median a few hundred us
		out[i] = int64(lat)
	}
	return out
}

func main() {
	const nodes = 32
	shards := make([][]int64, nodes)
	var total int
	for i := range shards {
		rng := rand.New(rand.NewPCG(7, uint64(i)))
		shards[i] = syntheticLatencies(i, nodes, rng)
		total += len(shards[i])
	}
	fmt.Printf("fleet of %d nodes, %d latency samples (unequal shards: %d..%d)\n",
		nodes, total, len(shards[0]), len(shards[nodes-1]))

	ctx := context.Background()
	fleet := parsel.Over(shards, parsel.Options{}) // fast randomized + modified OMLB
	for _, q := range []float64{0.50, 0.95, 0.99, 0.999} {
		res, err := fleet.Quantile(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  p%-5g = %6d us   (sim %.4fs, %d iterations)\n",
			q*100, res.Value, res.SimSeconds, res.Iterations)
	}

	// Exact maximum as a sanity rank.
	maxRes, err := fleet.Quantile(ctx, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  max    = %6d us\n", maxRes.Value)
}
