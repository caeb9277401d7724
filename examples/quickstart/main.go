// Quickstart: find the median of a dataset sharded across simulated
// processors, with the library's default algorithm (fast randomized
// selection + modified OMLB balancing — the paper's overall winner).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"parsel"
)

func main() {
	// 1M keys sharded over 16 simulated processors.
	const (
		procs   = 16
		perProc = 65536
	)
	rng := rand.New(rand.NewPCG(1, 2))
	shards := make([][]int64, procs)
	for i := range shards {
		shards[i] = make([]int64, perProc)
		for j := range shards[i] {
			shards[i][j] = rng.Int64N(1_000_000)
		}
	}

	ctx := context.Background()
	fleet := parsel.Over(shards, parsel.Options{}) // the eight named queries over shards
	med, err := fleet.Median(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("median of %d keys on %d processors: %d\n", procs*perProc, procs, med.Value)
	fmt.Printf("  simulated parallel time: %.4f s (CM-5-like machine)\n", med.SimSeconds)
	fmt.Printf("  wall time:               %.4f s\n", med.WallSeconds)
	fmt.Printf("  pivot iterations:        %d\n", med.Iterations)
	fmt.Printf("  messages sent:           %d (%d bytes)\n", med.Messages, med.Bytes)

	// Any rank works, not just the median: the 10th smallest key.
	tenth, err := fleet.Select(ctx, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("10th smallest key: %d\n", tenth.Value)
}
