// Sorted shards: the paper's adversarial input. When data arrives
// range-partitioned (time-ordered logs, pre-sorted key ranges), the first
// pivot iteration wipes out half the processors entirely and load
// imbalance compounds from there. This example reproduces the paper's
// §5 comparison on that input: randomized selection degrades 2-4x, while
// fast randomized selection with modified OMLB balancing stays close to
// its random-data time.
package main

import (
	"context"
	"fmt"
	"log"

	"parsel"
)

// rangePartitioned builds the paper's sorted input: keys 0..n-1 with
// processor i holding the contiguous range [i*n/p, (i+1)*n/p).
func rangePartitioned(n int64, p int) [][]int64 {
	shards := make([][]int64, p)
	var next int64
	for i := 0; i < p; i++ {
		size := n / int64(p)
		if int64(i) < n%int64(p) {
			size++
		}
		shard := make([]int64, size)
		for j := range shard {
			shard[j] = next
			next++
		}
		shards[i] = shard
	}
	return shards
}

// scrambled draws the same population in random per-processor order.
func scrambled(n int64, p int) [][]int64 {
	shards := rangePartitioned(n, p)
	// Round-robin redeal to destroy locality.
	out := make([][]int64, p)
	for i, s := range shards {
		for j, v := range s {
			d := (i + j) % p
			out[d] = append(out[d], v)
		}
	}
	return out
}

func main() {
	const n = 1 << 20
	const p = 32

	configs := []struct {
		name string
		opts parsel.Options
	}{
		{"randomized, no balancing", parsel.Options{Algorithm: parsel.Randomized, Balancer: parsel.NoBalance}},
		{"randomized + global exchange", parsel.Options{Algorithm: parsel.Randomized, Balancer: parsel.GlobalExchange}},
		{"fast randomized, no balancing", parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.NoBalance}},
		{"fast randomized + modified OMLB", parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.ModifiedOMLB}},
	}

	fmt.Printf("median of %d keys on %d processors, sorted vs scrambled shards\n\n", n, p)
	fmt.Printf("%-34s %12s %12s %8s\n", "configuration", "sorted (s)", "random (s)", "ratio")
	for _, c := range configs {
		srt, err := parsel.Over(rangePartitioned(n, p), c.opts).Median(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		rnd, err := parsel.Over(scrambled(n, p), c.opts).Median(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		if srt.Value != rnd.Value {
			log.Fatalf("%s: sorted and scrambled disagree: %d vs %d", c.name, srt.Value, rnd.Value)
		}
		fmt.Printf("%-34s %12.4f %12.4f %8.2f\n", c.name, srt.SimSeconds, rnd.SimSeconds, srt.SimSeconds/rnd.SimSeconds)
	}
	fmt.Println("\nlow ratio = distribution-insensitive (the paper recommends fast randomized + LB)")
}
