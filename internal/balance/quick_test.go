package balance

import (
	"slices"
	"testing"
	"testing/quick"

	"parsel/internal/machine"
	"parsel/internal/workload"
)

// TestQuickBalanceProperties drives every balancer over arbitrary shard
// shapes: the element multiset must be preserved and the final loads must
// be within the method's guarantee.
func TestQuickBalanceProperties(t *testing.T) {
	f := func(sizes []uint16, methodRaw, pRaw uint8) bool {
		p := 1 + int(pRaw%10)
		method := Active[int(methodRaw)%len(Active)]
		if method == DimensionExchange {
			// The pairwise averaging only guarantees balance on a
			// hypercube; snap to a power of two (the paper's machine
			// sizes) for this property.
			q := 1
			for q*2 <= p {
				q *= 2
			}
			p = q
		}
		shards := make([][]int64, p)
		next := int64(0)
		for i := range shards {
			sz := 0
			if i < len(sizes) {
				sz = int(sizes[i] % 600)
			}
			shards[i] = make([]int64, sz)
			for j := range shards[i] {
				shards[i][j] = next
				next++
			}
		}
		before := workload.Flatten(shards)
		out := make([][]int64, p)
		_, err := machine.Run(machine.DefaultParams(p), func(pr *machine.Proc) {
			out[pr.ID()] = Run(pr, shards[pr.ID()], method)
		})
		if err != nil {
			return false
		}
		after := workload.Flatten(out)
		slices.Sort(before)
		slices.Sort(after)
		if !slices.Equal(before, after) {
			return false
		}
		// Load bound: exact (floor/ceil) for the interval-matching
		// methods, diameter-of-rounding slack for dimension exchange.
		n := int64(len(after))
		lo, hi := n/int64(p), (n+int64(p)-1)/int64(p)
		if method == DimensionExchange {
			var slack int64
			for q := int64(1); q < int64(p); q <<= 1 {
				slack++
			}
			lo -= slack
			hi += slack
		}
		for _, s := range out {
			if int64(len(s)) < lo || int64(len(s)) > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickOMLBOrder: the order-maintaining variant must preserve global
// order for arbitrary shard shapes of a globally sorted input.
func TestQuickOMLBOrder(t *testing.T) {
	f := func(sizes []uint16, pRaw uint8) bool {
		p := 1 + int(pRaw%10)
		shards := make([][]int64, p)
		next := int64(0)
		for i := range shards {
			sz := 0
			if i < len(sizes) {
				sz = int(sizes[i] % 400)
			}
			shards[i] = make([]int64, sz)
			for j := range shards[i] {
				shards[i][j] = next
				next++
			}
		}
		out := make([][]int64, p)
		_, err := machine.Run(machine.DefaultParams(p), func(pr *machine.Proc) {
			out[pr.ID()] = Run(pr, shards[pr.ID()], OMLB)
		})
		if err != nil {
			return false
		}
		flat := workload.Flatten(out)
		for i, v := range flat {
			if v != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
