package parsel

import (
	"context"
	"testing"
)

// TestSimulatedTimeRegressionBands pins the simulated cost model: a fixed
// configuration must land inside a generous band. Failures here mean the
// cost model changed (deliberately or not) and EXPERIMENTS.md needs
// re-running — the bands are wide enough to survive algorithmic noise
// across seeds but not a mispriced tau, mu or SecPerOp.
func TestSimulatedTimeRegressionBands(t *testing.T) {
	if testing.Short() {
		t.Skip("0.5M-element runs")
	}
	vals := make([]int64, 512<<10)
	x := uint64(2463534242)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = int64(x >> 20)
	}
	shards := shardInts(vals, 16)

	cases := []struct {
		name   string
		opts   Options
		lo, hi float64
	}{
		{"randomized", Options{Algorithm: Randomized, Balancer: NoBalance}, 0.04, 0.40},
		{"fastrand-faithful", Options{Algorithm: FastRandomized, Balancer: NoBalance, Faithful: true}, 0.05, 0.50},
		{"mom", Options{Algorithm: MedianOfMedians, Balancer: GlobalExchange}, 0.20, 1.60},
		{"bucket", Options{Algorithm: BucketBased}, 0.15, 1.40},
	}
	for _, tc := range cases {
		res, err := Over(shards, tc.opts).Median(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.SimSeconds < tc.lo || res.SimSeconds > tc.hi {
			t.Errorf("%s: simulated %g s outside regression band [%g, %g]",
				tc.name, res.SimSeconds, tc.lo, tc.hi)
		}
		// The pooled serving path must stay inside the same band — and,
		// stronger, reproduce the one-shot simulated time bit-for-bit,
		// on a cold machine and on a warm reused one.
		pool, err := NewPool[int64](tc.opts, PoolOptions{MaxMachines: 2})
		if err != nil {
			t.Fatalf("%s: pool: %v", tc.name, err)
		}
		for _, pass := range []string{"cold", "warm"} {
			pres, err := pool.Over(shards).Median(context.Background())
			if err != nil {
				t.Fatalf("%s: pooled median (%s): %v", tc.name, pass, err)
			}
			if pres.SimSeconds < tc.lo || pres.SimSeconds > tc.hi {
				t.Errorf("%s: pooled (%s) simulated %g s outside regression band [%g, %g]",
					tc.name, pass, pres.SimSeconds, tc.lo, tc.hi)
			}
			if pres.SimSeconds != res.SimSeconds {
				t.Errorf("%s: pooled (%s) simulated %g s != one-shot %g s",
					tc.name, pass, pres.SimSeconds, res.SimSeconds)
			}
		}
		pool.Close()
	}
}
