package parsel

import (
	"context"
	"testing"
	"time"
)

func TestTopologyPricing(t *testing.T) {
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64((i * 104729) % 65536)
	}
	shards := shardInts(vals, 16)
	want, err := Over(shards, Options{Algorithm: Randomized, Balancer: NoBalance}).Median(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var crossbar, ring float64
	for _, topo := range []Topology{TopologyCrossbar, TopologyHypercube, TopologyMesh2D, TopologyRing} {
		res, err := Over(shards, Options{
			Algorithm: Randomized,
			Balancer:  NoBalance,
			Machine:   Machine{Topology: topo, PerHop: 50 * time.Microsecond},
		}).Median(context.Background())
		if err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		if res.Value != want.Value {
			t.Errorf("%v: wrong median %d (want %d)", topo, res.Value, want.Value)
		}
		switch topo {
		case TopologyCrossbar:
			crossbar = res.SimSeconds
		case TopologyRing:
			ring = res.SimSeconds
		}
		if topo.String() == "" {
			t.Errorf("topology %d unnamed", int(topo))
		}
	}
	if ring <= crossbar {
		t.Errorf("ring with heavy per-hop cost (%g) not slower than crossbar (%g)", ring, crossbar)
	}
}

func TestMoreProcessorsThanElements(t *testing.T) {
	shards := make([][]int64, 12)
	shards[3] = []int64{5}
	shards[9] = []int64{2}
	for i := range shards {
		if shards[i] == nil {
			shards[i] = []int64{}
		}
	}
	for _, alg := range []Algorithm{FastRandomized, Randomized, MedianOfMedians, BucketBased} {
		res, err := Over(shards, Options{Algorithm: alg}).Select(context.Background(), 2)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Value != 5 {
			t.Errorf("%v: rank 2 of {2,5} = %d", alg, res.Value)
		}
	}
}

func TestQuantileRankRounding(t *testing.T) {
	// ceil(q*n) ranking: with n=4, q in (0, 0.25] must give the minimum.
	shards := [][]int64{{10, 20}, {30, 40}}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.0, 10}, {0.1, 10}, {0.25, 10}, {0.26, 20}, {0.5, 20}, {0.51, 30}, {0.75, 30}, {0.76, 40}, {1.0, 40},
	}
	for _, tc := range cases {
		res, err := Over(shards, Options{}).Quantile(context.Background(), tc.q)
		if err != nil {
			t.Fatalf("q=%g: %v", tc.q, err)
		}
		if res.Value != tc.want {
			t.Errorf("q=%g = %d, want %d", tc.q, res.Value, tc.want)
		}
	}
}

func TestFaithfulOptionAgrees(t *testing.T) {
	vals := make([]int64, 60000)
	for i := range vals {
		vals[i] = int64((i * 48271) % 999331)
	}
	shards := shardInts(vals, 8)
	fast, err := Over(shards, Options{Algorithm: FastRandomized, Faithful: false}).Select(context.Background(), 30000)
	if err != nil {
		t.Fatal(err)
	}
	faithful, err := Over(shards, Options{Algorithm: FastRandomized, Faithful: true}).Select(context.Background(), 30000)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Value != faithful.Value {
		t.Errorf("faithful (%d) and optimized (%d) disagree", faithful.Value, fast.Value)
	}
	if faithful.Iterations < fast.Iterations {
		t.Errorf("faithful mode used fewer iterations (%d) than optimized (%d)",
			faithful.Iterations, fast.Iterations)
	}
}
