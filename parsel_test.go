package parsel

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"
)

func shardInts(vals []int64, p int) [][]int64 {
	shards := make([][]int64, p)
	for i, v := range vals {
		shards[i%p] = append(shards[i%p], v)
	}
	return shards
}

func TestSelectBasic(t *testing.T) {
	shards := [][]int64{{9, 1, 5}, {3, 7, 2}}
	res, err := Over(shards, Options{}).Select(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 3 {
		t.Errorf("rank 3 = %d, want 3", res.Value)
	}
	if res.SimSeconds <= 0 || res.WallSeconds <= 0 {
		t.Errorf("missing timing: %+v", res.Report)
	}
}

func TestSelectAllAlgorithmsAndBalancers(t *testing.T) {
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = int64((i * 7919) % 1000)
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	shards := shardInts(vals, 4)
	algs := []Algorithm{FastRandomized, Randomized, MedianOfMedians, BucketBased,
		MedianOfMediansHybrid, BucketBasedHybrid}
	bals := []Balancer{ModifiedOMLB, NoBalance, OMLB, DimensionExchange, GlobalExchange}
	for _, a := range algs {
		for _, b := range bals {
			for _, rank := range []int64{1, 250, 500} {
				res, err := Over(shards, Options{Algorithm: a, Balancer: b}).Select(context.Background(), rank)
				if err != nil {
					t.Fatalf("%v/%v: %v", a, b, err)
				}
				if res.Value != sorted[rank-1] {
					t.Errorf("%v/%v rank %d = %d, want %d", a, b, rank, res.Value, sorted[rank-1])
				}
			}
		}
	}
}

func TestShardsNotModified(t *testing.T) {
	shards := [][]int64{{9, 1, 5}, {3, 7, 2}}
	want := [][]int64{{9, 1, 5}, {3, 7, 2}}
	if _, err := Over(shards, Options{Balancer: GlobalExchange}).Select(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !slices.Equal(shards[i], want[i]) {
			t.Errorf("shard %d modified: %v", i, shards[i])
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	vals := make([]int64, 101)
	for i := range vals {
		vals[i] = int64(i) // 0..100
	}
	shards := shardInts(vals, 3)
	med, err := Over(shards, Options{}).Median(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if med.Value != 50 { // rank ceil(101/2)=51 -> value 50
		t.Errorf("median = %d, want 50", med.Value)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 0}, {0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100}} {
		res, err := Over(shards, Options{}).Quantile(context.Background(), tc.q)
		if err != nil {
			t.Fatalf("q=%g: %v", tc.q, err)
		}
		if res.Value != tc.want {
			t.Errorf("q=%g = %d, want %d", tc.q, res.Value, tc.want)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := Over[int64](nil, Options{}).Select(context.Background(), 1); !errors.Is(err, ErrNoShards) {
		t.Errorf("nil shards: %v", err)
	}
	if _, err := Over([][]int64{{}, {}}, Options{}).Select(context.Background(), 1); !errors.Is(err, ErrNoData) {
		t.Errorf("empty shards: %v", err)
	}
	if _, err := Over([][]int64{{1, 2}}, Options{}).Select(context.Background(), 0); !errors.Is(err, ErrRankRange) {
		t.Errorf("rank 0: %v", err)
	}
	if _, err := Over([][]int64{{1, 2}}, Options{}).Select(context.Background(), 3); !errors.Is(err, ErrRankRange) {
		t.Errorf("rank 3 of 2: %v", err)
	}
	if _, err := Over([][]int64{{1}}, Options{}).Quantile(context.Background(), 1.5); !errors.Is(err, ErrBadQuantile) {
		t.Errorf("q=1.5: %v", err)
	}
	if _, err := Over([][]int64{}, Options{}).Quantile(context.Background(), 0.5); !errors.Is(err, ErrNoShards) {
		t.Errorf("quantile no shards: %v", err)
	}
	if _, _, err := Balance([][]int64{}, Options{}); !errors.Is(err, ErrNoShards) {
		t.Errorf("balance no shards: %v", err)
	}
}

func TestBalancePublic(t *testing.T) {
	shards := [][]int64{{1, 2, 3, 4, 5, 6, 7, 8}, {}, {9}, {}}
	out, rep, err := Balance(shards, Options{Balancer: GlobalExchange})
	if err != nil {
		t.Fatal(err)
	}
	var all []int64
	for i, s := range out {
		if len(s) < 2 || len(s) > 3 {
			t.Errorf("shard %d size %d, want 2..3", i, len(s))
		}
		all = append(all, s...)
	}
	slices.Sort(all)
	if !slices.Equal(all, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Errorf("elements changed: %v", all)
	}
	if rep.SimSeconds <= 0 {
		t.Error("no simulated time reported")
	}
	// Originals untouched.
	if !slices.Equal(shards[0], []int64{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Error("input shard modified")
	}
}

// TestBalanceReport pins every Report field of Balance for each balancer
// on a skewed five-shard layout under two topologies: the simulated
// time's bits, the traffic totals, no iterations, and BalanceSeconds
// equal to SimSeconds (the whole run is balancing).
func TestBalanceReport(t *testing.T) {
	shards := [][]int64{make([]int64, 700), {}, make([]int64, 90), {1}, make([]int64, 5)}
	for i := range shards[0] {
		shards[0][i] = int64(i * 7 % 701)
	}
	for _, c := range []struct {
		bal      Balancer
		topo     Topology
		simBits  uint64
		messages int64
		bytes    int64
	}{
		{ModifiedOMLB, TopologyCrossbar, 0x3f5a7732f5aefc91, 19, 4480},
		{ModifiedOMLB, TopologyMesh2D, 0x3f5ae00e815b6d9d, 19, 4480},
		{NoBalance, TopologyCrossbar, 0, 0, 0},
		{NoBalance, TopologyMesh2D, 0, 0, 0},
		{OMLB, TopologyCrossbar, 0x3f59cb3b8b7fb3ce, 21, 5208},
		{OMLB, TopologyMesh2D, 0x3f5a3417172c24db, 21, 5208},
		{DimensionExchange, TopologyCrossbar, 0x3f598f9f655de797, 15, 6432},
		{DimensionExchange, TopologyMesh2D, 0x3f59b990d06fae68, 15, 6432},
		{GlobalExchange, TopologyCrossbar, 0x3f5a7d8dd75c58bf, 19, 4480},
		{GlobalExchange, TopologyMesh2D, 0x3f5ae6696308c9cd, 19, 4480},
	} {
		_, rep, err := Balance(shards, Options{Balancer: c.bal, Machine: Machine{Topology: c.topo, Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		rep.WallSeconds = 0
		want := Report{
			SimSeconds:     math.Float64frombits(c.simBits),
			BalanceSeconds: math.Float64frombits(c.simBits),
			Messages:       c.messages,
			Bytes:          c.bytes,
		}
		if rep != want {
			t.Errorf("%v/%v: report %+v, want %+v", c.bal, c.topo, rep, want)
		}
	}
}

func TestCustomMachine(t *testing.T) {
	shards := shardInts([]int64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}, 2)
	fast := Options{Machine: Machine{Tau: time.Microsecond, BytesPerSecond: 1e9}}
	slow := Options{Machine: Machine{Tau: 10 * time.Millisecond, BytesPerSecond: 1e3}}
	rf, err := Over(shards, fast).Select(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Over(shards, slow).Select(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Value != 4 || rs.Value != 4 {
		t.Errorf("values %d, %d want 4", rf.Value, rs.Value)
	}
	if rs.SimSeconds <= rf.SimSeconds {
		t.Errorf("slow machine (%g) not slower than fast (%g)", rs.SimSeconds, rf.SimSeconds)
	}
}

func TestSeedDeterminism(t *testing.T) {
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = int64((i * 31) % 997)
	}
	shards := shardInts(vals, 4)
	o := Options{Algorithm: Randomized, Machine: Machine{Seed: 42}}
	r1, err := Over(shards, o).Select(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Over(shards, o).Select(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Value != r2.Value || r1.SimSeconds != r2.SimSeconds || r1.Messages != r2.Messages {
		t.Errorf("non-deterministic: %+v vs %+v", r1.Report, r2.Report)
	}
}

func TestStringKeysPublic(t *testing.T) {
	shards := [][]string{{"pear", "apple"}, {"fig", "date", "cherry"}}
	res, err := Over(shards, Options{}).Select(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "apple" {
		t.Errorf("min = %q", res.Value)
	}
}

func TestFloatKeys(t *testing.T) {
	shards := [][]float64{{3.5, 1.25}, {2.75, 0.5, 9.0}}
	res, err := Over(shards, Options{Algorithm: Randomized}).Median(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2.75 {
		t.Errorf("float median = %g", res.Value)
	}
}

func TestReportTraffic(t *testing.T) {
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(i * 13 % 4999)
	}
	res, err := Over(shardInts(vals, 8), Options{}).Select(context.Background(), 2500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages <= 0 || res.Bytes <= 0 {
		t.Errorf("traffic not reported: %+v", res.Report)
	}
	if res.Iterations <= 0 {
		t.Error("iterations not reported")
	}
}

func TestEnumStrings(t *testing.T) {
	for _, a := range []Algorithm{FastRandomized, Randomized, MedianOfMedians, BucketBased, MedianOfMediansHybrid, BucketBasedHybrid} {
		if a.String() == "" {
			t.Errorf("algorithm %d unnamed", int(a))
		}
	}
	for _, b := range []Balancer{ModifiedOMLB, NoBalance, OMLB, DimensionExchange, GlobalExchange} {
		if b.String() == "" {
			t.Errorf("balancer %d unnamed", int(b))
		}
	}
}
