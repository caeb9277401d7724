package parsel_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"parsel"
	"parsel/internal/workload"
)

// TestPackageWrappersShareDefaultPool is the regression test for the
// shared default pool behind the package-level functions: concurrent
// and repeated Select calls with the same Options must reuse resident
// machines, never rebuild one per call (the pre-PR-3 wrappers built and
// tore down a machine every time).
func TestPackageWrappersShareDefaultPool(t *testing.T) {
	// A seed no other test uses, so this test owns its default pool and
	// the counters start from zero.
	opts := parsel.Options{Machine: parsel.Machine{Seed: 0xD00DF00D}}
	shards := workload.Generate(workload.Random, 20000, 6, 11)
	flat := workload.Flatten(shards)
	slices.Sort(flat)
	want := flat[9999]

	run := func(clients int) {
		t.Helper()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := parsel.Over(shards, opts).Select(context.Background(), 10000)
				if err != nil {
					t.Errorf("Select: %v", err)
					return
				}
				if res.Value != want {
					t.Errorf("Select = %d, want %d", res.Value, want)
				}
			}()
		}
		wg.Wait()
	}

	// Two concurrent calls may each build a machine (the pool is cold),
	// but never more than two.
	run(2)
	st := parsel.DefaultPoolStatsForTest(opts)
	if st.Creates == 0 || st.Creates > 2 {
		t.Fatalf("cold concurrent wrappers built %d machines, want 1-2", st.Creates)
	}
	// If the two cold calls happened to run one after the other they
	// built one machine, and two overlapping warm calls would rightly
	// build a second. Top the pool up to two so the warm phase below
	// always finds both resident.
	if err := parsel.WarmDefaultPoolForTest(opts, len(shards), 2); err != nil {
		t.Fatal(err)
	}
	cold := parsel.DefaultPoolStatsForTest(opts).Creates
	if cold != 2 {
		t.Fatalf("warmed default pool holds %d machines, want 2", cold)
	}

	// Every later call — concurrent or sequential — must hit a resident
	// machine; machine construction happens zero more times.
	run(2)
	if _, err := parsel.Over(shards, opts).Median(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := parsel.Over(shards, opts).SelectRanks(context.Background(), []int64{1, 20000}); err != nil {
		t.Fatal(err)
	}
	st = parsel.DefaultPoolStatsForTest(opts)
	if st.Creates != cold {
		t.Errorf("warm wrappers rebuilt machines: %d creates, want %d", st.Creates, cold)
	}
	if st.Hits < 4 {
		t.Errorf("warm wrappers only reused a machine %d times, want >= 4", st.Hits)
	}

	// Distinct Options (different seed) get a distinct pool: stats start
	// over rather than aliasing the first pool.
	other := opts
	other.Machine.Seed = 0xBADCAB1E
	if _, err := parsel.Over(shards, other).Median(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := parsel.DefaultPoolStatsForTest(other); st.Creates != 1 {
		t.Errorf("second Options pool has %d creates, want 1", st.Creates)
	}
}

// TestDefaultPoolCacheBounded pins the fallback path: the shared cache
// never grows past its cap, and high-cardinality Options churn past the
// cap still serves correct results through private throwaway pools
// instead of pinning machines and goroutines forever. The cache is
// deliberately saturated here, so it is reset on cleanup to keep the
// rest of the binary fast.
func TestDefaultPoolCacheBounded(t *testing.T) {
	t.Cleanup(parsel.ResetDefaultPoolsForTest)
	shards := [][]int64{{9, 1, 5}, {3, 7, 2}}

	// Churn far more distinct Options than the cap: the cache saturates
	// at the cap, and every call past it still answers correctly.
	for i := 0; i < 80; i++ {
		res, err := parsel.Over(shards, parsel.Options{
			Machine: parsel.Machine{Seed: 0xC0FFEE + uint64(i)},
		}).Select(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != 1 {
			t.Fatalf("churned Options Select = %d, want 1", res.Value)
		}
	}
	if got := parsel.DefaultPoolCountForTest(); got > 64 {
		t.Errorf("pool cache grew to %d entries, cap is 64", got)
	}
}
