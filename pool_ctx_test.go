package parsel_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"parsel"
	"parsel/internal/workload"
)

// TestPoolContextTimeout deterministically provokes ErrPoolTimeout: the
// pool's only machine is held checked out, so a deadline-carrying query
// must time out in admission — and must match both the typed pool error
// and the context verdict. After the machine is released the same query
// succeeds.
func TestPoolContextTimeout(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	shards := workload.Generate(workload.Random, 4000, 4, 9)

	release, err := pool.CheckoutForTest(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = pool.Over(shards).Select(ctx, 1)
	if !errors.Is(err, parsel.ErrPoolTimeout) {
		t.Fatalf("saturated pool: err = %v, want ErrPoolTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("saturated pool: err = %v, want to match context.DeadlineExceeded too", err)
	}
	st := pool.Stats()
	if st.Timeouts != 1 || st.Waits != 1 {
		t.Errorf("stats after timeout: %+v, want Timeouts=1 Waits=1", st)
	}

	// The full query surface reports the same typed error while starved.
	short := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), time.Millisecond)
	}
	ctx2, cancel2 := short()
	if _, err := pool.Over(shards).Median(ctx2); !errors.Is(err, parsel.ErrPoolTimeout) {
		t.Errorf("Median: %v", err)
	}
	cancel2()
	ctx3, cancel3 := short()
	if _, _, err := pool.Over(shards).Quantiles(ctx3, []float64{0.5}); !errors.Is(err, parsel.ErrPoolTimeout) {
		t.Errorf("Quantiles: %v", err)
	}
	cancel3()
	ctx4, cancel4 := short()
	if _, _, err := pool.Over(shards).TopK(ctx4, 3); !errors.Is(err, parsel.ErrPoolTimeout) {
		t.Errorf("TopK: %v", err)
	}
	cancel4()
	ctx5, cancel5 := short()
	if _, _, err := pool.Over(shards).Summary(ctx5); !errors.Is(err, parsel.ErrPoolTimeout) {
		t.Errorf("Summary: %v", err)
	}
	cancel5()

	release()
	res, err := pool.Over(shards).Select(context.Background(), 1)
	if err != nil {
		t.Fatalf("freed pool: %v", err)
	}
	flat := workload.Flatten(shards)
	minV := flat[0]
	for _, v := range flat {
		if v < minV {
			minV = v
		}
	}
	if res.Value != minV {
		t.Errorf("freed pool: value %d, want %d", res.Value, minV)
	}
}

// TestPoolContextPreCancelled pins the admission contract for a context
// that is already dead: the query is refused with ErrPoolTimeout (and
// the context's cause) even when a machine is free.
func TestPoolContextPreCancelled(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = pool.Over([][]int64{{1, 2}, {3}}).Select(ctx, 1)
	if !errors.Is(err, parsel.ErrPoolTimeout) || !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: err = %v, want ErrPoolTimeout wrapping context.Canceled", err)
	}
	if st := pool.Stats(); st.Creates != 0 {
		t.Errorf("pre-cancelled ctx built a machine: %+v", st)
	}
}

// TestPoolSelectInPlaceTimeout pins SelectInPlace's admission promise:
// on a saturated pool an expired context is refused with ErrPoolTimeout
// and the caller's shards are left byte-identical, even under an
// algorithm that partitions them in place once admitted.
func TestPoolSelectInPlaceTimeout(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{Algorithm: parsel.Randomized}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	shards := workload.Generate(workload.Random, 4000, 4, 11)
	want := make([][]int64, len(shards))
	for i, sh := range shards {
		want[i] = slices.Clone(sh)
	}

	release, err := pool.CheckoutForTest(4)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := pool.SelectInPlace(ctx, shards, 2000); !errors.Is(err, parsel.ErrPoolTimeout) {
		t.Fatalf("saturated pool: err = %v, want ErrPoolTimeout", err)
	}
	for i := range shards {
		if !slices.Equal(shards[i], want[i]) {
			t.Fatalf("timed-out SelectInPlace touched shard %d", i)
		}
	}
}

// TestPoolContextNilMeansForever checks the nil-context path still
// blocks (and completes) rather than timing out, and that a queued
// waiter proceeds once capacity frees up.
func TestPoolContextNilMeansForever(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	shards := workload.Generate(workload.Random, 2000, 2, 4)

	release, err := pool.CheckoutForTest(2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := pool.Over(shards).Select(nil, 1); err != nil {
			t.Errorf("nil-ctx select: %v", err)
		}
	}()
	time.Sleep(2 * time.Millisecond) // let the waiter queue up
	release()
	wg.Wait()
	if st := pool.Stats(); st.Timeouts != 0 {
		t.Errorf("nil-ctx wait counted a timeout: %+v", st)
	}
}

// TestPoolStatsGauges pins the Resident/Idle gauges through a checkout/
// checkin/Close cycle — the leak audit primitive the daemon tests rely
// on.
func TestPoolStatsGauges(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 2})
	if err != nil {
		t.Fatal(err)
	}
	rel1, err := pool.CheckoutForTest(4)
	if err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Resident != 1 || st.Idle != 0 {
		t.Errorf("one checkout: %+v, want Resident=1 Idle=0", st)
	}
	rel1()
	if st := pool.Stats(); st.Resident != 1 || st.Idle != 1 {
		t.Errorf("after checkin: %+v, want Resident=1 Idle=1", st)
	}
	pool.Close()
	if st := pool.Stats(); st.Resident != 0 || st.Idle != 0 {
		t.Errorf("after Close: %+v, want Resident=0 Idle=0", st)
	}
}
