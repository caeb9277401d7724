package parsel_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"parsel"
)

// TestSelectorUseAfterClose pins the typed-error contract: every method
// of a closed Selector reports ErrSelectorClosed instead of hanging or
// corrupting state.
func TestSelectorUseAfterClose(t *testing.T) {
	sel, err := parsel.NewSelector[int64](parsel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]int64{{3, 1, 2}, {6, 5, 4}}
	if _, err := sel.Over(shards).Select(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	sel.Close()
	sel.Close() // idempotent

	if _, err := sel.Over(shards).Select(context.Background(), 1); !errors.Is(err, parsel.ErrSelectorClosed) {
		t.Errorf("Select after Close: %v", err)
	}
	if _, err := sel.Over(shards).Median(context.Background()); !errors.Is(err, parsel.ErrSelectorClosed) {
		t.Errorf("Median after Close: %v", err)
	}
	if _, err := sel.Over(shards).Quantile(context.Background(), 0.5); !errors.Is(err, parsel.ErrSelectorClosed) {
		t.Errorf("Quantile after Close: %v", err)
	}
	if _, _, err := sel.Over(shards).SelectRanks(context.Background(), []int64{1}); !errors.Is(err, parsel.ErrSelectorClosed) {
		t.Errorf("SelectRanks after Close: %v", err)
	}
	if _, _, err := sel.Over(shards).Quantiles(context.Background(), []float64{0.5}); !errors.Is(err, parsel.ErrSelectorClosed) {
		t.Errorf("Quantiles after Close: %v", err)
	}
	if _, _, err := sel.Over(shards).TopK(context.Background(), 1); !errors.Is(err, parsel.ErrSelectorClosed) {
		t.Errorf("TopK after Close: %v", err)
	}
	if _, _, err := sel.Over(shards).BottomK(context.Background(), 1); !errors.Is(err, parsel.ErrSelectorClosed) {
		t.Errorf("BottomK after Close: %v", err)
	}
	if _, _, err := sel.Over(shards).Summary(context.Background()); !errors.Is(err, parsel.ErrSelectorClosed) {
		t.Errorf("Summary after Close: %v", err)
	}
}

// TestSelectorBusyDetected deterministically provokes the two-goroutine
// misuse: while one call is (simulated) in flight, every entry point
// reports ErrSelectorBusy, and the Selector works again once released.
func TestSelectorBusyDetected(t *testing.T) {
	sel, err := parsel.NewSelector[int64](parsel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	shards := [][]int64{{3, 1, 2}, {6, 5, 4}}

	if err := sel.AcquireForTest(); err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Over(shards).Select(context.Background(), 1); !errors.Is(err, parsel.ErrSelectorBusy) {
		t.Errorf("Select while busy: %v", err)
	}
	if _, err := sel.Over(shards).Median(context.Background()); !errors.Is(err, parsel.ErrSelectorBusy) {
		t.Errorf("Median while busy: %v", err)
	}
	if _, _, err := sel.Over(shards).SelectRanks(context.Background(), []int64{1}); !errors.Is(err, parsel.ErrSelectorBusy) {
		t.Errorf("SelectRanks while busy: %v", err)
	}
	if _, _, err := sel.Over(shards).TopK(context.Background(), 2); !errors.Is(err, parsel.ErrSelectorBusy) {
		t.Errorf("TopK while busy: %v", err)
	}
	sel.ReleaseForTest()

	res, err := sel.Over(shards).Select(context.Background(), 4)
	if err != nil {
		t.Fatalf("Select after release: %v", err)
	}
	if res.Value != 4 {
		t.Errorf("Select after release = %d, want 4", res.Value)
	}
}

// TestSelectorCloseWhileBusy pins the deferred-close contract: a Close
// that arrives while a call is in flight does not tear the engine down
// underneath it — the close completes as the call returns, after which
// every method reports ErrSelectorClosed.
func TestSelectorCloseWhileBusy(t *testing.T) {
	sel, err := parsel.NewSelector[int64](parsel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]int64{{3, 1, 2}, {6, 5, 4}}
	if err := sel.AcquireForTest(); err != nil { // a call is in flight
		t.Fatal(err)
	}
	sel.Close() // must not close the machine yet
	if _, err := sel.Over(shards).Select(context.Background(), 1); !errors.Is(err, parsel.ErrSelectorBusy) {
		t.Errorf("Select during deferred close: %v", err)
	}
	sel.ReleaseForTest() // the in-flight call returns; close completes
	if _, err := sel.Over(shards).Select(context.Background(), 1); !errors.Is(err, parsel.ErrSelectorClosed) {
		t.Errorf("Select after deferred close: %v", err)
	}
}

// TestSelectorConcurrentHammer fires many goroutines at one Selector.
// Every call must either succeed with the correct answer or fail with
// ErrSelectorBusy — never corrupt state, deadlock, or return a wrong
// value. Run under -race this doubles as a data-race probe for the
// guard itself.
func TestSelectorConcurrentHammer(t *testing.T) {
	sel, err := parsel.NewSelector[int64](parsel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()

	vals := make([]int64, 4000)
	for i := range vals {
		vals[i] = int64((i * 131) % 4001)
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	shards := make([][]int64, 4)
	for i, v := range vals {
		shards[i%4] = append(shards[i%4], v)
	}

	const clients = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	succeeded := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := sel.Over(shards).Select(context.Background(), 2000)
				if err != nil {
					if !errors.Is(err, parsel.ErrSelectorBusy) {
						t.Errorf("unexpected error: %v", err)
					}
					continue
				}
				if res.Value != sorted[1999] {
					t.Errorf("corrupted result %d, want %d", res.Value, sorted[1999])
				}
				mu.Lock()
				succeeded++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if succeeded == 0 {
		t.Error("no call ever succeeded")
	}
}
