package parsel

import (
	"cmp"
	"context"
	"errors"
	"reflect"
	"sync"

	"parsel/internal/fanout"
)

// ErrDatasetClosed is returned by every Dataset method called after
// Close. Queries in flight when Close arrives complete normally.
var ErrDatasetClosed = errors.New("parsel: Dataset used after Close")

// Dataset is resident sharded state: the paper's operating model, where
// each of the p processors already holds its n/p shard and selection
// queries run against that resident distribution. The shards are copied
// once at construction — snapshot-isolated from later caller mutation —
// and pinned to a machine shape (one simulated processor per shard), so
// every query skips the per-call shard shipping entirely: it checks any
// idle machine of matching shape out of the owning Pool and runs
// directly against the resident slices.
//
// Every query goes through Run(ctx, Query), which admits it against the
// dataset's lifecycle and hands the resident shards to Pool.Run; the
// named methods (Select, Median, Quantile, Quantiles, SelectRanks, TopK,
// BottomK, Summary and their Context forms) are one-line wrappers over
// Run, and SelectMany fans a batch of ranks out over it.
//
// Results — values and every simulated metric — are bit-identical to
// passing the same shards through the Pool's shard-per-query methods:
// the engine's per-run RNG/clock/counter reset makes a query's outcome
// a function of (Options, shards, query) only, never of machine
// history.
//
// # Concurrency contract
//
//   - Every method is safe to call from any number of goroutines;
//     concurrent queries fan out across the Pool's machines exactly as
//     direct Pool calls do (at most MaxMachines run at once, the rest
//     wait for admission).
//   - The resident shards are never mutated by queries, the same
//     read-only discipline as Pool.Select: fast randomized selection
//     (the default) scans them in place, concurrent queries included,
//     and the other algorithms copy them into the checked-out machine's
//     per-processor arenas first.
//   - Multi-value results (Answer.Values, SelectRanks, Quantiles, TopK,
//     BottomK) are caller-owned copies, safe to retain.
//   - Close marks the Dataset unusable (later methods return
//     ErrDatasetClosed) but never interrupts queries already in flight;
//     it does not touch the Pool, which the caller still owns.
type Dataset[K cmp.Ordered] struct {
	pool   *Pool[K]
	shards [][]K // the resident snapshot; read-only after construction
	n      int64
	bytes  int64

	mu     sync.Mutex
	closed bool
}

// NewDataset uploads shards into a resident Dataset served by this
// pool. The shards are deep-copied into one contiguous per-processor
// backing array (the caller may mutate or discard its slices freely
// afterwards); the dataset's machine shape is len(shards) and cannot
// change. Empty shards — and an entirely empty population — are
// allowed, matching the sharded entry points: queries on an empty
// population return ErrNoData.
func (pl *Pool[K]) NewDataset(shards [][]K) (*Dataset[K], error) {
	if len(shards) == 0 {
		return nil, ErrNoShards
	}
	pl.mu.Lock()
	closed := pl.closed
	pl.mu.Unlock()
	if closed {
		return nil, ErrPoolClosed
	}
	var n int64
	for _, sh := range shards {
		n += int64(len(sh))
	}
	backing := make([]K, n)
	resident := make([][]K, len(shards))
	off := int64(0)
	for i, sh := range shards {
		end := off + int64(len(sh))
		resident[i] = backing[off:end:end]
		copy(resident[i], sh)
		off = end
	}
	return &Dataset[K]{
		pool:   pl,
		shards: resident,
		n:      n,
		bytes:  n * int64(reflect.TypeFor[K]().Size()),
	}, nil
}

// RestoreDataset adopts shards as a resident Dataset without copying:
// the Dataset takes ownership of the slices (and whatever backing
// arrays they share), so the caller must not touch them afterwards.
// This is the warm-restart half of the snapshot contract — a decoded
// snapshot already lives in one contiguous per-processor backing, and
// re-copying it would double the restore's memory traffic for nothing.
//
// A restored Dataset is indistinguishable from a fresh NewDataset of
// the same shards: the engine's per-run reset makes every query's
// outcome — value and every simulated metric — a function of
// (Options, shards, query) only, so results are bit-identical to the
// upload the snapshot was taken from.
func (pl *Pool[K]) RestoreDataset(shards [][]K) (*Dataset[K], error) {
	if len(shards) == 0 {
		return nil, ErrNoShards
	}
	pl.mu.Lock()
	closed := pl.closed
	pl.mu.Unlock()
	if closed {
		return nil, ErrPoolClosed
	}
	var n int64
	for _, sh := range shards {
		n += int64(len(sh))
	}
	return &Dataset[K]{
		pool:   pl,
		shards: shards,
		n:      n,
		bytes:  n * int64(reflect.TypeFor[K]().Size()),
	}, nil
}

// View returns the dataset's resident per-processor shards without
// copying: the export half of the snapshot contract, handing a
// serializer the exact slices queries run against (so a snapshot needs
// no re-sharding and restores bit-identically). The returned slices
// are views into the resident backing array and MUST be treated as
// read-only — mutating them would corrupt every in-flight and future
// query. They remain valid after Close (the memory is reclaimed by the
// runtime once the last reference drops), but View itself follows the
// lifecycle and returns ErrDatasetClosed on a closed dataset.
func (ds *Dataset[K]) View() ([][]K, error) {
	if err := ds.enter(); err != nil {
		return nil, err
	}
	return ds.shards, nil
}

// enter admits one query against the dataset, or reports why it cannot.
func (ds *Dataset[K]) enter() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return ErrDatasetClosed
	}
	return nil
}

// Close marks the dataset unusable: every later method returns
// ErrDatasetClosed. Queries already past admission complete normally
// (the snapshot memory is reclaimed by the runtime once the last of
// them returns). Close is idempotent and does not close the Pool.
func (ds *Dataset[K]) Close() {
	ds.mu.Lock()
	ds.closed = true
	ds.mu.Unlock()
}

// Procs returns the dataset's machine shape: one simulated processor
// per uploaded shard.
func (ds *Dataset[K]) Procs() int { return len(ds.shards) }

// N returns the resident population size.
func (ds *Dataset[K]) N() int64 { return ds.n }

// Bytes returns the resident size of the snapshot in bytes (population
// times the key's in-memory size; variable-size keys such as strings
// count their headers only). This is the quantity the daemon's
// resident-bytes budget accounts.
func (ds *Dataset[K]) Bytes() int64 { return ds.bytes }

// Run answers one query against the resident population; see Pool.Run.
func (ds *Dataset[K]) Run(ctx context.Context, q Query) (Answer[K], error) {
	if err := ds.enter(); err != nil {
		return Answer[K]{}, err
	}
	return ds.pool.Run(ctx, ds.shards, q)
}

// Select returns the element of 1-based rank among the resident
// population; see Pool.Select.
func (ds *Dataset[K]) Select(rank int64) (Result[K], error) {
	return ds.SelectContext(nil, rank)
}

// SelectContext is Select with a deadline on pool admission; see
// Pool.Run.
func (ds *Dataset[K]) SelectContext(ctx context.Context, rank int64) (Result[K], error) {
	return AsResult(ds.Run(ctx, Query{Op: OpSelect, Rank: rank}))
}

// SelectMany fans a batch of independent rank queries against the
// resident dataset, running up to the pool's MaxMachines of them
// concurrently — Pool.SelectMany without the per-query shard shipping.
// Results align with ranks; each query carries its own error, so one
// out-of-range rank does not fail the batch, and every result is
// bit-identical to running that query alone. This is the in-process
// twin of the daemon's querymany endpoint.
func (ds *Dataset[K]) SelectMany(ranks []int64) []BatchResult[K] {
	out := make([]BatchResult[K], len(ranks))
	fanout.Run(len(ranks), ds.pool.max, func(i int) {
		out[i].Result, out[i].Err = ds.Select(ranks[i])
	})
	return out
}

// Median returns the element of rank ceil(n/2); see Pool.Median.
func (ds *Dataset[K]) Median() (Result[K], error) {
	return ds.MedianContext(nil)
}

// MedianContext is Median with a deadline on pool admission.
func (ds *Dataset[K]) MedianContext(ctx context.Context) (Result[K], error) {
	return AsResult(ds.Run(ctx, Query{Op: OpMedian}))
}

// Quantile returns the element of rank ceil(q*n); see Pool.Quantile.
func (ds *Dataset[K]) Quantile(q float64) (Result[K], error) {
	return ds.QuantileContext(nil, q)
}

// QuantileContext is Quantile with a deadline on pool admission.
func (ds *Dataset[K]) QuantileContext(ctx context.Context, q float64) (Result[K], error) {
	return AsResult(ds.Run(ctx, Query{Op: OpQuantile, Q: q}))
}

// SelectRanks returns the elements at several 1-based ranks in one
// collective run; the returned slice is a caller-owned copy.
func (ds *Dataset[K]) SelectRanks(ranks []int64) ([]K, Report, error) {
	return ds.SelectRanksContext(nil, ranks)
}

// SelectRanksContext is SelectRanks with a deadline on pool admission.
func (ds *Dataset[K]) SelectRanksContext(ctx context.Context, ranks []int64) ([]K, Report, error) {
	return AsValues(ds.Run(ctx, Query{Op: OpRanks, Ranks: ranks}))
}

// Quantiles returns the elements at several quantiles in one collective
// run; the returned slice is a caller-owned copy.
func (ds *Dataset[K]) Quantiles(qs []float64) ([]K, Report, error) {
	return ds.QuantilesContext(nil, qs)
}

// QuantilesContext is Quantiles with a deadline on pool admission.
func (ds *Dataset[K]) QuantilesContext(ctx context.Context, qs []float64) ([]K, Report, error) {
	return AsValues(ds.Run(ctx, Query{Op: OpQuantiles, Qs: qs}))
}

// TopK returns the k largest resident elements in descending order; see
// Pool.TopK.
func (ds *Dataset[K]) TopK(k int) ([]K, Report, error) {
	return ds.TopKContext(nil, k)
}

// TopKContext is TopK with a deadline on pool admission.
func (ds *Dataset[K]) TopKContext(ctx context.Context, k int) ([]K, Report, error) {
	return AsValues(ds.Run(ctx, Query{Op: OpTopK, K: k}))
}

// BottomK returns the k smallest resident elements in ascending order;
// see Pool.BottomK.
func (ds *Dataset[K]) BottomK(k int) ([]K, Report, error) {
	return ds.BottomKContext(nil, k)
}

// BottomKContext is BottomK with a deadline on pool admission.
func (ds *Dataset[K]) BottomKContext(ctx context.Context, k int) ([]K, Report, error) {
	return AsValues(ds.Run(ctx, Query{Op: OpBottomK, K: k}))
}

// Summary computes the five-number summary in a single multi-rank run;
// see Pool.Summary.
func (ds *Dataset[K]) Summary() (FiveNumber[K], Report, error) {
	return ds.SummaryContext(nil)
}

// SummaryContext is Summary with a deadline on pool admission.
func (ds *Dataset[K]) SummaryContext(ctx context.Context) (FiveNumber[K], Report, error) {
	return AsSummary(ds.Run(ctx, Query{Op: OpSummary}))
}
