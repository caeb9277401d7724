package parsel

import (
	"cmp"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"parsel/internal/selection"
	"parsel/internal/seq"
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
// dataset's lifecycle and hands the resident shards to Pool.Run. The
// embedded Verbs are bound to Run, so the named queries take the
// context first (ds.Select(ctx, rank), ds.Median(ctx)).
//
// The first query checks, once, which shards are in ascending order (a
// random shard fails the check within a couple of keys); construction
// does no such scan. On an ascending shard, fast randomized selection's
// first window filter finds the survivors by binary search instead of
// comparing every key. That saves host time only: the engine charges
// the simulated operations the scan would have, so range-partitioned
// data (the paper's sorted layout) costs the same simulated seconds and
// far less CPU.
//
// The first fast randomized single-rank query (select, median,
// quantile, topk or bottomk) on two or more shards also memoizes the
// part of the run that does not read the rank: the Combine of n, the
// first sample (n^SampleExponent keys), its parallel sort (or its
// gather on processor 0) and the Combine of its size. It records each
// simulated processor's clock, counters and random streams at that
// point, plus the sorted sample keys the next step reads. Every later
// such query restores that state instead of redoing the work. The
// simulated charge is restored, not dropped, so answers, simulated
// seconds and every Report field are unchanged. The memo holds
// O(sample) keys (about 32 KB for 2^20 int64 keys on 8 shards).
// Multi-rank queries, the other algorithms and one-shard datasets
// build none.
//
// Results — values and every simulated metric — are bit-identical to
// passing the same shards through Pool.Over:
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
//     read-only discipline as Pool.Run: fast randomized selection
//     (the default) scans them in place, concurrent queries included,
//     and the other algorithms copy them into the checked-out machine's
//     per-processor arenas first.
//   - Multi-value results (Answer.Values and the multi-value verbs'
//     results) are caller-owned copies, safe to retain.
//   - Close marks the Dataset unusable (later methods return
//     ErrDatasetClosed) but never interrupts queries already in flight;
//     it does not touch the Pool, which the caller still owns.
type Dataset[K cmp.Ordered] struct {
	verbs[K] // bound to Run

	pool   *Pool[K]
	shards [][]K // the resident snapshot; read-only after construction
	n      int64

	hints hints[K]

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
	if err := pl.admitDataset(len(shards)); err != nil {
		return nil, err
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
	return pl.RestoreDataset(resident)
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
	if err := pl.admitDataset(len(shards)); err != nil {
		return nil, err
	}
	var n int64
	for _, sh := range shards {
		n += int64(len(sh))
	}
	ds := &Dataset[K]{
		pool:   pl,
		shards: shards,
		n:      n,
	}
	ds.verbs = ds.Run
	return ds, nil
}

// admitDataset reports why the pool cannot hold a dataset of procs
// shards: NewDataset asks before it copies, RestoreDataset before it
// adopts.
func (pl *Pool[K]) admitDataset(procs int) error {
	if procs == 0 {
		return ErrNoShards
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return ErrPoolClosed
	}
	return nil
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

// Run answers one query against the resident population; see Pool.Run.
func (ds *Dataset[K]) Run(ctx context.Context, q Query) (Answer[K], error) {
	if err := ds.enter(); err != nil {
		return Answer[K]{}, err
	}
	ds.ascending()
	return ds.pool.run(ctx, ds.shards, &ds.hints, q)
}

// hints is what a resident Dataset knows about its shards beyond their
// keys; every query it runs carries them to the engine (Pool.Run on
// caller shards carries none).
type hints[K cmp.Ordered] struct {
	// asc flags the ascending shards (seq.Ascending), computed once by
	// the first query rather than at construction: a restore should not
	// pay a scan of the whole population, and a random shard fails the
	// check within a couple of keys.
	ascOnce sync.Once
	asc     []bool

	// prefix is fast randomized selection's rank-independent prefix on
	// these shards (see selection.Prefix), published once by the first
	// query that captured it on every processor; nil until then.
	prefix atomic.Pointer[selection.Prefix[K]]
	// builds counts the memos queries built to capture into (tests
	// read it: only first queries may build one).
	builds atomic.Int64
}

// ascending returns the per-shard ascending flags, computing them on
// the first call.
func (ds *Dataset[K]) ascending() []bool {
	h := &ds.hints
	h.ascOnce.Do(func() {
		h.asc = make([]bool, len(ds.shards))
		for i, sh := range ds.shards {
			h.asc[i] = seq.Ascending(sh)
		}
	})
	return h.asc
}

// prefixMemo returns the prefix memo a single-rank run of alg on procs
// shards uses: the published one, or a fresh one that the run captures
// into (capture true). Only fast randomized runs on several shards of a
// resident Dataset have one.
func (h *hints[K]) prefixMemo(alg Algorithm, procs int) (pre *selection.Prefix[K], capture bool) {
	if h == nil || alg != FastRandomized || procs == 1 {
		return nil, false
	}
	if pre := h.prefix.Load(); pre != nil {
		return pre, false
	}
	h.builds.Add(1)
	return selection.NewPrefix[K](procs), true
}

// publish offers the memo captured by a run that succeeded. Concurrent
// first queries each capture one; the first complete one is kept.
func (h *hints[K]) publish(pre *selection.Prefix[K]) {
	if pre.Seal() {
		h.prefix.CompareAndSwap(nil, pre)
	}
}

// SelectContext is Select under another name, kept only because the
// benchmark module still calls it; use Select.
func (ds *Dataset[K]) SelectContext(ctx context.Context, rank int64) (Result[K], error) {
	return ds.Select(ctx, rank)
}

// QuantilesContext is Quantiles under another name, kept only because
// the benchmark module still calls it; use Quantiles.
func (ds *Dataset[K]) QuantilesContext(ctx context.Context, qs []float64) ([]K, Report, error) {
	return ds.Quantiles(ctx, qs)
}
