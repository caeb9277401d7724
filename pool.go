package parsel

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"parsel/internal/fanout"
)

// PoolOptions configures a Pool.
type PoolOptions struct {
	// MaxMachines bounds the number of resident Selectors (simulated
	// machines) the pool will hold at once. Calls beyond this many
	// concurrent queries block until a machine frees up. 0 means 4.
	MaxMachines int
}

// withDefaults fills in the zero-valued knobs.
func (po PoolOptions) withDefaults() PoolOptions {
	if po.MaxMachines == 0 {
		po.MaxMachines = 4
	}
	return po
}

// PoolStats counts what the pool did, for observability and tests.
type PoolStats struct {
	// Creates is the number of Selectors built.
	Creates int64
	// Hits is the number of checkouts served by an idle Selector that
	// already had the right machine shape.
	Hits int64
	// Reshapes is the number of checkouts that repurposed an idle
	// Selector of a different shape (paying one machine rebuild).
	Reshapes int64
	// Waits is the number of checkouts that blocked for a free slot.
	Waits int64
	// Timeouts is the number of checkouts abandoned because the caller's
	// context expired while waiting for a free slot (ErrPoolTimeout).
	Timeouts int64
	// Resident is the current number of Selectors owned by the pool,
	// idle or checked out (a gauge, sampled by Stats).
	Resident int64
	// Idle is the current number of idle Selectors (a gauge, sampled by
	// Stats). Resident - Idle is the number of queries in flight.
	Idle int64
}

// Pool is a goroutine-safe serving layer over a bounded set of resident
// Selectors sharing one Options configuration. It is the concurrency
// story for a long-lived selection/quantile service: many goroutines
// issue queries against one pool, each query checks a Selector out for
// its duration, and results — including every simulated metric — are
// bit-identical to running the same query on a one-shot Selector.
//
// Every query goes through Run(ctx, shards, Query): check a Selector
// out, run the query on it, check it back in. The named methods —
// Select, Median, Quantile, Quantiles, SelectRanks, TopK, BottomK,
// Summary and their Context forms — are one-line wrappers over Run;
// SelectInPlace, which takes over the caller's shards, and the
// SelectMany batch are the only other entry points.
//
// # Concurrency contract
//
//   - Every method is safe to call from any number of goroutines.
//   - Each query runs on exactly one resident Selector, checked out for
//     the duration of the call; a Selector never serves two queries at
//     once (the machine layer additionally asserts single-flight
//     ownership).
//   - Selectors are pooled per machine shape (processor count = shard
//     count of the call). A query whose shape has an idle Selector
//     reuses it at full amortized speed; a new shape grows the pool if
//     it is below MaxMachines, and otherwise repurposes an idle
//     Selector, paying one machine rebuild.
//   - At most MaxMachines queries execute concurrently; beyond that,
//     calls block (FIFO-ish, via an internal semaphore) until a machine
//     frees up. Blocking calls hold no locks, so progress is always
//     possible.
//   - Shard slices passed to a query are read but never modified; the
//     caller keeps ownership. Result slices (Answer.Values, and the
//     SelectRanks, Quantiles, TopK and BottomK results) are
//     caller-owned copies, safe to retain.
//   - After Close, every method returns ErrPoolClosed. Queries already
//     in flight complete normally.
type Pool[K cmp.Ordered] struct {
	opts Options
	max  int
	sem  chan struct{} // counting semaphore: one token per in-flight query

	mu     sync.Mutex
	idle   map[int][]*Selector[K] // idle Selectors keyed by machine shape
	total  int                    // resident Selectors (idle + checked out)
	closed bool
	stats  PoolStats

	// warmMu serializes Warm calls. Warm holds several semaphore tokens
	// at once; two concurrent Warms could otherwise each grab part of
	// the capacity and deadlock waiting for the rest (queries never
	// hold-and-wait, so they need no such serialization).
	warmMu sync.Mutex
}

// NewPool builds a serving pool for opts. Options.Machine.Procs is
// ignored (each query's shard count picks its machine shape); the
// remaining options apply to every resident Selector. No machine is
// built until the first query.
func NewPool[K cmp.Ordered](opts Options, po PoolOptions) (*Pool[K], error) {
	po = po.withDefaults()
	// Validate the machine description once, eagerly, with a throwaway
	// one-processor parameter set, so a misconfigured pool fails at
	// construction rather than on first use.
	if _, err := opts.Machine.params(1); err != nil {
		return nil, err
	}
	return &Pool[K]{
		opts: opts,
		max:  po.MaxMachines,
		sem:  make(chan struct{}, po.MaxMachines),
		idle: make(map[int][]*Selector[K]),
	}, nil
}

// checkout blocks for a slot and returns a Selector for a procs-shaped
// query. The caller must hand it back with checkin. The context bounds
// only the wait for a slot: once a Selector is checked out, the query
// runs to completion (a collective simulation has no safe preemption
// point). A nil context means wait forever, as the plain methods do.
func (pl *Pool[K]) checkout(ctx context.Context, procs int) (*Selector[K], error) {
	if procs == 0 {
		return nil, ErrNoShards
	}
	done := ctxDone(ctx)
	if done != nil {
		select {
		case <-done:
			return nil, poolTimeout(ctx)
		default:
		}
	}
	select {
	case pl.sem <- struct{}{}:
	default:
		pl.mu.Lock()
		pl.stats.Waits++
		pl.mu.Unlock()
		observe := checkoutObserver(ctx)
		var start time.Time
		if observe != nil {
			start = time.Now()
		}
		if done == nil {
			pl.sem <- struct{}{}
		} else {
			select {
			case pl.sem <- struct{}{}:
			case <-done:
				pl.mu.Lock()
				pl.stats.Timeouts++
				pl.mu.Unlock()
				if observe != nil {
					observe(time.Since(start))
				}
				return nil, poolTimeout(ctx)
			}
		}
		if observe != nil {
			observe(time.Since(start))
		}
	}
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		<-pl.sem
		return nil, ErrPoolClosed
	}
	if list := pl.idle[procs]; len(list) > 0 {
		sel := list[len(list)-1]
		pl.idle[procs] = list[:len(list)-1]
		pl.stats.Hits++
		pl.mu.Unlock()
		return sel, nil
	}
	if pl.total < pl.max {
		pl.total++
		pl.stats.Creates++
		pl.mu.Unlock()
		o := pl.opts
		o.Machine.Procs = procs
		sel, err := NewSelector[K](o)
		if err != nil {
			pl.mu.Lock()
			pl.total--
			pl.mu.Unlock()
			<-pl.sem
			return nil, err
		}
		return sel, nil
	}
	// The pool is full and no idle Selector has this shape: repurpose
	// one from another shape (Selector.ensure rebuilds transparently on
	// the next call). One must exist: the semaphore admits at most max
	// concurrent holders, so total == max implies at least one resident
	// Selector is idle.
	for shape, list := range pl.idle {
		if len(list) > 0 {
			sel := list[len(list)-1]
			pl.idle[shape] = list[:len(list)-1]
			pl.stats.Reshapes++
			pl.mu.Unlock()
			return sel, nil
		}
	}
	pl.mu.Unlock()
	panic("parsel: pool invariant violated: full pool with no idle Selector")
}

// ctxDone returns the context's done channel, or nil for a nil or
// never-cancelled context (the fast path never touches it then).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// poolTimeout wraps the context's cause so callers can match both the
// pool-level condition (errors.Is(err, ErrPoolTimeout)) and the precise
// context verdict (context.DeadlineExceeded vs context.Canceled).
func poolTimeout(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrPoolTimeout, context.Cause(ctx))
}

// checkin returns a Selector to the idle set (or closes it if the pool
// was closed meanwhile) and frees the slot.
func (pl *Pool[K]) checkin(sel *Selector[K]) {
	pl.mu.Lock()
	if pl.closed {
		pl.total--
		pl.mu.Unlock()
		sel.Close()
		<-pl.sem
		return
	}
	shape := sel.Procs()
	pl.idle[shape] = append(pl.idle[shape], sel)
	pl.mu.Unlock()
	<-pl.sem
}

// Close shuts the pool down: idle Selectors are closed immediately,
// checked-out ones as their queries complete, and every later method
// call returns ErrPoolClosed. Close is idempotent.
func (pl *Pool[K]) Close() {
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return
	}
	pl.closed = true
	var all []*Selector[K]
	for shape, list := range pl.idle {
		all = append(all, list...)
		delete(pl.idle, shape)
	}
	pl.total -= len(all)
	pl.mu.Unlock()
	for _, sel := range all {
		sel.Close()
	}
}

// Stats returns a snapshot of the pool's counters, with the Resident
// and Idle gauges sampled at the call.
func (pl *Pool[K]) Stats() PoolStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	st := pl.stats
	st.Resident = int64(pl.total)
	for _, list := range pl.idle {
		st.Idle += int64(len(list))
	}
	return st
}

// MaxMachines returns the pool's capacity: the maximum number of
// resident Selectors, and so of concurrently executing queries.
func (pl *Pool[K]) MaxMachines() int { return pl.max }

// Options returns the configuration every resident Selector runs
// with (Machine.Procs is per-query and meaningless here). Callers use
// it to fingerprint a pool — e.g. to stamp snapshots with the
// configuration they were taken under.
func (pl *Pool[K]) Options() Options { return pl.opts }

// Warm pre-provisions count resident Selectors — machine fabric
// included — for procs-shaped queries (count is capped at MaxMachines),
// so a later burst of concurrent traffic pays no machine construction.
// It holds all count Selectors checked out at once, guaranteeing the
// pool really grows to that size, then returns them idle. Warm blocks
// while count machines are busy with queries; concurrent Warm calls are
// serialized against each other.
func (pl *Pool[K]) Warm(procs, count int) error {
	if procs < 1 {
		return ErrNoShards
	}
	if count > pl.max {
		count = pl.max
	}
	pl.warmMu.Lock()
	defer pl.warmMu.Unlock()
	sels := make([]*Selector[K], 0, count)
	defer func() {
		for _, sel := range sels {
			pl.checkin(sel)
		}
	}()
	for i := 0; i < count; i++ {
		sel, err := pl.checkout(nil, procs)
		if err != nil {
			return err
		}
		sels = append(sels, sel)
		// Force the lazy machine build now; a plain checkout only
		// allocates the Selector shell.
		if err := sel.ensure(procs); err != nil {
			return err
		}
	}
	return nil
}

// Run answers one query; see Selector.Run. The context bounds pool
// admission: if every machine is busy and the context expires before
// one frees up, the call returns an error matching both ErrPoolTimeout
// and the context's own verdict (errors.Is either way). The deadline
// bounds only the wait for a machine — a query that has started always
// runs to completion, so a served answer is never partial. A nil
// context waits forever. Answer.Values is caller-owned. Safe for
// concurrent use.
func (pl *Pool[K]) Run(ctx context.Context, shards [][]K, q Query) (Answer[K], error) {
	sel, err := pl.checkout(ctx, len(shards))
	if err != nil {
		return Answer[K]{}, err
	}
	defer pl.checkin(sel)
	a, err := sel.Run(shards, q)
	if q.Op == OpQuantiles || q.Op == OpRanks {
		a.Values = slices.Clone(a.Values) // arena-backed until the Selector's next call
	}
	return a, err
}

// Select returns the element of 1-based rank among all elements of
// shards; see Selector.Select. Safe for concurrent use.
func (pl *Pool[K]) Select(shards [][]K, rank int64) (Result[K], error) {
	return pl.SelectContext(nil, shards, rank)
}

// SelectContext is Select with a deadline on pool admission; see Run.
func (pl *Pool[K]) SelectContext(ctx context.Context, shards [][]K, rank int64) (Result[K], error) {
	return AsResult(pl.Run(ctx, shards, Query{Op: OpSelect, Rank: rank}))
}

// SelectInPlace is Select for callers that hand over ownership of their
// shards; see Selector.SelectInPlace. The caller must not touch the
// shards until the call returns. Safe for concurrent use (with distinct
// shards per call).
func (pl *Pool[K]) SelectInPlace(shards [][]K, rank int64) (Result[K], error) {
	return pl.SelectInPlaceContext(nil, shards, rank)
}

// SelectInPlaceContext is SelectInPlace with a deadline on pool
// admission; see Run. A timed-out call has not touched the caller's
// shards.
func (pl *Pool[K]) SelectInPlaceContext(ctx context.Context, shards [][]K, rank int64) (Result[K], error) {
	sel, err := pl.checkout(ctx, len(shards))
	if err != nil {
		return Result[K]{}, err
	}
	defer pl.checkin(sel)
	return sel.SelectInPlace(shards, rank)
}

// Median returns the element of rank ceil(n/2); see Selector.Median.
func (pl *Pool[K]) Median(shards [][]K) (Result[K], error) {
	return pl.MedianContext(nil, shards)
}

// MedianContext is Median with a deadline on pool admission; see Run.
func (pl *Pool[K]) MedianContext(ctx context.Context, shards [][]K) (Result[K], error) {
	return AsResult(pl.Run(ctx, shards, Query{Op: OpMedian}))
}

// Quantile returns the element of rank ceil(q*n); see Selector.Quantile.
func (pl *Pool[K]) Quantile(shards [][]K, q float64) (Result[K], error) {
	return pl.QuantileContext(nil, shards, q)
}

// QuantileContext is Quantile with a deadline on pool admission; see
// Run.
func (pl *Pool[K]) QuantileContext(ctx context.Context, shards [][]K, q float64) (Result[K], error) {
	return AsResult(pl.Run(ctx, shards, Query{Op: OpQuantile, Q: q}))
}

// SelectRanks returns the elements at several 1-based ranks in one
// collective run; see Selector.SelectRanks. The returned slice is a
// caller-owned copy.
func (pl *Pool[K]) SelectRanks(shards [][]K, ranks []int64) ([]K, Report, error) {
	return pl.SelectRanksContext(nil, shards, ranks)
}

// SelectRanksContext is SelectRanks with a deadline on pool admission;
// see Run.
func (pl *Pool[K]) SelectRanksContext(ctx context.Context, shards [][]K, ranks []int64) ([]K, Report, error) {
	return AsValues(pl.Run(ctx, shards, Query{Op: OpRanks, Ranks: ranks}))
}

// Quantiles returns the elements at several quantiles in one collective
// run; see Selector.Quantiles. The returned slice is a caller-owned
// copy.
func (pl *Pool[K]) Quantiles(shards [][]K, qs []float64) ([]K, Report, error) {
	return pl.QuantilesContext(nil, shards, qs)
}

// QuantilesContext is Quantiles with a deadline on pool admission; see
// Run.
func (pl *Pool[K]) QuantilesContext(ctx context.Context, shards [][]K, qs []float64) ([]K, Report, error) {
	return AsValues(pl.Run(ctx, shards, Query{Op: OpQuantiles, Qs: qs}))
}

// TopK returns the k largest elements in descending order; see
// Selector.TopK.
func (pl *Pool[K]) TopK(shards [][]K, k int) ([]K, Report, error) {
	return pl.TopKContext(nil, shards, k)
}

// TopKContext is TopK with a deadline on pool admission; see Run.
func (pl *Pool[K]) TopKContext(ctx context.Context, shards [][]K, k int) ([]K, Report, error) {
	return AsValues(pl.Run(ctx, shards, Query{Op: OpTopK, K: k}))
}

// BottomK returns the k smallest elements in ascending order; see
// Selector.BottomK.
func (pl *Pool[K]) BottomK(shards [][]K, k int) ([]K, Report, error) {
	return pl.BottomKContext(nil, shards, k)
}

// BottomKContext is BottomK with a deadline on pool admission; see Run.
func (pl *Pool[K]) BottomKContext(ctx context.Context, shards [][]K, k int) ([]K, Report, error) {
	return AsValues(pl.Run(ctx, shards, Query{Op: OpBottomK, K: k}))
}

// Summary computes the five-number summary in a single multi-rank run;
// see Selector.Summary.
func (pl *Pool[K]) Summary(shards [][]K) (FiveNumber[K], Report, error) {
	return pl.SummaryContext(nil, shards)
}

// SummaryContext is Summary with a deadline on pool admission; see Run.
func (pl *Pool[K]) SummaryContext(ctx context.Context, shards [][]K) (FiveNumber[K], Report, error) {
	return AsSummary(pl.Run(ctx, shards, Query{Op: OpSummary}))
}

// ShardQuery is one independent selection request of a SelectMany
// batch.
type ShardQuery[K cmp.Ordered] struct {
	// Shards is the sharded population (one simulated processor per
	// shard, as in Select).
	Shards [][]K
	// Rank is the 1-based target rank.
	Rank int64
}

// BatchResult is one query's outcome in a SelectMany batch.
type BatchResult[K cmp.Ordered] struct {
	Result[K]
	// Err is the query's own error (other queries proceed regardless).
	Err error
}

// SelectMany fans a batch of independent queries across the pool's
// machines, running up to MaxMachines of them concurrently. Results
// align with the request; each query carries its own error, so one
// invalid query does not fail the batch. Every result is bit-identical
// to running that query alone.
func (pl *Pool[K]) SelectMany(queries []ShardQuery[K]) []BatchResult[K] {
	out := make([]BatchResult[K], len(queries))
	fanout.Run(len(queries), pl.max, func(i int) {
		out[i].Result, out[i].Err = pl.Select(queries[i].Shards, queries[i].Rank)
	})
	return out
}
