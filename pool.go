package parsel

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// PoolOptions configures a Pool.
type PoolOptions struct {
	// MaxMachines bounds the number of resident Selectors (simulated
	// machines) the pool will hold at once. Calls beyond this many
	// concurrent queries block until a machine frees up. 0 means 4;
	// NewPool refuses a negative value.
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
// out, run the query on it, check it back in. Over(shards) binds the
// named Verbs to Run (pool.Over(shards).Median(ctx)). No query writes
// the caller's shards.
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
//     multi-value verbs' results) are caller-owned copies, safe to
//     retain.
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

// NewPool builds a serving pool for opts, which apply to every resident
// Selector; each query's shard count picks its machine shape. No machine
// is built until the first query.
func NewPool[K cmp.Ordered](opts Options, po PoolOptions) (*Pool[K], error) {
	if po.MaxMachines < 0 {
		return nil, fmt.Errorf("parsel: PoolOptions.MaxMachines must be >= 0, got %d", po.MaxMachines)
	}
	po = po.withDefaults()
	// Validate the options once, eagerly, with a throwaway
	// one-processor parameter set, so a misconfigured pool fails at
	// construction rather than on first use.
	if _, err := opts.params(1); err != nil {
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
// point). A nil context means wait forever, as Warm does.
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
		sel, err := newSelector[K](pl.opts, procs)
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
// with. Callers use it to fingerprint a pool — e.g. to stamp snapshots with the
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
	if count < 0 {
		return fmt.Errorf("parsel: Warm count must be >= 0, got %d", count)
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
	return pl.run(ctx, shards, nil, q)
}

// run is Run with a resident Dataset's hints; see Selector.run.
func (pl *Pool[K]) run(ctx context.Context, shards [][]K, h *hints[K], q Query) (Answer[K], error) {
	sel, err := pl.checkout(ctx, len(shards))
	if err != nil {
		return Answer[K]{}, err
	}
	defer pl.checkin(sel)
	a, err := sel.run(shards, h, q)
	if q.Op == OpQuantiles || q.Op == OpRanks {
		a.Values = slices.Clone(a.Values) // arena-backed until the Selector's next call
	}
	return a, err
}

// Over returns the named queries over shards, each answered by Run
// under its ctx; see Run.
func (pl *Pool[K]) Over(shards [][]K) Verbs[K] {
	return func(ctx context.Context, q Query) (Answer[K], error) {
		return pl.Run(ctx, shards, q)
	}
}
