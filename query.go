package parsel

import (
	"cmp"
	"context"
	"fmt"
	"slices"
)

// Op names one query of the selection surface. Every op reduces to
// "ranks → values": select, median and quantile are one rank;
// quantiles, ranks and summary are a rank set answered by one
// multi-rank run; top-k and bottom-k are one boundary rank plus a
// filtering pass.
type Op uint8

const (
	// OpSelect answers the element of 1-based rank Query.Rank.
	OpSelect Op = iota
	// OpMedian answers the element of rank ceil(n/2) (the paper's
	// median).
	OpMedian
	// OpQuantile answers the element of rank ceil(Query.Q*n) for Q in
	// (0,1], and the minimum for Q = 0.
	OpQuantile
	// OpQuantiles answers the elements at each quantile of Query.Qs in
	// one multi-rank run, aligned with Qs.
	OpQuantiles
	// OpRanks answers the elements at each 1-based rank of Query.Ranks
	// in one multi-rank run, aligned with Ranks.
	OpRanks
	// OpTopK answers the Query.K largest elements, descending.
	OpTopK
	// OpBottomK answers the Query.K smallest elements, ascending.
	OpBottomK
	// OpSummary answers Tukey's five-number summary in one multi-rank
	// run.
	OpSummary
)

// opTable is the single enumeration of the query surface. An op's
// name is its wire name: the daemon serves it at /v1/<name> and as
// the "kind" of a dataset query.
var opTable = [...]struct {
	name   string
	scalar bool // answers Answer.Value; otherwise Values (or Summary)
}{
	OpSelect:    {"select", true},
	OpMedian:    {"median", true},
	OpQuantile:  {"quantile", true},
	OpQuantiles: {"quantiles", false},
	OpRanks:     {"ranks", false},
	OpTopK:      {"topk", false},
	OpBottomK:   {"bottomk", false},
	OpSummary:   {"summary", false},
}

// Ops lists every op in table order.
func Ops() []Op {
	ops := make([]Op, len(opTable))
	for i := range ops {
		ops[i] = Op(i)
	}
	return ops
}

// ParseOp resolves a wire name to its op.
func ParseOp(name string) (Op, bool) {
	for i, e := range opTable {
		if e.name == name {
			return Op(i), true
		}
	}
	return 0, false
}

// String returns the op's wire name.
func (o Op) String() string {
	if int(o) < len(opTable) {
		return opTable[o].name
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Scalar reports whether the op answers a single element
// (Answer.Value) rather than Answer.Values or Answer.Summary.
func (o Op) Scalar() bool { return int(o) < len(opTable) && opTable[o].scalar }

// Query is one query of any op. Only the fields its op reads matter:
// Rank for OpSelect, Q for OpQuantile, Qs for OpQuantiles, Ranks for
// OpRanks, K for OpTopK and OpBottomK; OpMedian and OpSummary take
// none.
type Query struct {
	Op    Op
	Rank  int64
	Ranks []int64
	Q     float64
	Qs    []float64
	K     int
}

// Answer is the outcome of one Query.
type Answer[K cmp.Ordered] struct {
	// Value is the selected element of OpSelect, OpMedian and
	// OpQuantile, and the boundary element (rank n-k+1, or k) that
	// OpTopK and OpBottomK filter around.
	Value K
	// Values are the elements of OpQuantiles and OpRanks, aligned with
	// the request, and of OpTopK and OpBottomK, in rank order; a k = 0
	// answer is empty, not nil.
	Values []K
	// Summary is OpSummary's five-number summary.
	Summary FiveNumber[K]
	Report
}

// FiveNumber is Tukey's five-number summary of a distributed dataset.
type FiveNumber[K cmp.Ordered] struct {
	Min, Q1, Median, Q3, Max K
}

// Verbs is the named query surface over one Run: every verb builds its
// Query, runs it through the bound function and reshapes the Answer.
// It is written once here and shared by every layer. Resident datasets
// (Dataset, parselclient.RemoteDatasetOf, cluster.Dataset) embed a
// Verbs bound to their own Run; layers that take shards per query
// (Selector, Pool, parselclient.KindClient and the package itself)
// return one from Over(shards). The context bounds what the bound Run
// waits for: pool admission, or a round trip over the wire.
type Verbs[K cmp.Ordered] func(ctx context.Context, q Query) (Answer[K], error)

// verbs is Verbs under an unexported name, so a type that embeds it
// gains the eight methods without an exported, writable field.
type verbs[K cmp.Ordered] = Verbs[K]

// Select returns the element of 1-based rank among the population.
func (v Verbs[K]) Select(ctx context.Context, rank int64) (Result[K], error) {
	return asResult(v(ctx, Query{Op: OpSelect, Rank: rank}))
}

// Median returns the element of rank ceil(n/2) (the paper's median).
func (v Verbs[K]) Median(ctx context.Context) (Result[K], error) {
	return asResult(v(ctx, Query{Op: OpMedian}))
}

// Quantile returns the element of rank ceil(q*n) for q in (0,1], and
// the minimum for q = 0.
func (v Verbs[K]) Quantile(ctx context.Context, q float64) (Result[K], error) {
	return asResult(v(ctx, Query{Op: OpQuantile, Q: q}))
}

// Quantiles returns the elements at several quantiles (each in [0,1])
// in one multi-rank run, aligned with qs; see SelectRanks.
func (v Verbs[K]) Quantiles(ctx context.Context, qs []float64) ([]K, Report, error) {
	return asValues(v(ctx, Query{Op: OpQuantiles, Qs: qs}))
}

// SelectRanks returns the elements at several 1-based ranks in one
// collective run, sharing partitioning work across the ranks. The
// ranks advance together in rounds, one randomized pivot step per
// unresolved segment each, with one set of collectives per round, so
// the cost grows with the deepest rank's round count rather than with
// the number of ranks: 99 percentiles cost under twice the nine
// deciles. Ranks may repeat and appear in any order; results align
// with the request. Options.Balancer is ignored (multi-rank segments
// alias storage and cannot migrate). The result is caller-owned on
// every layer but Selector.Over, where it is backed by the Selector's
// arena until its next call.
func (v Verbs[K]) SelectRanks(ctx context.Context, ranks []int64) ([]K, Report, error) {
	return asValues(v(ctx, Query{Op: OpRanks, Ranks: ranks}))
}

// TopK returns the k largest elements in descending order, computed
// with one selection (the threshold element of rank n-k+1) plus one
// filtering pass — never a full sort. Duplicates of the threshold
// value are included only as many times as needed to return exactly k
// elements. The result is caller-owned.
func (v Verbs[K]) TopK(ctx context.Context, k int) ([]K, Report, error) {
	return asValues(v(ctx, Query{Op: OpTopK, K: k}))
}

// BottomK returns the k smallest elements in ascending order; see TopK.
func (v Verbs[K]) BottomK(ctx context.Context, k int) ([]K, Report, error) {
	return asValues(v(ctx, Query{Op: OpBottomK, K: k}))
}

// Summary computes Tukey's five-number summary in a single multi-rank
// run (roughly one selection's cost for all five statistics).
func (v Verbs[K]) Summary(ctx context.Context) (FiveNumber[K], Report, error) {
	a, err := v(ctx, Query{Op: OpSummary})
	return a.Summary, a.Report, err
}

// asResult and asValues reshape a Run outcome into the single-value
// and multi-value results of the verbs.
func asResult[K cmp.Ordered](a Answer[K], err error) (Result[K], error) {
	return Result[K]{Value: a.Value, Report: a.Report}, err
}

func asValues[K cmp.Ordered](a Answer[K], err error) ([]K, Report, error) {
	return a.Values, a.Report, err
}

// checkQuantile rejects a quantile outside [0,1], NaN included.
func checkQuantile(q float64) error {
	if !(q >= 0 && q <= 1) {
		return fmt.Errorf("%w: %g", ErrBadQuantile, q)
	}
	return nil
}

// precheck validates what a query can be refused for before any
// engine or pool state is touched: a single quantile out of range is
// reported as such even alongside other bad arguments.
func (q Query) precheck() error {
	if q.Op == OpQuantile {
		return checkQuantile(q.Q)
	}
	return nil
}

// Run answers one query over shards, running one simulated processor
// per shard; shard contents are never modified. This is the one place
// an op is reduced to the engine: a single rank, a rank set, or a
// boundary rank plus a filter.
//
// For OpQuantiles and OpRanks, Answer.Values is backed by the
// Selector's reusable arena: it is valid until the next call on this
// Selector, so callers that retain it across calls must copy it first
// (Pool.Run and Dataset.Run hand back copies).
func (s *Selector[K]) Run(shards [][]K, q Query) (Answer[K], error) {
	return s.run(shards, nil, q)
}

// run is Run with a resident Dataset's hints (nil for caller shards):
// the single-rank queries' fast randomized first iteration filters the
// shards flagged ascending by binary search, and replays the dataset's
// prefix memo (see Dataset).
func (s *Selector[K]) run(shards [][]K, h *hints[K], q Query) (Answer[K], error) {
	if err := q.precheck(); err != nil {
		return Answer[K]{}, err
	}
	if err := s.acquire(); err != nil {
		return Answer[K]{}, err
	}
	defer s.release()
	var zero Answer[K]
	switch q.Op {
	case OpSelect:
		return s.selectRank(shards, q.Rank, h)
	case OpRanks:
		return s.selectRanks(shards, q.Ranks)
	}
	n, err := population(shards)
	if err != nil {
		return zero, err
	}
	switch q.Op {
	case OpMedian:
		return s.selectRank(shards, (n+1)/2, h)
	case OpQuantile:
		return s.selectRank(shards, quantileRank(n, q.Q), h)
	case OpQuantiles:
		ranks := s.rankBuf[:0]
		for _, qv := range q.Qs {
			if err := checkQuantile(qv); err != nil {
				return zero, err
			}
			ranks = append(ranks, quantileRank(n, qv))
		}
		s.rankBuf = ranks
		return s.selectRanks(shards, ranks)
	case OpSummary:
		s.rankBuf = append(s.rankBuf[:0], 1, max(1, (n+3)/4), (n+1)/2, max(1, (3*n+3)/4), n)
		a, err := s.selectRanks(shards, s.rankBuf)
		if err != nil {
			return zero, err
		}
		v := a.Values
		a.Summary, a.Values = FiveNumber[K]{Min: v[0], Q1: v[1], Median: v[2], Q3: v[3], Max: v[4]}, nil
		return a, nil
	case OpTopK, OpBottomK:
		// One selection of the boundary rank plus one filtering pass —
		// never a full sort.
		if q.K < 0 || int64(q.K) > n {
			return zero, fmt.Errorf("%w: k=%d, population %d", ErrRankRange, q.K, n)
		}
		if q.K == 0 {
			return Answer[K]{Values: []K{}}, nil
		}
		top := q.Op == OpTopK
		rank := int64(q.K)
		if top {
			rank = n - rank + 1
		}
		a, err := s.selectRank(shards, rank, h)
		if err != nil {
			return zero, err
		}
		a.Values = collectK(shards, q.K, a.Value, top)
		return a, nil
	}
	return zero, fmt.Errorf("parsel: unknown query op %v", q.Op)
}

// population returns the total element count, or why there is nothing
// to select from.
func population[K cmp.Ordered](shards [][]K) (int64, error) {
	if len(shards) == 0 {
		return 0, ErrNoShards
	}
	var n int64
	for _, sh := range shards {
		n += int64(len(sh))
	}
	if n == 0 {
		return 0, ErrNoData
	}
	return n, nil
}

// collectK gathers everything strictly beyond the threshold (above it
// for top, below it otherwise) plus enough threshold copies to reach
// exactly k, sorted descending for top and ascending otherwise.
func collectK[K cmp.Ordered](shards [][]K, k int, threshold K, top bool) []K {
	out := make([]K, 0, k)
	for _, s := range shards {
		for _, v := range s {
			if top && v > threshold || !top && v < threshold {
				out = append(out, v)
			}
		}
	}
	for _, s := range shards {
		for _, v := range s {
			if len(out) < k && v == threshold {
				out = append(out, v)
			}
		}
	}
	if top {
		slices.SortFunc(out, func(a, b K) int { return cmp.Compare(b, a) })
	} else {
		slices.Sort(out)
	}
	return out
}

// Run answers one query through the shared default Pool for its
// (Options, K) pair, running one simulated processor per shard; shard
// contents are never modified. Repeated and concurrent package-level
// calls reuse resident machines, and results — including every
// simulated metric — are bit-identical to a dedicated Selector's. The
// shared pool holds max(4, GOMAXPROCS) machines: that many
// package-level calls run concurrently, and further ones wait for a
// machine until ctx expires (ErrPoolTimeout, see Pool.Run). Callers
// that want lifecycle control or more capacity should construct a
// Selector or Pool themselves. Multi-value answers are caller-owned.
func Run[K cmp.Ordered](ctx context.Context, shards [][]K, q Query, opts Options) (Answer[K], error) {
	if err := q.precheck(); err != nil {
		return Answer[K]{}, err
	}
	pl, done, err := defaultPool[K](opts)
	if err != nil {
		return Answer[K]{}, err
	}
	defer done()
	return pl.Run(ctx, shards, q)
}

// Over returns the named queries over shards through the shared
// default Pool; see Run.
//
//	res, err := parsel.Over(shards, parsel.Options{}).Median(ctx)
func Over[K cmp.Ordered](shards [][]K, opts Options) Verbs[K] {
	return func(ctx context.Context, q Query) (Answer[K], error) {
		return Run(ctx, shards, q, opts)
	}
}
