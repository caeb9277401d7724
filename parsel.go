// Package parsel is a library of practical selection algorithms for
// coarse-grained parallel machines, reproducing Al-Furaih, Aluru, Goil and
// Ranka, "Practical Algorithms for Selection on Coarse-Grained Parallel
// Computers" (IPPS 1996).
//
// Given a dataset sharded across p (simulated) processors, parsel finds
// the element of any rank — median, quantiles, extremes — without sorting,
// using one of four parallel algorithms (two deterministic, two
// randomized) and optionally one of four dynamic load balancers. The
// processors are coroutines connected by a virtual crossbar of FIFO links
// whose communication is priced with the paper's two-level (tau, mu)
// cost model, so results carry both a wall-clock time and a simulated
// parallel time that reproduces the paper's CM-5 measurements in shape.
// One query's processors share one host thread; concurrent queries on
// separate machines (a Pool) run in parallel.
//
// Quick start:
//
//	ctx := context.Background()
//	shards := [][]int64{{9, 1, 5}, {3, 7, 2}}       // 2 processors
//	res, err := parsel.Over(shards, parsel.Options{}).Select(ctx, 3)
//	// res.Value == 3, the 3rd smallest of {1,2,3,5,7,9}
//
// Every query is a Query answered by one Run per layer. The eight named
// queries — Select, Median, Quantile, Quantiles, SelectRanks, TopK,
// BottomK and Summary — are the methods of Verbs, written once over
// Run: a resident Dataset carries them directly (ds.Median(ctx)), and
// every layer that takes shards per query returns them from Over
// (parsel.Over, Selector.Over, Pool.Over).
//
// The Options zero value picks the paper's overall winner: fast
// randomized selection with modified order-maintaining load balancing on
// a CM-5-like machine. Every query runs one simulated processor per
// shard, and the machine's prices are the CM-5's own (see Machine).
//
// # Reusing a Selector
//
// Building the simulated machine — link fabric, processor coroutines,
// random streams, scratch arenas — costs more than a small query.
// Callers that issue many selections (a latency dashboard, a quantile
// service) should construct a Selector once and reuse it: the
// machine persists across calls, per-processor scratch memory is
// recycled, and the hot path stays allocation-light. Results, including
// the simulated metrics, are bit-identical to the package-level queries.
//
//	sel, err := parsel.NewSelector[int64](parsel.Options{})
//	defer sel.Close()
//	for _, shards := range workload {
//		res, err := sel.Over(shards).Select(ctx, rank)   // no machine rebuild
//		...
//	}
//
// No query writes the caller's shards. The default algorithm, fast
// randomized selection, reads them in place, so a single-rank query
// (Select, Median, Quantile, TopK) costs no shard copy; the other
// algorithms and the multi-rank queries partition in place and first
// copy each shard into the processor's arena.
package parsel

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"parsel/internal/balance"
	"parsel/internal/machine"
	"parsel/internal/selection"
)

// Algorithm selects the parallel selection algorithm (paper §3).
type Algorithm int

const (
	// FastRandomized is Alg. 4: O(log log n) sampling iterations; the
	// paper's recommendation for all input distributions. The default.
	FastRandomized Algorithm = iota
	// Randomized is Alg. 3: single random pivot per iteration; fastest
	// on well-behaved (random) data.
	Randomized
	// MedianOfMedians is Alg. 1: deterministic; an order of magnitude
	// slower than the randomized algorithms but worst-case O(log n)
	// iterations with certainty.
	MedianOfMedians
	// BucketBased is Alg. 2: deterministic with local bucket
	// preprocessing; the faster deterministic choice, needing no load
	// balancing.
	BucketBased
	// MedianOfMediansHybrid and BucketBasedHybrid keep the
	// deterministic parallel structure but use randomized sequential
	// kernels (the §5 hybrid experiment).
	MedianOfMediansHybrid
	// BucketBasedHybrid is the bucket-based hybrid; see
	// MedianOfMediansHybrid.
	BucketBasedHybrid
)

// String names the algorithm as in the paper's figures.
func (a Algorithm) String() string { return selection.Algorithm(a).String() }

// Balancer selects the dynamic load-balancing strategy (paper §4).
type Balancer int

const (
	// ModifiedOMLB retains min(ni, navg) locally and moves only the
	// excess (Alg. 5) — the paper's best partner for fast randomized
	// selection on adversarial data. The default.
	ModifiedOMLB Balancer = iota
	// NoBalance disables balancing — the paper's best choice for
	// randomized selection and for random data generally.
	NoBalance
	// OMLB preserves the global element order while balancing (§4.1).
	OMLB
	// DimensionExchange balances pairwise along hypercube dimensions
	// (Alg. 6).
	DimensionExchange
	// GlobalExchange pairs the fullest processors with the emptiest
	// (Alg. 7).
	GlobalExchange
)

// String names the balancer as in the paper's figures.
func (b Balancer) String() string { return balance.Method(b).String() }

// Topology selects the interconnection network used to price messages.
// The paper's model is the distance-independent crossbar (§2.1); the
// other shapes add a per-hop latency so the crossbar abstraction can be
// stress-tested.
type Topology int

const (
	// TopologyCrossbar is the paper's model (the default).
	TopologyCrossbar Topology = iota
	// TopologyHypercube routes along differing rank bits.
	TopologyHypercube
	// TopologyMesh2D routes X-then-Y on a near-square grid.
	TopologyMesh2D
	// TopologyRing routes along the shorter arc of a cycle.
	TopologyRing
)

// String names the topology.
func (t Topology) String() string { return machine.Topology(t).String() }

// Machine describes the simulated coarse-grained machine. It has one
// processor per shard of the query it runs, and it prices work as the
// paper's CM-5 does, the same on every machine: a message costs a 100
// microsecond start-up overhead (tau) plus its bytes at 8 MB/s per link
// (mu), and a counted element operation costs 10 cycles at 33 MHz
// (memory-bound kernels). The zero value of each field is replaced by
// its default.
type Machine struct {
	// Seed drives every random stream (default 1).
	Seed uint64
	// Topology prices messages by routing distance (default crossbar,
	// the paper's model).
	Topology Topology
	// PerHop is the extra latency per hop beyond the first for
	// non-crossbar topologies (default tau/20, wormhole-like).
	PerHop time.Duration
}

// Options configures every query. The zero value means: fast
// randomized selection with modified OMLB balancing on a CM-5-like
// machine with one processor per shard. Fast randomized selection draws
// the paper's n^0.6-key sample per iteration and brackets the target
// rank with its sqrt(|S| ln n) rank slack. Every algorithm stops after
// 200 pivot iterations (multi-rank queries: 200 rounds) and gathers
// what is left, a safety net no sane input reaches. An Algorithm or
// Balancer outside its constants is an error from NewSelector, NewPool
// and Balance.
type Options struct {
	// Algorithm picks the selection algorithm (default FastRandomized).
	Algorithm Algorithm
	// Balancer picks the load balancer (default ModifiedOMLB; ignored
	// by the bucket-based algorithms, which never balance).
	Balancer Balancer
	// Machine configures the simulated hardware.
	Machine Machine
	// Faithful forces the fast randomized algorithm to follow the
	// paper's Alg. 4 exactly (parallel sample sort every iteration,
	// uncapped rank-window slack). Leave false for best performance;
	// set for paper-faithful runs.
	Faithful bool
}

// Report describes one collective run.
type Report struct {
	// SimSeconds is the simulated parallel time (the paper's metric):
	// the maximum over processors of communication plus priced
	// computation.
	SimSeconds float64
	// BalanceSeconds is the simulated time spent inside load balancing
	// (maximum over processors).
	BalanceSeconds float64
	// WallSeconds is the host wall-clock time of the run.
	WallSeconds float64
	// Iterations is the number of parallel pivot iterations; for
	// multi-rank runs, the number of rounds, each of which advances
	// every unresolved rank's segment by one pivot step.
	Iterations int
	// Unsuccessful counts fast randomized iterations whose sample
	// window missed the target rank.
	Unsuccessful int
	// Messages and Bytes total the point-to-point traffic across all
	// processors.
	Messages int64
	// Bytes is the total number of bytes sent across all processors.
	Bytes int64
}

// Result is a selection outcome.
type Result[K cmp.Ordered] struct {
	Value K
	Report
}

// errors returned by argument validation.
var (
	ErrNoData      = errors.New("parsel: no elements")
	ErrRankRange   = errors.New("parsel: rank out of range")
	ErrNoShards    = errors.New("parsel: need at least one shard")
	ErrBadQuantile = errors.New("parsel: quantile must be in [0,1]")
)

// errors returned by lifecycle misuse of a Selector or Pool. Both are
// detected and reported rather than corrupting engine state.
var (
	// ErrSelectorClosed is returned by every Selector method called
	// after Close.
	ErrSelectorClosed = errors.New("parsel: Selector used after Close")
	// ErrSelectorBusy is returned when two goroutines call into one
	// Selector at the same time; a Selector serves one call at a time
	// (use a Pool for concurrent serving).
	ErrSelectorBusy = errors.New("parsel: concurrent call on a Selector (use a Pool to serve multiple goroutines)")
	// ErrPoolClosed is returned by every Pool method called after Close.
	ErrPoolClosed = errors.New("parsel: Pool used after Close")
	// ErrPoolTimeout is returned by a pool-backed query (Pool, Dataset
	// and the package-level queries) when every machine stays busy
	// until the context expires: the query was
	// never admitted (no partial work happened). The returned error also
	// matches the context's own verdict (context.DeadlineExceeded or
	// context.Canceled) under errors.Is.
	ErrPoolTimeout = errors.New("parsel: pool admission timed out waiting for a free machine")
)

// Selector is a reusable selection engine: the simulated machine — link
// fabric, parked processor coroutines, per-processor random streams and
// scratch arenas — is constructed once and serves repeated queries. Run
// answers any Query and is the one place an op meets the engine, and
// Over binds the named Verbs to it for one set of shards. No query
// writes the caller's shards.
// For a fixed seed and inputs, every simulated metric (SimSeconds,
// Iterations, Messages, Bytes) is identical to the package-level
// queries; only host-side cost differs.
//
// A Selector is not safe for concurrent use, but misuse is detected
// rather than corrupting state: a method entered while another call is
// in flight returns ErrSelectorBusy, and any method called after Close
// returns ErrSelectorClosed. Callers that need to serve many goroutines
// should use a Pool, which checks Selectors in and out safely.
type Selector[K cmp.Ordered] struct {
	opts     Options
	procs    int // machine size; before the first call, the shape a Pool filed it under
	m        *machine.Machine
	vals     []K
	many     [][]K
	stats    []selection.Stats
	counters []machine.Counters
	rankBuf  []int64 // reusable rank staging for OpQuantiles and OpSummary

	// mu guards the lifecycle state so concurrent misuse is reported
	// (ErrSelectorBusy / ErrSelectorClosed) instead of racing, and so a
	// Close racing an in-flight call defers the machine teardown until
	// the call returns. The lock is held only for the state transition,
	// never across a selection.
	mu           sync.Mutex
	state        int8 // idle / busy / closed
	closePending bool // Close arrived mid-call; release finishes it
}

// Selector lifecycle states.
const (
	selectorIdle int8 = iota
	selectorBusy
	selectorClosed
)

// acquire marks the Selector as serving one call, or reports why it
// cannot.
func (s *Selector[K]) acquire() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case selectorBusy:
		return ErrSelectorBusy
	case selectorClosed:
		return ErrSelectorClosed
	}
	s.state = selectorBusy
	return nil
}

// release returns the Selector to idle after a call, or completes a
// Close that arrived while the call was in flight.
func (s *Selector[K]) release() {
	s.mu.Lock()
	if s.closePending {
		s.closePending = false
		s.state = selectorClosed
		m := s.m
		s.mu.Unlock()
		if m != nil {
			m.Close()
		}
		return
	}
	s.state = selectorIdle
	s.mu.Unlock()
}

// agreementChecks enables the cross-processor result assertion: every
// simulated processor of a collective run must report the same value(s).
// It is switched on by tests (see export_test.go); the check is pure host
// work and does not affect simulated metrics.
var agreementChecks = false

// disagreement returns the index of the first value differing from
// vals[0], or ok=true when all processors agree.
func disagreement[K cmp.Ordered](vals []K) (proc int, ok bool) {
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[0] {
			return i, false
		}
	}
	return 0, true
}

// NewSelector builds a reusable engine for opts. The machine is built
// on the first call, with one processor per shard; a later call whose
// shard count differs transparently rebuilds it for the new size, so
// the amortized benefit accrues to runs of same-shaped calls.
func NewSelector[K cmp.Ordered](opts Options) (*Selector[K], error) {
	return newSelector[K](opts, 0)
}

// newSelector is NewSelector for a Selector whose Procs reports procs
// until its first call builds a machine: a Pool files a new Selector
// under the shape it was created for, even when its first query fails
// before the build.
func newSelector[K cmp.Ordered](opts Options, procs int) (*Selector[K], error) {
	if _, err := opts.params(1); err != nil {
		return nil, err
	}
	return &Selector[K]{opts: opts, procs: procs}, nil
}

// rebuild constructs the machine and result arrays for p processors.
func (s *Selector[K]) rebuild(p int) error {
	params, err := s.opts.params(p)
	if err != nil {
		return err
	}
	m, err := machine.New(params)
	if err != nil {
		return err
	}
	if s.m != nil {
		s.m.Close()
	}
	s.m, s.procs = m, p
	s.vals = make([]K, p)
	s.many = make([][]K, p)
	s.stats = make([]selection.Stats, p)
	s.counters = make([]machine.Counters, p)
	return nil
}

// ensure adapts the engine to a call with p shards, building the machine
// on first use.
func (s *Selector[K]) ensure(p int) error {
	if s.m != nil && s.procs == p {
		return nil
	}
	return s.rebuild(p)
}

// Close stops the engine's processor coroutines. Every later method call
// returns ErrSelectorClosed. Closing is optional (dropped Selectors are
// cleaned up by the runtime) but deterministic, and Close is idempotent.
// A Close that races an in-flight call is safe: the call completes
// normally and the engine is torn down as it returns.
func (s *Selector[K]) Close() {
	s.mu.Lock()
	switch s.state {
	case selectorClosed:
		s.mu.Unlock()
		return
	case selectorBusy:
		s.closePending = true
		s.mu.Unlock()
		return
	}
	s.state = selectorClosed
	m := s.m
	s.mu.Unlock()
	if m != nil {
		m.Close()
	}
}

// Procs returns the current machine size (0 before the first call).
func (s *Selector[K]) Procs() int { return s.procs }

// Over returns the named queries over shards, answered by Run: one
// simulated processor per shard. The shards are only read: fast
// randomized selection scans them in place, and the other algorithms,
// like every run on one shard, copy each into its processor's arena.
// The context is unused: a Selector serves one call at a time and never
// waits. Multi-value answers of Quantiles and SelectRanks are backed by
// the Selector's arena; see Run.
func (s *Selector[K]) Over(shards [][]K) Verbs[K] {
	return func(_ context.Context, q Query) (Answer[K], error) {
		return s.Run(shards, q)
	}
}

// selectRank validates and executes one collective selection. h, when
// non-nil, carries a resident Dataset's ascending flags and prefix memo.
func (s *Selector[K]) selectRank(shards [][]K, rank int64, h *hints[K]) (Answer[K], error) {
	if err := s.prepare(shards, rank); err != nil {
		return Answer[K]{}, err
	}
	var asc []bool
	if h != nil {
		asc = h.asc
	}
	pre, capture := h.prefixMemo(s.opts.Algorithm, len(shards))
	iopts := selection.Options{
		Algorithm: selection.Algorithm(s.opts.Algorithm),
		Balancer:  balance.Method(s.opts.Balancer),
		Faithful:  s.opts.Faithful,
	}
	rep, err := s.execute(func(pr *machine.Proc) {
		o := iopts
		o.AscendingInput = asc != nil && asc[pr.ID()]
		s.vals[pr.ID()], s.stats[pr.ID()] = selection.SelectPrefix(pr, shards[pr.ID()], rank, o, pre)
		s.counters[pr.ID()] = pr.Counters
	})
	if err != nil {
		return Answer[K]{}, err
	}
	if capture {
		h.publish(pre)
	}
	if agreementChecks {
		if proc, ok := disagreement(s.vals); !ok {
			panic(fmt.Sprintf("parsel: processor %d selected %v, processor 0 selected %v",
				proc, s.vals[proc], s.vals[0]))
		}
	}
	return Answer[K]{Value: s.vals[0], Report: rep}, nil
}

// selectRanks validates and executes one multi-rank collective run. The
// returned values are backed by the Selector's arena.
func (s *Selector[K]) selectRanks(shards [][]K, ranks []int64) (Answer[K], error) {
	if err := s.prepare(shards, ranks...); err != nil {
		return Answer[K]{}, err
	}
	rep, err := s.execute(func(pr *machine.Proc) {
		s.many[pr.ID()], s.stats[pr.ID()] = selection.SelectMany(pr, shards[pr.ID()], ranks, selection.Options{})
		s.counters[pr.ID()] = pr.Counters
	})
	if err != nil {
		return Answer[K]{}, err
	}
	// Every processor of the collective must agree on every rank's value:
	// the engine returns processor 0's results, so a divergence would
	// otherwise be silently discarded.
	if agreementChecks {
		for j := range s.many[0] {
			col := make([]K, len(s.many))
			for i := range s.many {
				col[i] = s.many[i][j]
			}
			if proc, ok := disagreement(col); !ok {
				panic(fmt.Sprintf("parsel: processor %d selected %v for rank %d, processor 0 selected %v",
					proc, s.many[proc][j], ranks[j], s.many[0][j]))
			}
		}
	}
	return Answer[K]{Values: s.many[0], Report: rep}, nil
}

// prepare validates ranks against the population of shards and sizes
// the machine for them.
func (s *Selector[K]) prepare(shards [][]K, ranks ...int64) error {
	n, err := population(shards)
	if err != nil {
		return err
	}
	for _, r := range ranks {
		if r < 1 || r > n {
			return fmt.Errorf("%w: rank %d, population %d", ErrRankRange, r, n)
		}
	}
	return s.ensure(len(shards))
}

// execute runs body, which records each processor's stats and counters,
// on every processor and folds the run into one Report: maxima of the
// per-processor times and iteration counts, totals of the traffic.
func (s *Selector[K]) execute(body func(pr *machine.Proc)) (Report, error) {
	start := time.Now()
	sim, err := s.m.Run(body)
	if err != nil {
		return Report{}, err
	}
	rep := Report{SimSeconds: sim, WallSeconds: time.Since(start).Seconds()}
	for i := range s.stats {
		rep.BalanceSeconds = max(rep.BalanceSeconds, s.stats[i].BalanceSeconds)
		rep.Iterations = max(rep.Iterations, s.stats[i].Iterations)
		rep.Unsuccessful = max(rep.Unsuccessful, s.stats[i].Unsuccessful)
		rep.Messages += s.counters[i].MsgsSent
		rep.Bytes += s.counters[i].BytesSent
	}
	return rep, nil
}

// quantileRank converts a quantile to its 1-based rank ceil(q*n), clamped
// to [1, n]. The ceiling is computed exactly: the significand of q and n
// are multiplied in 128-bit integer arithmetic, so no population size
// (including n near 2^53 and beyond) can round to a neighbouring rank the
// way floating-point ceil(float64(n)*q) does.
func quantileRank(n int64, q float64) int64 {
	if q <= 0 || n <= 0 {
		return min(int64(1), n)
	}
	if q >= 1 {
		return n
	}
	// q = frac * 2^exp with frac in [0.5, 1); scale the 53-bit
	// significand out: q = m / 2^s exactly, with s = 53-exp >= 53
	// because exp <= 0 for q < 1.
	frac, exp := math.Frexp(q)
	m := uint64(frac * (1 << 53))
	s := uint(53 - exp)
	hi, lo := bits.Mul64(uint64(n), m)
	if s >= 128 {
		// n*q < 1 (subnormal q): the smallest positive rank.
		return 1
	}
	// ceil(x / 2^s) = (x + 2^s - 1) >> s in 128 bits. The product is
	// below 2^116 (63-bit n times 53-bit m), so the add cannot overflow.
	var r uint64
	if s >= 64 {
		// 2^s - 1 splits into all-ones low and 2^(s-64)-1 high.
		lo2, c := bits.Add64(lo, ^uint64(0), 0)
		hi2, _ := bits.Add64(hi, uint64(1)<<(s-64)-1, c)
		_, r = lo2, hi2>>(s-64)
	} else {
		lo2, c := bits.Add64(lo, uint64(1)<<s-1, 0)
		hi2, _ := bits.Add64(hi, 0, c)
		r = hi2<<(64-s) | lo2>>s
	}
	rank := int64(r)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// Balance redistributes shards so that every shard ends with floor(n/p)
// or ceil(n/p) elements, using the configured balancer. It returns the
// new shards and a report. Shard contents are not modified.
func Balance[K cmp.Ordered](shards [][]K, opts Options) ([][]K, Report, error) {
	p := len(shards)
	if p == 0 {
		return nil, Report{}, ErrNoShards
	}
	s, err := NewSelector[K](opts)
	if err != nil {
		return nil, Report{}, err
	}
	defer s.Close()
	if err := s.ensure(p); err != nil {
		return nil, Report{}, err
	}
	method := balance.Method(opts.Balancer)
	out := make([][]K, p)
	rep, err := s.execute(func(pr *machine.Proc) {
		local := make([]K, len(shards[pr.ID()]))
		copy(local, shards[pr.ID()])
		out[pr.ID()] = balance.Run(pr, local, method)
		s.counters[pr.ID()] = pr.Counters
	})
	if err != nil {
		return nil, Report{}, err
	}
	rep.BalanceSeconds = rep.SimSeconds
	return out, rep, nil
}

// params validates opts and converts its machine description to the
// internal parameters of a procs-processor machine. An Algorithm or
// Balancer outside its constants is an error here, before any
// processor runs.
func (o Options) params(procs int) (machine.Params, error) {
	if !slices.Contains(selection.AllAlgorithms, selection.Algorithm(o.Algorithm)) {
		return machine.Params{}, fmt.Errorf("parsel: unknown algorithm %d", int(o.Algorithm))
	}
	if !slices.Contains(balance.Methods, balance.Method(o.Balancer)) {
		return machine.Params{}, fmt.Errorf("parsel: unknown balancer %d", int(o.Balancer))
	}
	m := o.Machine
	params := machine.DefaultParams(procs)
	if m.Seed != 0 {
		params.Seed = m.Seed
	}
	params.Topology = machine.Topology(m.Topology)
	if m.PerHop > 0 {
		params.PerHopSec = m.PerHop.Seconds()
	}
	if err := params.Validate(); err != nil {
		return machine.Params{}, err
	}
	return params, nil
}
