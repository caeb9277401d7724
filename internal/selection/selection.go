// Package selection implements the paper's four parallel selection
// algorithms for coarse-grained machines (§3):
//
//	Alg. 1  Median of Medians   (deterministic, needs load balancing)
//	Alg. 2  Bucket-Based        (deterministic, no load balancing)
//	Alg. 3  Randomized          (parallel Floyd–Rivest)
//	Alg. 4  Fast Randomized     (Rajasekaran-style sampling, O(log log n)
//	                             iterations with high probability)
//
// plus the hybrid variants of §5 (deterministic parallel structure with
// randomized sequential kernels). All algorithms are iterative: each
// iteration estimates a pivot, counts elements below/equal to it with a
// Combine, discards one side, and optionally rebalances the surviving
// elements. When the surviving population drops to p^2 or below, the
// remainder is gathered on processor 0 and solved sequentially.
//
// Deviations from the paper: partitions are three-way, enabling an early
// exit when the pivot itself is the answer (necessary for termination on
// duplicate-heavy inputs), and the fast randomized algorithm falls back
// to one single-pivot step whenever a sampling iteration fails to shrink
// the population. Unless Options.Faithful is set, fast randomized
// selection also gathers small samples on processor 0 instead of
// parallel-sorting them and caps its rank-window slack; the harness's
// ablate experiment quantifies both.
package selection

import (
	"cmp"
	"fmt"

	"parsel/internal/balance"
	"parsel/internal/comm"
	"parsel/internal/machine"
	"parsel/internal/seq"
)

// Algorithm identifies a parallel selection algorithm. The constants
// are numbered as parsel.Algorithm numbers them, default first, so the
// two convert by a cast; Algorithms and AllAlgorithms list them in the
// paper's order.
type Algorithm int

const (
	// FastRandomized is Alg. 4, the default.
	FastRandomized Algorithm = iota
	// Randomized is Alg. 3.
	Randomized
	// MedianOfMedians is Alg. 1.
	MedianOfMedians
	// BucketBased is Alg. 2. It ignores Options.Balancer: the bucketed
	// representation is local by construction and the algorithm is
	// designed to not need balancing.
	BucketBased
	// MedianOfMediansHybrid is Alg. 1 with the sequential kernels
	// (local medians, median of medians, final solve) replaced by
	// Floyd–Rivest selection — the hybrid experiment of §5.
	MedianOfMediansHybrid
	// BucketBasedHybrid is Alg. 2 with randomized sequential kernels.
	BucketBasedHybrid
)

// Algorithms lists the paper's four primary algorithms.
var Algorithms = []Algorithm{MedianOfMedians, BucketBased, Randomized, FastRandomized}

// AllAlgorithms additionally includes the hybrid variants.
var AllAlgorithms = []Algorithm{
	MedianOfMedians, BucketBased, Randomized, FastRandomized,
	MedianOfMediansHybrid, BucketBasedHybrid,
}

// String returns the name used in harness output.
func (a Algorithm) String() string {
	switch a {
	case MedianOfMedians:
		return "mom"
	case BucketBased:
		return "bucket"
	case Randomized:
		return "rand"
	case FastRandomized:
		return "fastrand"
	case MedianOfMediansHybrid:
		return "mom-hybrid"
	case BucketBasedHybrid:
		return "bucket-hybrid"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a selection run. The zero value is the library
// default: FastRandomized with ModifiedOMLB balancing.
type Options struct {
	// Algorithm picks the parallel selection algorithm.
	Algorithm Algorithm
	// Balancer is applied at the end of every iteration (None disables;
	// BucketBased always behaves as None).
	Balancer balance.Method
	// MaxIterations caps the iteration count before falling back to a
	// gather-and-solve (a safety net; unreachable on sane inputs).
	// SelectMany counts rounds against it. 0 means 200.
	MaxIterations int
	// Faithful makes the fast randomized algorithm follow the paper's
	// Alg. 4 exactly: the sample is parallel-sorted on every iteration
	// and the rank window uses the uncapped sqrt(|S| ln n) slack. By
	// default (false) small samples (<= 4p^2 keys) are instead gathered
	// on processor 0, which picks the two window keys with two
	// sequential selections, and the slack is capped at |S|/8 — both
	// cheaper, at the price of diverging from the paper's cost profile.
	// The harness sets Faithful to reproduce the paper's figures; the
	// ablate experiment quantifies the difference.
	Faithful bool
	// RecordTrace appends one IterTrace per pivot iteration to
	// Stats.Trace (costs memory only; simulated time is unaffected).
	RecordTrace bool
	// AscendingInput promises that local is in ascending order (every
	// key <= its successor; see seq.Ascending). Fast randomized
	// selection's first step-5 filter then finds its window by binary
	// search instead of a scan. Host cost only: every answer and
	// simulated metric is unchanged. Other algorithms ignore it.
	AscendingInput bool
}

// withDefaults fills in a zero MaxIterations.
func (o Options) withDefaults() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 200
	}
	return o
}

// Stats reports what one processor observed during a selection run.
type Stats struct {
	// Iterations is the number of parallel pivot iterations executed
	// (rounds, for SelectMany).
	Iterations int
	// Unsuccessful counts fast randomized iterations whose sample
	// window missed the target rank (the paper's "unsuccessful"
	// iterations; the §3.4 modification still makes them discard data).
	Unsuccessful int
	// Stalled counts iterations that failed to shrink the population
	// and triggered the single-pivot fallback step.
	Stalled int
	// CapHit records that MaxIterations was reached and the run
	// finished by gathering early.
	CapHit bool
	// PivotExit records that the run ended early because a pivot was
	// proven to be the answer.
	PivotExit bool
	// BalanceSeconds is the simulated time this processor spent inside
	// load balancing.
	BalanceSeconds float64
	// FinalGatherElems is the number of elements gathered for the
	// sequential finish (set on processor 0 only).
	FinalGatherElems int64
	// Trace holds one record per iteration when Options.RecordTrace is
	// set.
	Trace []IterTrace
}

// IterTrace describes the state at the end of one pivot iteration on
// this processor.
type IterTrace struct {
	// Population is the global number of surviving elements.
	Population int64
	// Rank is the target rank within the surviving population.
	Rank int64
	// Local is this processor's surviving element count.
	Local int
	// SimSeconds is the processor's simulated clock at the end of the
	// iteration.
	SimSeconds float64
	// BalanceSeconds is the cumulative simulated time spent balancing.
	BalanceSeconds float64
}

// record appends a trace entry if tracing is on.
func (st *Stats) record(p *machine.Proc, opts Options, n, rank int64, local int) {
	if !opts.RecordTrace {
		return
	}
	st.Trace = append(st.Trace, IterTrace{
		Population:     n,
		Rank:           rank,
		Local:          local,
		SimSeconds:     p.Now(),
		BalanceSeconds: st.BalanceSeconds,
	})
}

// selector finds the k-th smallest element of a slice in place.
type selector[K cmp.Ordered] func(a []K, k int) (K, int64)

// Select returns the element of 1-based rank among the union of all
// processors' local slices. It must be called collectively; every
// processor receives the same result. local is only read: fast
// randomized selection on p > 1 scans it in place, and every other
// algorithm, like every run on one processor, first copies it into the
// processor's arena (host cost only — the simulated model never charged
// for the copy). Every key travels as one machine.WordBytes word.
func Select[K cmp.Ordered](p *machine.Proc, local []K, rank int64, opts Options) (K, Stats) {
	return SelectPrefix(p, local, rank, opts, nil)
}

// SelectPrefix is Select with a memo of fast randomized selection's
// rank-independent prefix (see Prefix): a fresh memo records this run's
// prefix, a sealed one is replayed instead of running it, and nil runs
// plainly. Every processor of the run must be given the same memo.
// Other algorithms, and runs on one processor, ignore it.
func SelectPrefix[K cmp.Ordered](p *machine.Proc, local []K, rank int64, opts Options, pre *Prefix[K]) (K, Stats) {
	opts = opts.withDefaults()
	st := &Stats{}
	if opts.Algorithm != FastRandomized || p.Procs() == 1 {
		pre = nil
	}
	var n int64
	if pre.Replays() {
		n = pre.n
	} else {
		n = comm.CombineInt64(p, int64(len(local)))
	}
	if n == 0 {
		panic("selection: Select on an empty population")
	}
	if rank < 1 || rank > n {
		panic(fmt.Sprintf("selection: rank %d out of range [1,%d]", rank, n))
	}
	if opts.Algorithm != FastRandomized || p.Procs() == 1 {
		// Fast randomized selection on p > 1 never writes its input: its
		// step-5 filter copies the survivors into arena buffers or, on
		// an ascending slice, keeps them as a view that nothing writes.
		// All other paths partition local in place, so they work on a
		// copy.
		local = arenaOf[K](p).copyIn(local)
	}

	det := func(a []K, k int) (K, int64) { return seq.SelectBFPRT(a, k) }
	rnd := func(a []K, k int) (K, int64) { return seq.Quickselect(a, k, p.Local) }

	if p.Procs() == 1 {
		// Single processor: the parallel structure degenerates, solve
		// directly with the algorithm's sequential kernel.
		sel := det
		switch opts.Algorithm {
		case Randomized, FastRandomized, MedianOfMediansHybrid, BucketBasedHybrid:
			sel = rnd
		}
		v, ops := sel(local, int(rank-1))
		p.Charge(ops)
		st.FinalGatherElems = n
		return v, *st
	}

	var res K
	switch opts.Algorithm {
	case MedianOfMedians:
		res = selectMoM(p, local, rank, n, opts, st, det)
	case MedianOfMediansHybrid:
		res = selectMoM(p, local, rank, n, opts, st, rnd)
	case BucketBased:
		res = selectBucket(p, local, rank, n, opts, st, det)
	case BucketBasedHybrid:
		res = selectBucket(p, local, rank, n, opts, st, rnd)
	case Randomized:
		res = selectRandomized(p, local, rank, n, opts, st, rnd)
	case FastRandomized:
		res = selectFastRandomized(p, local, rank, n, opts, st, rnd, pre)
	default:
		panic(fmt.Sprintf("selection: unknown algorithm %d", int(opts.Algorithm)))
	}
	return res, *st
}

// threshold is the population size at which iteration stops and the
// remainder is solved sequentially on processor 0 (the paper's p^2).
func threshold(p *machine.Proc) int64 {
	pp := int64(p.Procs())
	return pp * pp
}

// finalSolve gathers the surviving elements on processor 0, selects the
// rank-th smallest there, and broadcasts the answer.
func finalSolve[K cmp.Ordered](p *machine.Proc, local []K, rank int64, opts Options, st *Stats, sel selector[K]) K {
	ar := arenaOf[K](p)
	all, gbuf := comm.GatherFlatInto(p, local, machine.WordBytes, ar.gather)
	ar.gather = gbuf
	var res []K
	if p.ID() == 0 {
		st.FinalGatherElems = int64(len(all))
		v, ops := sel(all, int(rank-1))
		p.Charge(ops)
		res = append(ar.kbuf[:0], v)
		ar.kbuf = res
	}
	return comm.BroadcastSlice(p, 0, res, machine.WordBytes)[0]
}

// counts carries the (less, equal) tallies through a Combine.
type counts struct{ less, eq int64 }

// combineCounts sums per-processor partition tallies across the machine
// (an allocation-free all-reduce of the two tallies in one message per
// tree edge, as the generic Combine of a counts struct was).
func combineCounts(p *machine.Proc, less, eq int64) counts {
	l, e := comm.CombineSumInt64Pair(p, less, eq, 2*machine.WordBytes)
	return counts{l, e}
}

// owned carries a possibly-present value through a Combine so that the
// unique owner of a pivot can deliver it to everyone in one collective.
type owned[K any] struct {
	has bool
	val K
}

// combineOwned resolves the value held by exactly one processor.
func combineOwned[K any](p *machine.Proc, mine owned[K]) K {
	res := comm.Combine(p, mine, machine.WordBytes+1, func(a, b owned[K]) owned[K] {
		if a.has {
			return a
		}
		return b
	})
	if !res.has {
		panic("selection: no processor owned the pivot")
	}
	return res.val
}

// runBalance applies the configured balancer and accounts its simulated
// time on this processor. asc reports that local is ascending, and buf
// is a window buffer that does not back local: a processor that receives
// keys assembles its new shard there, and one that receives nothing keeps
// a capped view of local. It returns the new local, whether it is
// ascending, and whether it was assembled in *buf — when it was, its
// order was checked as it was copied, so a false flag is exact.
func runBalance[K cmp.Ordered](p *machine.Proc, local []K, asc bool, buf *[]K, opts Options, st *Stats) (out []K, outAsc, moved bool) {
	if opts.Balancer == balance.None {
		return local, asc, false
	}
	t0 := p.Now()
	out, outAsc = balance.RunScratch(p, local, asc, opts.Balancer, buf, &arenaOf[K](p).bal)
	st.BalanceSeconds += p.Now() - t0
	return out, outAsc, len(out) > 0 && cap(*buf) > 0 && &out[0] == &(*buf)[:1][0]
}

// decide applies the paper's step 6 to three-way counts. It returns the
// side to keep: -1 for the < side, 0 when the pivot is the answer, +1 for
// the > side, along with the updated rank and population.
func decide(rank, n int64, c counts) (side int, newRank, newN int64) {
	switch {
	case rank <= c.less:
		return -1, rank, c.less
	case rank <= c.less+c.eq:
		return 0, rank, n
	default:
		return +1, rank - c.less - c.eq, n - c.less - c.eq
	}
}
