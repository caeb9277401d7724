package selection

import (
	"cmp"
	"fmt"
	"slices"

	"parsel/internal/comm"
	"parsel/internal/machine"
	"parsel/internal/seq"
)

// multiSeg is one disjoint population segment of a SelectMany run: this
// processor's share of the segment's data, the segment's global
// population and position in the whole population's order, and the
// target ranks (with their result positions) that fall inside it. The
// ranks and out slices are carved from the arena's bump slabs.
type multiSeg[K cmp.Ordered] struct {
	data  []K     // this processor's share of the segment
	n     int64   // global population of the segment
	base  int64   // global count of keys ordered before the segment
	ranks []int64 // target ranks within the segment, ascending
	out   []int   // result positions, aligned with ranks
}

// SelectMany returns the elements at the given 1-based ranks (in the
// order requested; duplicate ranks are allowed), sharing partitioning
// work across the ranks instead of running one selection per rank. It is
// the natural extension of the paper's randomized algorithm to
// simultaneous quantile extraction (e.g. all three quartiles in roughly
// one selection's work).
//
// The population is split into disjoint segments, each carrying the
// ranks that fall inside it, and the segments advance level-synchronously
// in rounds. In a round every live segment (population above the p^2
// threshold) takes one step of Alg. 3 with its own shared random pivot,
// and the whole level pays three collectives: a Global Concatenate of
// the per-segment local sizes (locating each pivot's owner), one Combine
// of the owned pivots, and one Combine of the per-segment (less, equal)
// tallies. Ranks hitting a pivot resolve at once; the others split
// between the two sides, which become the next level's segments. Segments
// at or below the threshold wait for the end, where one gather and one
// broadcast answer all of them: processor 0 sorts the union of their keys
// and, the segments being disjoint key ranges, finds each rank at its
// segment's offset in that union. Options.MaxIterations caps the number
// of rounds, and Stats.Iterations counts them. Load balancing is not
// applied (segments alias one another's storage), so Options.Balancer is
// ignored.
//
// local is only read: the rounds partition a copy of it in the
// processor's arena (host cost only). The returned slice is backed by
// the processor's arena and is valid until the next selection on the
// same machine.
func SelectMany[K cmp.Ordered](p *machine.Proc, local []K, ranks []int64, opts Options) ([]K, Stats) {
	opts = opts.withDefaults()
	st := &Stats{}
	n := comm.CombineInt64(p, int64(len(local)))
	if n == 0 {
		panic("selection: SelectMany on an empty population")
	}
	for _, r := range ranks {
		if r < 1 || r > n {
			panic(fmt.Sprintf("selection: rank %d out of range [1,%d]", r, n))
		}
	}
	ar := arenaOf[K](p)
	ar.mranks.reset()
	ar.mouts.reset()
	results := resize(ar.many, len(ranks))
	ar.many = results
	if len(ranks) == 0 {
		return results, *st
	}
	local = ar.copyIn(local)

	// Sort the rank set once, remembering result positions.
	order := ar.mouts.take(len(ranks))
	for i := 0; i < len(ranks); i++ {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(ranks[a], ranks[b]) })

	first := multiSeg[K]{data: local, n: n, ranks: ar.mranks.take(len(order)), out: order}
	for _, idx := range order {
		first.ranks = append(first.ranks, ranks[idx])
	}
	live, next, small := ar.mlive[:0], ar.mnext[:0], ar.msmall[:0]
	if n > threshold(p) && p.Procs() > 1 {
		live = append(live, first)
	} else {
		small = append(small, first)
	}
	for len(live) > 0 {
		if st.Iterations >= opts.MaxIterations {
			st.CapHit = true
			small = append(small, live...)
			break
		}
		st.Iterations++
		next, small = multiRound(p, ar, live, next[:0], small, results, opts)
		live, next = next, live
	}
	multiFinish(p, ar, small, results, opts, st)
	ar.mlive, ar.mnext, ar.msmall = live[:0], next[:0], small[:0]
	return results, *st
}

// multiRound advances every live segment by one shared-pivot step (as
// in Alg. 3) with three collectives for the whole level. Children above
// the threshold are appended to next, the others to small; both are
// returned. Ranks that hit a pivot are written to results.
func multiRound[K cmp.Ordered](p *machine.Proc, ar *Arena[K], live, next, small []multiSeg[K], results []K, opts Options) ([]multiSeg[K], []multiSeg[K]) {
	k := len(live)
	// Every processor learns every processor's share of every segment,
	// so each segment's pivot position (drawn from the shared stream)
	// maps to its owner without a prefix sum per segment.
	sizes := resize(ar.msizes, k)
	for i, seg := range live {
		sizes[i] = int64(len(seg.data))
	}
	ar.msizes = sizes
	var shares []int64
	shares, ar.mconcat = comm.GlobalConcatInt64Flat(p, sizes, ar.mconcat)
	own := resize(ar.mown, k)
	for i, seg := range live {
		nr := p.Shared.Int64N(seg.n)
		own[i] = owned[K]{}
		for r := 0; ; r++ {
			sz := shares[r*k+i]
			if nr < sz {
				if r == p.ID() {
					own[i] = owned[K]{has: true, val: seg.data[nr]}
				}
				break
			}
			nr -= sz
		}
	}
	ar.mown = own
	pivs := combineOwnedSlice(p, own, ar.mpivs)
	ar.mpivs = pivs

	// Partition every segment around its pivot and total the tallies.
	tally := resize(ar.mtally, 2*k)
	var ops int64
	for i, seg := range live {
		lt, eq, o := seq.Partition3Branchless(seg.data, pivs[i])
		tally[2*i], tally[2*i+1] = int64(lt), int64(eq)
		ops += o
	}
	ar.mtally = tally
	p.Charge(ops)
	var tot []int64
	tot, ar.mcomb = comm.CombineSumInt64Slice(p, tally, ar.mcomb)

	// Distribute each segment's ranks across its three regions. The
	// split sizes are counted first so each side gets an exactly sized
	// slab chunk.
	thr := threshold(p)
	for i, seg := range live {
		less, eq := tot[2*i], tot[2*i+1]
		lt, leq := tally[2*i], tally[2*i+1]
		nLo, nHi := 0, 0
		for _, r := range seg.ranks {
			switch {
			case r <= less:
				nLo++
			case r > less+eq:
				nHi++
			}
		}
		lo := multiSeg[K]{data: seg.data[:lt], n: less, base: seg.base,
			ranks: ar.mranks.take(nLo), out: ar.mouts.take(nLo)}
		hi := multiSeg[K]{data: seg.data[lt+leq:], n: seg.n - less - eq, base: seg.base + less + eq,
			ranks: ar.mranks.take(nHi), out: ar.mouts.take(nHi)}
		for j, r := range seg.ranks {
			switch {
			case r <= less:
				lo.ranks = append(lo.ranks, r)
				lo.out = append(lo.out, seg.out[j])
			case r <= less+eq:
				results[seg.out[j]] = pivs[i]
			default:
				hi.ranks = append(hi.ranks, r-less-eq)
				hi.out = append(hi.out, seg.out[j])
			}
		}
		for _, child := range [2]multiSeg[K]{lo, hi} {
			switch {
			case len(child.ranks) == 0:
			case child.n > thr:
				next = append(next, child)
			default:
				small = append(small, child)
			}
		}
	}
	return next, small
}

// multiFinish answers the ranks of every remaining segment with one
// gather and one broadcast. The segments are disjoint key ranges, so in
// the sorted union of their keys each one occupies a contiguous run,
// starting after the keys of the segments ordered before it.
func multiFinish[K cmp.Ordered](p *machine.Proc, ar *Arena[K], small []multiSeg[K], results []K, opts Options, st *Stats) {
	if len(small) == 0 {
		return // every rank hit a pivot
	}
	slices.SortFunc(small, func(a, b multiSeg[K]) int { return cmp.Compare(a.base, b.base) })
	mine := small[0].data
	if len(small) > 1 {
		stage := ar.mstage[:0]
		for _, seg := range small {
			stage = append(stage, seg.data...)
		}
		ar.mstage = stage
		mine = stage
	}
	// Arena reuse is safe: before either buffer is refilled by the next
	// selection, the root has received from every processor (gather
	// tree) and every processor has received from the root (broadcast),
	// so all cross-processor aliases of these buffers are drained.
	all, gbuf := comm.GatherFlatInto(p, 0, mine, machine.WordBytes, ar.gather)
	ar.gather = gbuf
	var vals []K
	if p.ID() == 0 {
		st.FinalGatherElems = int64(len(all))
		p.Charge(seq.Sort(all))
		vals = ar.mvals[:0]
		var off int64
		for _, seg := range small {
			for _, r := range seg.ranks {
				vals = append(vals, all[off+r-1])
			}
			off += seg.n
		}
		ar.mvals = vals
	}
	vals = comm.BroadcastSlice(p, 0, vals, machine.WordBytes)
	i := 0
	for _, seg := range small {
		for _, pos := range seg.out {
			results[pos] = vals[i]
			i++
		}
	}
}

// combineOwnedSlice resolves a round's pivots, each held by exactly one
// processor, in one Combine of the whole vector, and copies them into
// dst (grown as needed), which it returns.
func combineOwnedSlice[K any](p *machine.Proc, mine []owned[K], dst []K) []K {
	res := comm.Combine(p, mine, len(mine)*(machine.WordBytes+1), func(a, b []owned[K]) []owned[K] {
		for i := range a {
			if !a[i].has {
				a[i] = b[i]
			}
		}
		return a
	})
	dst = dst[:0]
	for _, o := range res {
		if !o.has {
			panic("selection: no processor owned the pivot")
		}
		dst = append(dst, o.val)
	}
	return dst
}

// resize returns s with length n, reallocating only when its capacity is
// short (callers overwrite every element).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
