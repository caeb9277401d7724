package selection

import (
	"cmp"

	"parsel/internal/comm"
	"parsel/internal/machine"
	"parsel/internal/seq"
)

// randomizedStep performs one iteration of Alg. 3: all processors draw
// the same uniform position nr in [0, n) from the shared random stream, a
// parallel prefix identifies the processor holding the nr-th element in
// processor order, that element becomes the pivot, and the usual
// partition/Combine/discard follows.
//
// It returns the surviving local slice, updated rank and population, and
// (done, answer) when the pivot itself was proven to be the answer.
func randomizedStep[K cmp.Ordered](p *machine.Proc, local []K, rank, n int64, opts Options) (newLocal []K, newRank, newN int64, answer K, done bool) {
	// Steps 0–1: sizes and their parallel prefix.
	ni := int64(len(local))
	s := comm.PrefixSumInt64(p, ni)

	// Step 2: the shared stream yields the same nr everywhere.
	nr := p.Shared.Int64N(n)

	// Step 3: the owner contributes the pivot.
	mine := owned[K]{}
	if nr >= s-ni && nr < s {
		mine = owned[K]{has: true, val: local[nr-(s-ni)]}
	}
	piv := combineOwned(p, mine)

	// Step 4: partition. This stays a true three-way partition rather
	// than the count-then-compact of the other algorithms: the next
	// pivot is drawn by global *position*, so the survivors' order
	// feeds back into the pivot sequence, and the partition's exact
	// permutation is part of the reproducible trajectory.
	lt, eq, ops := seq.Partition3(local, piv)
	p.Charge(ops)

	// Steps 5–6: tallies and decision.
	c := combineCounts(p, int64(lt), int64(eq))
	side, newRank, newN := decide(rank, n, c)
	switch side {
	case -1:
		return local[:lt], newRank, newN, piv, false
	case 0:
		return local, rank, n, piv, true
	default:
		return local[lt+eq:], newRank, newN, piv, false
	}
}

// selectRandomized is Alg. 3, the parallel randomized (Floyd–Rivest
// style) selection: expected O(log n) single-pivot iterations.
func selectRandomized[K cmp.Ordered](p *machine.Proc, local []K, rank, n int64, opts Options, st *Stats, sel selector[K]) K {
	ar := arenaOf[K](p)
	thr := threshold(p)
	// curWin tracks which arena window buffer backs local (-1: the
	// arena's copy of the caller's shard), so that a balancer assembling
	// a new shard targets another.
	curWin := -1
	for n > thr {
		if st.Iterations >= opts.MaxIterations {
			st.CapHit = true
			break
		}
		st.Iterations++

		var piv K
		var done bool
		local, rank, n, piv, done = randomizedStep(p, local, rank, n, opts)
		if done {
			return piv
		}

		// Step 7: rebalance the survivors.
		free := freeWin(curWin)
		var moved bool
		local, _, moved = runBalance(p, local, false, &ar.win[free], opts, st)
		if moved {
			curWin = free
		}
		st.record(p, opts, n, rank, len(local))
	}
	// Steps 8–9 (labelled 7–8 in the paper's listing): gather and solve.
	return finalSolve(p, local, rank, opts, st, sel)
}
