package selection

import (
	"cmp"

	"parsel/internal/bucket"
	"parsel/internal/comm"
	"parsel/internal/machine"
	"parsel/internal/seq"
)

// selectBucket is Alg. 2, the bucket-based algorithm. Local data is
// preprocessed into O(log p) inter-ordered buckets (step 0), after which
// each iteration's local median and partition touch roughly one bucket.
// Because processors keep unequal populations (there is no load
// balancing), the estimated median is the *weighted* median of the local
// medians, each weighted by its processor's surviving element count,
// which preserves the guaranteed-fraction discard.
func selectBucket[K cmp.Ordered](p *machine.Proc, local []K, rank, n int64, opts Options, st *Stats, sel selector[K]) K {
	ar := arenaOf[K](p)
	// Step 0: bucket preprocessing.
	tab, ops := bucket.Build(local, bucket.NumBuckets(p.Procs()), bucket.Selector[K](sel))
	p.Charge(ops)

	thr := threshold(p)
	for n > thr {
		if st.Iterations >= opts.MaxIterations {
			st.CapHit = true
			break
		}
		st.Iterations++

		// Step 1: local median among the surviving elements, via the
		// bucket search.
		ni := tab.Remaining()
		var meds []K
		var wts []int64
		if ni > 0 {
			m, o := tab.Select(seq.MedianIndex(ni))
			p.Charge(o)
			meds = append(ar.kbuf[:0], m)
			ar.kbuf = meds
			wts = append(ar.wts[:0], int64(ni))
			ar.wts = wts
		}

		// Steps 2–3: gather (median, weight) pairs on P0, compute the
		// weighted median of medians, broadcast it.
		ms, gbuf := comm.GatherFlatInto(p, meds, machine.WordBytes, ar.gather)
		ar.gather = gbuf
		qs, wbuf := comm.GatherFlatInto(p, wts, machine.WordBytes, ar.wgather)
		ar.wgather = wbuf
		var pivS []K
		if p.ID() == 0 {
			wm, o := seq.WeightedMedian(ms, qs)
			p.Charge(o)
			pivS = append(ar.kbuf[:0], wm)
			ar.kbuf = pivS
		}
		piv := comm.BroadcastSlice(p, 0, pivS, machine.WordBytes)[0]

		// Step 4: partition against the estimate inside the straddling
		// bucket(s) only.
		less, eq, o := tab.Count(piv)
		p.Charge(o)

		// Steps 5–6: global tallies and the discard decision.
		c := combineCounts(p, less, eq)
		side, newRank, newN := decide(rank, n, c)
		switch side {
		case -1:
			tab.KeepLess()
		case 0:
			st.PivotExit = true
			return piv
		case +1:
			tab.KeepGreater()
		}
		rank, n = newRank, newN
		st.record(p, opts, n, rank, tab.Remaining())
	}
	// Steps 7–8: gather the survivors and solve sequentially.
	ar.sample = tab.Collect(ar.sample[:0])
	return finalSolve(p, ar.sample, rank, opts, st, sel)
}
