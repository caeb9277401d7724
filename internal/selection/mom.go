package selection

import (
	"cmp"

	"parsel/internal/comm"
	"parsel/internal/machine"
	"parsel/internal/seq"
)

// selectMoM is Alg. 1, the median of medians algorithm: every iteration
// each processor finds the median of its local elements, the medians are
// gathered on processor 0, their median becomes the estimated global
// median, everyone partitions against it, and a Combine decides which
// side survives. The guaranteed-fraction property of the median of
// medians bounds the iteration count by O(log n).
//
// sel is the sequential selection kernel: deterministic BFPRT for the
// paper's Alg. 1, Floyd–Rivest for the §5 hybrid.
func selectMoM[K cmp.Ordered](p *machine.Proc, local []K, rank, n int64, opts Options, st *Stats, sel selector[K]) K {
	ar := arenaOf[K](p)
	thr := threshold(p)
	// curWin tracks which arena window buffer currently backs local; the
	// out-of-place partition streams target the other two.
	curWin := -1
	for n > thr {
		if st.Iterations >= opts.MaxIterations {
			st.CapHit = true
			break
		}
		st.Iterations++

		// Step 1: local median (processors that ran out of elements
		// contribute nothing).
		var meds []K
		if len(local) > 0 {
			m, ops := sel(local, seq.MedianIndex(len(local)))
			p.Charge(ops)
			meds = append(ar.kbuf[:0], m)
			ar.kbuf = meds
		}

		// Steps 2–3: gather medians on P0, find their median, broadcast.
		all, gbuf := comm.GatherFlatInto(p, meds, machine.WordBytes, ar.gather)
		ar.gather = gbuf
		var pivS []K
		if p.ID() == 0 {
			m, ops := sel(all, seq.MedianIndex(len(all)))
			p.Charge(ops)
			pivS = append(ar.kbuf[:0], m)
			ar.kbuf = pivS
		}
		piv := comm.BroadcastSlice(p, 0, pivS, machine.WordBytes)[0]

		// Step 4: one fused scan splits the local list into its two
		// candidate survivor streams out of place (both stable), at
		// exactly the partition's charged cost; the collective decision
		// then just picks a stream — no second scan over cold memory.
		// The stable order means the balancers migrate different
		// concrete elements than the scrambling partition would, so the
		// trajectory (still fully deterministic per seed) differs from
		// the pre-engine implementation's.
		tA := 0
		if curWin == 0 {
			tA = 1
		}
		tB := tA + 1
		if curWin == tB {
			tB++
		}
		lessBuf, gtBuf, lt, eq, ops := seq.PartitionTwoInto(ar.win[tA], ar.win[tB], local, piv)
		ar.win[tA] = lessBuf[:cap(lessBuf)]
		ar.win[tB] = gtBuf[:cap(gtBuf)]
		p.Charge(ops)

		// Steps 5–6: global tallies and the discard decision.
		c := combineCounts(p, int64(lt), int64(eq))
		side, newRank, newN := decide(rank, n, c)
		switch side {
		case -1:
			local = lessBuf
			curWin = tA
		case 0:
			st.PivotExit = true
			return piv
		case +1:
			local = gtBuf
			curWin = tB
		}
		rank, n = newRank, newN

		// Step 7: rebalance the survivors. A balancer that hands back
		// different storage frees the window buffer it replaced.
		prev := local
		local = runBalance(p, local, opts, st)
		if len(local) == 0 || len(prev) == 0 || &local[0] != &prev[0] {
			curWin = -1
		}
		st.record(p, opts, n, rank, len(local))
	}
	// Steps 8–9: gather the remainder and solve sequentially.
	return finalSolve(p, local, rank, opts, st, sel)
}
