package selection

import (
	"cmp"
	"math"

	"parsel/internal/comm"
	"parsel/internal/machine"
	"parsel/internal/psort"
	"parsel/internal/seq"
)

// The paper's Alg. 4 parameters: each iteration samples n^sampleExponent
// keys, and the sample-rank window's half-width is
// rankSlack*sqrt(|S| ln n).
const (
	sampleExponent = 0.6
	rankSlack      = 1.0
)

// windowRanks brackets the scaled target rank m = ceil(rank*S/n) with the
// slack delta of Alg. 4 step 3, returning 1-based sample ranks r1 <= r2.
//
// The paper's slack sqrt(|S| ln n) approaches |S| once the population is
// small, which stalls the geometric shrink in a long tail of iterations
// that keep ~85% of the survivors each; because the §3.4 modification
// makes window misses cheap (misses still discard one side), the
// optimized mode caps the slack at |S|/8 so every iteration keeps at
// most about a quarter of the sample range. The faithful mode uses the
// paper's uncapped slack — and consequently also reproduces the paper's
// finding that load balancing helps this algorithm on sorted inputs (the
// tail repeatedly scans survivors concentrated on few processors). See
// the package doc (deviations) and the harness's ablate experiment.
func windowRanks(rank, S, n int64, opts Options) (r1, r2 int64) {
	m := (rank*S + n - 1) / n
	delta := int64(rankSlack*math.Sqrt(float64(S)*math.Log(float64(n)))) + 1
	if cap := 1 + S/8; !opts.Faithful && delta > cap {
		delta = cap
	}
	r1 = max(1, m-delta)
	r2 = min(S, m+delta)
	return r1, r2
}

// selectFastRandomized is Alg. 4, the fast randomized algorithm of
// Rajasekaran et al.: each iteration draws an o(n) random sample, sorts
// it in parallel, and brackets the target rank between two sample keys k1
// and k2 whose sample ranks sit sqrt(|S| ln n) on either side of the
// scaled target. With high probability the answer lies in [k1, k2] and
// everything outside is discarded, giving O(log log n) iterations. When
// the window misses (an "unsuccessful" iteration), the §3.4 modification
// still discards everything on the wrong side of the window. When an
// iteration fails to shrink the population at all (possible only with
// massive duplication), one single-pivot randomized step runs instead —
// a documented termination safeguard.
//
// The first iteration up to its first read of the rank (windowRanks) is
// the rank-independent prefix that pre memoizes: a capturing run records
// each processor's state there, and a replaying run restores it in place
// of the sample draw, its sort or gather and the Combine of its size.
func selectFastRandomized[K cmp.Ordered](p *machine.Proc, local []K, rank, n int64, opts Options, st *Stats, sel selector[K], pre *Prefix[K]) K {
	ar := arenaOf[K](p)
	thr := threshold(p)
	// curWin tracks which arena window buffer currently backs local
	// (-1: none, e.g. the caller's shard or a view of it), so that each
	// iteration's out-of-place filter, and a balancer assembling a new
	// shard, targets the other one.
	curWin := -1
	// sorted reports that local is ascending. The first iteration takes
	// the caller's word for it (a resident Dataset checks its shards
	// once). Later iterations know it wherever the order was kept or
	// checked in passing — the survivors of a binary-search window are a
	// view of an ascending slice, and a balancer that assembles a new
	// shard checks its order as it copies — and recheck it otherwise:
	// after a scanning filter or the stall fallback's partition, when no
	// balancer copied the survivors.
	sorted, recheck := opts.AscendingInput, false
	for n > thr {
		if st.Iterations >= opts.MaxIterations {
			st.CapHit = true
			break
		}
		st.Iterations++
		replay := st.Iterations == 1 && pre.Replays()
		capture := st.Iterations == 1 && pre.capturing()

		// Step 1: draw |S| ~ n^sampleExponent keys, each processor
		// contributing in proportion to its surviving population.
		sTarget := int64(math.Pow(float64(n), sampleExponent))
		if sTarget < 1 {
			sTarget = 1
		}
		var sample []K
		if !replay {
			si := 0
			if ni := int64(len(local)); ni > 0 {
				// Ceil keeps the global sample non-empty and spreads it
				// across all non-empty processors.
				si = int((ni*sTarget + n - 1) / n)
			}
			var ops int64
			sample, ops = seq.SampleAppend(ar.sample, local, si, p.Local)
			ar.sample = sample
			p.Charge(ops)
		}

		// Steps 2–4: order the sample and extract the two window keys
		// k1 and k2 bracketing the scaled target rank.
		//
		// When the sample is comparable to the p^2 sequential threshold
		// it is cheaper to gather it on P0 and pick the two ranks with
		// two Floyd–Rivest selections (the paper's own "On P0, pick k1,
		// k2 from S") than to run a full parallel sort; the PSRS path
		// pays ~10 collectives per iteration and dominates at high p.
		var k1, k2 K
		if !opts.Faithful && sTarget <= int64(4*p.Procs()*p.Procs()) {
			var all []K
			if replay {
				// Quickselect permutes the gathered sample: copy it.
				_, keys := pre.restore(p)
				all = append(ar.gather[:0], keys...)
				ar.gather = all
			} else {
				var gbuf []K
				all, gbuf = comm.GatherFlatInto(p, sample, machine.WordBytes, ar.gather)
				ar.gather = gbuf
				if capture {
					pre.capture(p, n, int64(len(all)), all)
				}
			}
			var pair []K
			if p.ID() == 0 {
				r1, r2 := windowRanks(rank, int64(len(all)), n, opts)
				v1, o1 := seq.Quickselect(all, int(r1-1), p.Local)
				v2, o2 := seq.Quickselect(all, int(r2-1), p.Local)
				p.Charge(o1 + o2)
				pair = append(ar.kbuf[:0], v1, v2)
				ar.kbuf = pair
			}
			pair = comm.BroadcastSlice(p, 0, pair, machine.WordBytes)
			k1, k2 = pair[0], pair[1]
		} else {
			// Oversampling factor 8: classic PSRS's p samples per
			// processor would make the root sort p^2 keys, which
			// dwarfs the o(n) sample itself at high p.
			var run []K
			var S int64
			if replay {
				S, run = pre.restore(p)
			} else {
				run = psort.Sort(p, sample, 8, &ar.sort)
				S = comm.CombineInt64(p, int64(len(run)))
				if capture {
					pre.capture(p, n, S, run)
				}
			}
			r1, r2 := windowRanks(rank, S, n, opts)
			k1 = psort.RankElement(p, run, r1-1)
			k2 = psort.RankElement(p, run, r2-1)
		}

		// Step 5: one fused scan tallies the window regions and
		// speculatively materializes the in-window survivors out of
		// place — window hits are the overwhelmingly common outcome by
		// construction of the slack, and the originals stay intact in
		// local for the rare miss. On the first iteration local is the
		// caller's shard (Select does not copy it for this algorithm):
		// this filter only reads it, and the survivors land in an arena
		// window buffer. The scan charges exactly what the three-way
		// partition pair would; survivors keep their stable input order
		// rather than the partition's scramble, which makes the
		// positional sampling of later iterations draw a different
		// (equally deterministic) trajectory than the scrambling
		// implementation did.
		//
		// On an ascending slice the window is one contiguous run found
		// by binary search, at the same charge (host work only), and the
		// survivors are not copied at all: local becomes a view of that
		// run, or on a miss of the prefix or suffix that survives,
		// capped so that no append can run past it. Nothing writes a
		// view — no balancer writes its input, and the stall fallback
		// below copies before it partitions — so the view may be the
		// caller's read-only shard, and it leaves curWin as it was. A
		// window with k1 > k2 (a NaN key) keeps the scan.
		tgt := freeWin(curWin)
		if recheck {
			sorted = seq.Ascending(local)
		}
		fast := sorted && k1 <= k2
		var mid []K
		var nLess, nMid int
		var ops2 int64
		if fast {
			var c1, c3 int
			c1, c3, ops2 = seq.WindowAscending(local, k1, k2)
			mid, nLess, nMid = local[c1:c3:c3], c1, c3-c1
		} else {
			mid, nLess, nMid, ops2 = seq.FilterWindowCount(ar.win[tgt], local, k1, k2)
			ar.win[tgt] = mid[:cap(mid)]
		}
		p.Charge(ops2)

		// Steps 6–8: tallies and the discard decision (c.eq holds the
		// in-window count here).
		c := combineCounts(p, int64(nLess), int64(nMid))
		var newN int64
		switch {
		case rank > c.less && rank <= c.less+c.eq:
			// Window hit. If the window has collapsed to a single key,
			// every middle element equals it: done.
			if k1 == k2 {
				st.PivotExit = true
				return k1
			}
			local = mid
			if !fast {
				curWin = tgt
			}
			rank -= c.less
			newN = c.eq
		case rank <= c.less:
			// Both window keys rank above the target: keep the < side
			// (refiltered from the untouched input).
			st.Unsuccessful++
			if fast {
				local = local[:nLess:nLess]
			} else {
				local = seq.FilterLessInto(ar.win[tgt], local, k1)
				ar.win[tgt] = local[:cap(local)]
				curWin = tgt
			}
			newN = c.less
		default:
			// Both window keys rank below the target: keep the > side.
			st.Unsuccessful++
			if fast {
				local = local[nLess+nMid : len(local) : len(local)]
			} else {
				local = seq.FilterGreaterInto(ar.win[tgt], local, k2)
				ar.win[tgt] = local[:cap(local)]
				curWin = tgt
			}
			rank -= c.less + c.eq
			newN = n - c.less - c.eq
		}
		// A scan's survivors may have come from unordered keys.
		sorted = fast

		if newN >= n {
			// No progress (duplicates spanning the whole window): fall
			// back to one single-pivot step, which always either shrinks
			// the population or proves a pivot. It partitions local in
			// place, so a view is first copied into the free window
			// buffer.
			st.Stalled++
			if fast {
				local = append(ar.win[tgt][:0], local...)
				ar.win[tgt] = local[:cap(local)]
				curWin = tgt
			}
			var piv K
			var done bool
			local, rank, newN, piv, done = randomizedStep(p, local, rank, n, opts)
			sorted = false
			if done {
				st.PivotExit = true
				return piv
			}
		}
		n = newN

		// Load balancing between iterations (the paper's best variant
		// for sorted data uses modified OMLB here). A processor that
		// receives keys assembles its new shard in the free window
		// buffer, which then backs local; one that receives nothing
		// keeps a view of local, which leaves curWin as it was.
		free := freeWin(curWin)
		var moved bool
		local, sorted, moved = runBalance(p, local, sorted, &ar.win[free], opts, st)
		if moved {
			curWin = free
		}
		recheck = !sorted && !moved
		st.record(p, opts, n, rank, len(local))
	}
	// Steps 9–10: gather the survivors and solve sequentially.
	return finalSolve(p, local, rank, opts, st, sel)
}
