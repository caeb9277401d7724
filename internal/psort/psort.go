// Package psort implements a parallel sample sort (PSRS: Parallel Sorting
// by Regular Sampling) over the simulated machine. It is the ParallelSort
// used by the paper's fast randomized selection algorithm (Alg. 4 step 2)
// and is usable as a standalone substrate.
//
// Each processor sorts locally, contributes p regular samples, a root
// picks p-1 splitters from the gathered samples, every processor splits
// its sorted run along the splitters, blocks travel with the
// transportation primitive, and each processor multiway-merges what it
// receives. The concatenation of the outputs across processors in rank
// order is the sorted input.
package psort

import (
	"cmp"

	"parsel/internal/comm"
	"parsel/internal/machine"
	"parsel/internal/seq"
)

// Scratch holds one processor's reusable sample-sort buffers. A zero
// Scratch is ready; buffers grow on demand. The merged output of a
// scratch-backed sort aliases the scratch and is valid only until the
// next sort that reuses it.
type Scratch[K cmp.Ordered] struct {
	samples   []K
	gather    []K
	splitters []K
	out       [][]K
	in        [][]K
	counts    []int64
	cbuf      []int64
	merged    []K
}

// Sort sorts the distributed multiset whose local part is local. It
// returns this processor's run of the globally sorted sequence: all keys
// on processor i are <= all keys on processor j for i < j, each run is
// sorted, and the multiset is preserved. The output sizes are roughly
// balanced for well-spread inputs but are not guaranteed equal (standard
// PSRS behaviour). local is taken over and permuted. Every key is one
// machine.WordBytes word on the wire.
//
// c is the per-processor sample count. Classic PSRS uses c = p, whose
// p^2 gathered samples give a 2x balance guarantee but cost the root
// O(p^2 log p) sorting work — prohibitive at high processor counts when
// the data itself is small. Smaller c trades output balance for a
// cheaper splitter phase; correctness (global order, multiset
// preservation) never depends on c.
//
// Every buffer is drawn from scr; nil draws them fresh. Simulated cost
// and traffic do not depend on scr, only host-side allocation does.
func Sort[K cmp.Ordered](p *machine.Proc, local []K, c int, scr *Scratch[K]) []K {
	if scr == nil {
		scr = &Scratch[K]{}
	}
	size := p.Procs()
	p.Charge(seq.Sort(local))
	if size == 1 {
		return local
	}
	if c < 1 {
		c = 1
	}

	// Regular sampling: up to c evenly-strided samples per processor
	// (fewer when the processor holds fewer keys — duplicated samples
	// would only inflate the root gather).
	samples := scr.samples[:0]
	if len(local) > 0 {
		cnt := c
		if len(local) < cnt {
			cnt = len(local)
		}
		for i := 0; i < cnt; i++ {
			idx := i * len(local) / cnt
			samples = append(samples, local[idx])
		}
		p.Charge(int64(cnt))
	}
	scr.samples = samples
	all, gbuf := comm.GatherFlatInto(p, samples, machine.WordBytes, scr.gather)
	scr.gather = gbuf

	// Root: sort samples, choose p-1 regular splitters.
	var splitters []K
	if p.ID() == 0 {
		p.Charge(seq.Sort(all))
		splitters = scr.splitters[:0]
		for i := 1; i < size; i++ {
			if len(all) == 0 {
				break
			}
			idx := i * len(all) / size
			if idx >= len(all) {
				idx = len(all) - 1
			}
			splitters = append(splitters, all[idx])
		}
		scr.splitters = splitters
	}
	splitters = comm.BroadcastSlice(p, 0, splitters, machine.WordBytes)

	// Split the sorted local run along the splitters. Splitter j is the
	// upper bound of destination j's range, so destination j receives
	// keys in (splitters[j-1], splitters[j]].
	if cap(scr.out) < size {
		scr.out = make([][]K, size)
	}
	out := scr.out[:size]
	for i := range out {
		out[i] = nil
	}
	start := 0
	for j, s := range splitters {
		end, ops := seq.UpperBound(local[start:], s)
		p.Charge(ops)
		out[j] = local[start : start+end]
		start += end
	}
	out[size-1] = local[start:]
	if len(splitters) < size-1 {
		// Degenerate sample (tiny or empty input): any missing ranges
		// stay empty; everything beyond the last splitter goes to the
		// last processor, which out[size-1] already covers.
		for j := len(splitters); j < size-1; j++ {
			if out[j] == nil {
				out[j] = local[:0]
			}
		}
	}

	// The transportation primitive, with its counts exchange drawn from
	// scratch (identical wire behaviour to comm.Transport).
	counts := scr.counts
	if cap(counts) < size {
		counts = make([]int64, size)
	}
	counts = counts[:size]
	for j, block := range out {
		counts[j] = int64(len(block))
	}
	allCounts, cbuf := comm.GlobalConcatInt64Flat(p, counts, scr.cbuf)
	scr.cbuf = cbuf
	for src := 0; src < size; src++ {
		counts[src] = allCounts[src*size+p.ID()]
	}
	scr.counts = counts
	in := comm.TransportKnown(p, out, counts, machine.WordBytes, scr.in)
	scr.in = in
	merged, ops := seq.MergeKInto(scr.merged, in)
	scr.merged = merged
	p.Charge(ops)
	return merged
}

// RankElement returns the element at global 0-based rank r of a
// distributed sorted sequence (as produced by Sort): runs[i] on processor
// i, globally ordered by rank. All processors receive the element. It
// panics (collectively) if r is out of range.
func RankElement[K cmp.Ordered](p *machine.Proc, run []K, r int64) K {
	prefix := comm.PrefixSumInt64(p, int64(len(run)))
	myStart := prefix - int64(len(run))
	total := comm.BroadcastInt64(p, p.Procs()-1, prefix, machine.WordBytes)
	if r < 0 || r >= total {
		panic("psort: RankElement rank out of range")
	}
	// The unique owner broadcasts. Ownership: myStart <= r < prefix.
	owner := 0
	var val K
	mine := r >= myStart && r < prefix
	if mine {
		val = run[r-myStart]
	}
	// Everyone must agree on the owner for the broadcast: combine the
	// owner id (max works since exactly one processor holds it).
	cand := int64(-1)
	if mine {
		cand = int64(p.ID())
	}
	owner = int(comm.CombineMaxInt64(p, cand, machine.WordBytes))
	return comm.Broadcast(p, owner, val, machine.WordBytes)
}
