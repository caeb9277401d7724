package selection

import (
	"cmp"

	"parsel/internal/balance"
	"parsel/internal/machine"
	"parsel/internal/psort"
)

// Arena holds one simulated processor's reusable scratch memory: the
// copy-in buffer for borrowed caller shards, the per-iteration sample and
// pivot buffers, the gather-tree staging buffer, and the nested balance
// and sample-sort scratches. It is parked in machine.Proc.Scratch, so a
// long-lived machine serves repeated selections without per-call
// allocation. Buffers grow on demand and are never shrunk.
//
// Reuse safety: every buffer is written by exactly one processor and is
// re-filled only after a full collective (Combine, gather + broadcast) has
// synchronized all processors, which is when any cross-processor aliases
// created by the zero-copy message layer are guaranteed drained.
type Arena[K cmp.Ordered] struct {
	local   []K    // copy-in buffer for borrowed caller shards
	sample  []K    // fast randomized per-iteration sample
	gather  []K    // gather-tree staging / root gather target
	kbuf    []K    // tiny pivot and window-key slices (1–2 elements)
	win     [3][]K // rotating targets for the out-of-place filter kernels
	wts     []int64
	wgather []int64
	bal     balance.Scratch[K]
	sort    psort.Scratch[K]

	// Multi-rank (SelectMany) scratch: the result values, the root's
	// answer staging, the segment lists (this level, the next, and the
	// segments left for the final gather), the small segments' keys
	// staged for that gather, a round's per-segment vectors (local
	// sizes and their all-gather, owned pivots, pivots, local tallies
	// and their sums), and bump slabs carving the per-segment
	// rank/position lists.
	many    []K
	mvals   []K
	mlive   []multiSeg[K]
	mnext   []multiSeg[K]
	msmall  []multiSeg[K]
	mstage  []K
	msizes  []int64
	mconcat []int64
	mown    []owned[K]
	mpivs   []K
	mtally  []int64
	mcomb   []int64
	mranks  slab[int64]
	mouts   slab[int]
}

// slab is a bump allocator over one growable backing array. Chunks are
// carved with full capacity bounds, so appends within a chunk can never
// bleed into a neighbour; when the backing array is exhausted a fresh
// one is allocated (previously carved chunks keep the old array alive
// until the run ends). reset recycles the high-water backing, making
// steady-state carving allocation-free.
type slab[T any] struct {
	buf []T
	off int
}

// reset recycles the backing array for a new run.
func (s *slab[T]) reset() { s.off = 0 }

// take carves a zero-length chunk with capacity n.
func (s *slab[T]) take(n int) []T {
	if s.off+n > len(s.buf) {
		grown := 2 * len(s.buf)
		if grown < n {
			grown = n
		}
		if grown < 64 {
			grown = 64
		}
		s.buf = make([]T, grown)
		s.off = 0
	}
	chunk := s.buf[s.off : s.off : s.off+n]
	s.off += n
	return chunk
}

// arenaOf returns the processor's arena, creating and parking it in
// Proc.Scratch on first use. One machine always serves one key type
// through the public API, so the type assertion never churns.
func arenaOf[K cmp.Ordered](p *machine.Proc) *Arena[K] {
	if a, ok := p.Scratch.(*Arena[K]); ok {
		return a
	}
	a := &Arena[K]{}
	p.Scratch = a
	return a
}

// copyIn copies borrowed caller data into the arena so the algorithms can
// permute and migrate it freely. The copy is host work only — the
// simulated model never charged for the entry copy and still does not.
func (a *Arena[K]) copyIn(data []K) []K {
	a.local = append(a.local[:0], data...)
	return a.local
}
