// Typed int64 fast paths for the hottest collectives. Each walks the
// same walker (down, up, bruck) with the same tags and byte sizes as
// the generic form of its collective, so simulated time and traffic
// counters are bit-identical to it; the only difference is that values
// travel through the machine's inline int64 message fields instead of
// being boxed into interfaces, making the host-side cost
// allocation-free.
package comm

import "parsel/internal/machine"

// BroadcastInt64 is Broadcast specialised to a single int64.
func BroadcastInt64(p *machine.Proc, root int, val int64, bytes int) int64 {
	v, _ := BroadcastInt64Pair(p, root, val, 0, bytes)
	return v
}

// BroadcastInt64Pair broadcasts two int64 values from root in one message
// per tree edge (the wire size is whatever bytes says, as with Broadcast).
func BroadcastInt64Pair(p *machine.Proc, root int, a, b int64, bytes int) (int64, int64) {
	down(p.ID(), root, p.Procs(),
		func(peer, mask int) { a, b = p.RecvInt64Pair(peer, tagBroadcast+mask) },
		func(peer, mask int) { p.SendInt64Pair(peer, tagBroadcast+mask, a, b, bytes) })
	return a, b
}

// combineInt64Pair is Combine (reduce to processor 0, then broadcast) of
// an int64 pair under op.
func combineInt64Pair(p *machine.Proc, a, b int64, bytes int, op func(a0, b0, a1, b1 int64) (int64, int64)) (int64, int64) {
	up(p.ID(), p.Procs(),
		func(peer, mask int) {
			a1, b1 := p.RecvInt64Pair(peer, tagReduce+mask)
			a, b = op(a, b, a1, b1)
		},
		func(peer, mask int) { p.SendInt64Pair(peer, tagReduce+mask, a, b, bytes) })
	return BroadcastInt64Pair(p, 0, a, b, bytes)
}

// CombineInt64 is Combine specialised to int64 sums, the most common use
// in the selection algorithms (counting elements below a pivot).
func CombineInt64(p *machine.Proc, val int64) int64 {
	v, _ := combineInt64Pair(p, val, 0, machine.WordBytes,
		func(a0, b0, a1, b1 int64) (int64, int64) { return a0 + a1, 0 })
	return v
}

// CombineSumInt64Pair all-reduces two independent int64 sums in one
// collective (the paper's Combine of a (less, equal) tally).
func CombineSumInt64Pair(p *machine.Proc, a, b int64, bytes int) (int64, int64) {
	return combineInt64Pair(p, a, b, bytes,
		func(a0, b0, a1, b1 int64) (int64, int64) { return a0 + a1, b0 + b1 })
}

// CombineSumInt64Slice all-reduces a vector of int64 sums element-wise
// in one collective: Combine of the vector under element-wise addition,
// walking the same trees with the same tags and byte sizes
// (len(vals) words per message). vals is not modified. buf, when large
// enough (2*len(vals)), provides all working storage so the collective
// allocates nothing; it is returned (possibly grown) for the caller to
// retain. The result is a view into it, valid until the next call that
// reuses the buffer.
//
// The first half of buf accumulates the reduction and the second holds
// the result, which every processor copies out of its parent's message
// before forwarding its own copy. A buffer is therefore only rewritten
// after every processor reading it has moved on: a child's accumulator
// is consumed by its parent before the child receives the broadcast,
// and a result half is rewritten only in the next call's broadcast,
// which starts once the root has heard from every processor.
func CombineSumInt64Slice(p *machine.Proc, vals []int64, buf []int64) (out, grown []int64) {
	L := len(vals)
	if cap(buf) < 2*L {
		buf = make([]int64, 2*L)
	}
	buf = buf[:2*L]
	acc, res := buf[:L:L], buf[L:]
	copy(acc, vals)
	bytes := L * machine.WordBytes
	isRoot := up(p.ID(), p.Procs(),
		func(peer, mask int) {
			for i, v := range p.RecvInt64Slice(peer, tagReduce+mask) {
				acc[i] += v
			}
		},
		func(peer, mask int) { p.SendInt64Slice(peer, tagReduce+mask, acc, bytes) })
	if isRoot {
		copy(res, acc)
	}
	down(p.ID(), 0, p.Procs(),
		func(peer, mask int) { copy(res, p.RecvInt64Slice(peer, tagBroadcast+mask)) },
		func(peer, mask int) { p.SendInt64Slice(peer, tagBroadcast+mask, res, bytes) })
	return res, buf
}

// CombineMaxInt64 all-reduces an int64 maximum.
func CombineMaxInt64(p *machine.Proc, val int64, bytes int) int64 {
	v, _ := combineInt64Pair(p, val, 0, bytes,
		func(a0, b0, a1, b1 int64) (int64, int64) { return max(a0, a1), 0 })
	return v
}

// PrefixSumInt64 returns the inclusive prefix sum of val across
// processors: processor i returns x0 + ... + xi. It is a dissemination
// (Hillis–Steele) scan in ceil(log2 p) rounds for any p.
func PrefixSumInt64(p *machine.Proc, val int64) int64 {
	size := p.Procs()
	me := p.ID()
	acc := val
	for pow, round := 1, 0; pow < size; pow, round = pow<<1, round+1 {
		if me+pow < size {
			p.SendInt64Pair(me+pow, tagPrefix+round, acc, 0, machine.WordBytes)
		}
		if me-pow >= 0 {
			left, _ := p.RecvInt64Pair(me-pow, tagPrefix+round)
			acc = left + acc
		}
	}
	return acc
}

// GlobalConcatInt64Flat is the paper's Global Concatenate of a
// fixed-length int64 slice per processor (the balancers' one count, the
// counts exchange of Transport), walking the Bruck schedule of
// GlobalConcatv with the same tags and bytes. The result is flat:
// processor r's contribution occupies [r*L, (r+1)*L). buf, when large
// enough (2*p*L), provides all working storage so the collective
// allocates nothing; it is returned (possibly grown) for the caller to
// retain. The result is a view into it, valid until the next call that
// reuses the buffer. Every key is copied into buf, so a large payload
// without a reused buffer costs 2*p*L words per call; GlobalConcatv
// passes headers instead.
func GlobalConcatInt64Flat(p *machine.Proc, vals []int64, buf []int64) (out, grown []int64) {
	size := p.Procs()
	me := p.ID()
	L := len(vals)
	need := 2 * size * L
	if cap(buf) < need {
		buf = make([]int64, need)
	}
	buf = buf[:need]
	// have holds contributions in rank-rotated order: the block of
	// processor (me+i)%size occupies have[i*L:(i+1)*L].
	have := buf[: L : size*L]
	copy(have, vals)
	if size == 1 {
		return have, buf
	}
	bruck(me, size, func(dst, src, round, cnt int) {
		p.SendInt64Slice(dst, tagConcat+round, have[:cnt*L], cnt*L*machine.WordBytes)
		have = append(have, p.RecvInt64Slice(src, tagConcat+round)...)
	})
	out = buf[size*L : need]
	for i := 0; i < size; i++ {
		copy(out[((me+i)%size)*L:], have[i*L:(i+1)*L])
	}
	return out, buf
}
