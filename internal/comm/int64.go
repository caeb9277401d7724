// Typed int64 fast paths for the hottest collectives. Each mirrors its
// generic counterpart exactly — same tree shape, same tags, same message
// count and byte sizes — so simulated time and traffic counters are
// bit-identical; the only difference is that values travel through the
// machine's inline int64 message fields instead of being boxed into
// interfaces, making the host-side cost allocation-free.
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
	size := p.Procs()
	if size == 1 {
		return a, b
	}
	rel := relRank(p.ID(), root, size)
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := absRank(rel-mask, root, size)
			a, b = p.RecvInt64Pair(src, tagBroadcast+mask)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel&(mask-1) == 0 && rel&mask == 0 && rel+mask < size {
			dst := absRank(rel+mask, root, size)
			p.SendInt64Pair(dst, tagBroadcast+mask, a, b, bytes)
		}
	}
	return a, b
}

// reduceInt64Pair mirrors Reduce for a pair of int64 accumulators merged
// with op. The boolean reports whether this processor is the root.
func reduceInt64Pair(p *machine.Proc, root int, a, b int64, bytes int, op func(a0, b0, a1, b1 int64) (int64, int64)) (int64, int64, bool) {
	size := p.Procs()
	if size == 1 {
		return a, b, true
	}
	rel := relRank(p.ID(), root, size)
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < size {
				src := absRank(srcRel, root, size)
				oa, ob := p.RecvInt64Pair(src, tagReduce+mask)
				a, b = op(a, b, oa, ob)
			}
		} else {
			dst := absRank(rel&^mask, root, size)
			p.SendInt64Pair(dst, tagReduce+mask, a, b, bytes)
			return 0, 0, false
		}
	}
	return a, b, true
}

// combineInt64Pair mirrors Combine (reduce to root 0, then broadcast) for
// an int64 pair under op.
func combineInt64Pair(p *machine.Proc, a, b int64, bytes int, op func(a0, b0, a1, b1 int64) (int64, int64)) (int64, int64) {
	a, b, _ = reduceInt64Pair(p, 0, a, b, bytes, op)
	if p.Procs() == 1 {
		return a, b
	}
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
// with the same tree, tags, message count and byte sizes
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
	size := p.Procs()
	if size == 1 {
		copy(res, acc)
		return res, buf
	}
	bytes := L * machine.WordBytes
	me := p.ID()
	// Reduce to processor 0 (the binomial tree of Reduce).
	mask := 1
	for ; mask < size; mask <<= 1 {
		if me&mask != 0 {
			p.SendInt64Slice(me&^mask, tagReduce+mask, acc, bytes)
			break
		}
		if src := me | mask; src < size {
			for i, v := range p.RecvInt64Slice(src, tagReduce+mask) {
				acc[i] += v
			}
		}
	}
	// Broadcast from processor 0 down the same tree.
	if me == 0 {
		copy(res, acc)
	} else {
		copy(res, p.RecvInt64Slice(me&^mask, tagBroadcast+mask))
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if me+mask < size {
			p.SendInt64Slice(me+mask, tagBroadcast+mask, res, bytes)
		}
	}
	return res, buf
}

// CombineMaxInt64 all-reduces an int64 maximum.
func CombineMaxInt64(p *machine.Proc, val int64, bytes int) int64 {
	v, _ := combineInt64Pair(p, val, 0, bytes,
		func(a0, b0, a1, b1 int64) (int64, int64) { return max(a0, a1), 0 })
	return v
}

// PrefixSumInt64 returns the inclusive prefix sum of val across processors
// (dissemination scan, identical in shape to Prefix).
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

// GlobalConcatInt64 is GlobalConcat specialised to one int64 per
// processor. buf, when large enough (2p), provides all working storage so
// the collective allocates nothing; it is returned (possibly grown) for
// the caller to retain. The result is a view into it indexed by absolute
// rank, valid until the next call that reuses the buffer. Shape, tags and
// bytes match GlobalConcat exactly.
func GlobalConcatInt64(p *machine.Proc, val int64, buf []int64) (out, grown []int64) {
	return globalConcatInt64Flat(p, val, nil, 1, buf)
}

// GlobalConcatInt64Flat is GlobalConcatv specialised to a fixed-length
// int64 slice per processor (the counts exchange of Transport). The result
// is flat: processor r's contribution occupies [r*L, (r+1)*L). buf as in
// GlobalConcatInt64 (needs 2*p*L).
func GlobalConcatInt64Flat(p *machine.Proc, vals []int64, buf []int64) (out, grown []int64) {
	return globalConcatInt64Flat(p, 0, vals, len(vals), buf)
}

// globalConcatInt64Flat implements the Bruck all-gather over a flat int64
// buffer. When vals is nil the single value val is the contribution
// (L must be 1).
func globalConcatInt64Flat(p *machine.Proc, val int64, vals []int64, L int, buf []int64) (result, grown []int64) {
	size := p.Procs()
	me := p.ID()
	need := 2 * size * L
	if cap(buf) < need {
		buf = make([]int64, need)
	}
	buf = buf[:need]
	// have holds contributions in rank-rotated order: the block of
	// processor (me+i)%size occupies have[i*L:(i+1)*L].
	have := buf[: L : size*L]
	if vals == nil {
		have[0] = val
	} else {
		copy(have, vals)
	}
	if size == 1 {
		return have, buf
	}
	for pow, round := 1, 0; pow < size; pow, round = pow<<1, round+1 {
		cnt := pow
		if size-pow < cnt {
			cnt = size - pow
		}
		dst := (me - pow + size) % size
		src := (me + pow) % size
		p.SendInt64Slice(dst, tagConcat+round, have[:cnt*L], cnt*L*machine.WordBytes)
		in := p.RecvInt64Slice(src, tagConcat+round)
		have = append(have, in...)
	}
	out := buf[size*L : need]
	for i := 0; i < size; i++ {
		copy(out[((me+i)%size)*L:], have[i*L:(i+1)*L])
	}
	return out, buf
}
