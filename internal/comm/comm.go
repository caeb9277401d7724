// Package comm implements the parallel communication primitives of the
// paper's §2.2 on top of the simulated machine's point-to-point layer:
//
//	Broadcast          O((tau+mu) log p)    binomial tree
//	Combine            O((tau+mu) log p)    binomial reduce + broadcast
//	Parallel Prefix    O((tau+mu) log p)    dissemination (Hillis–Steele)
//	Gather             O(tau log p + mu p)  binomial tree
//	Global Concatenate O(tau log p + mu p)  Bruck all-gather
//	Transportation     ~2 mu t              pairwise-scheduled all-to-all-v
//
// The parallel prefix exists as an int64 sum (PrefixSumInt64), the only
// form the algorithms use; Gather is a flat variable-length gather on
// processor 0 (GatherFlatInto), and Global Concatenate comes in
// variable-length (GlobalConcatv) and int64 (GlobalConcatInt64) forms.
//
// All primitives work for arbitrary processor counts, not only powers of
// two. Message costs (tau + mu*bytes) are charged by the machine layer;
// per the paper's model the primitives themselves charge no computation.
package comm

import "parsel/internal/machine"

// Tag bases keep the message streams of distinct primitives disjoint.
// Within a primitive, the round number is added to the base. Because each
// ordered processor pair has a FIFO link and SPMD programs invoke
// collectives in program order, bases may be reused across invocations.
const (
	tagBroadcast = 1 << 20
	tagReduce    = 2 << 20
	tagPrefix    = 3 << 20
	tagGather    = 4 << 20
	tagConcat    = 5 << 20
	tagTransport = 6 << 20
	tagCounts    = 8 << 20
)

// Broadcast distributes the root's value to every processor and returns it.
// bytes is the on-the-wire size of the value.
func Broadcast[T any](p *machine.Proc, root int, val T, bytes int) T {
	size := p.Procs()
	if size == 1 {
		return val
	}
	rel := relRank(p.ID(), root, size)
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := absRank(rel-mask, root, size)
			val = p.Recv(src, tagBroadcast+mask).(T)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel&(mask-1) == 0 && rel&mask == 0 && rel+mask < size {
			dst := absRank(rel+mask, root, size)
			p.Send(dst, tagBroadcast+mask, val, bytes)
		}
	}
	return val
}

// BroadcastSlice distributes the root's slice to every processor. Non-root
// inputs are ignored. The returned slice must not be mutated by receivers
// that share memory with the root in-process; callers that need ownership
// should copy.
func BroadcastSlice[T any](p *machine.Proc, root int, vals []T, elemBytes int) []T {
	size := p.Procs()
	if size == 1 {
		return vals
	}
	rel := relRank(p.ID(), root, size)
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := absRank(rel-mask, root, size)
			vals = p.Recv(src, tagBroadcast+mask).([]T)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel&(mask-1) == 0 && rel&mask == 0 && rel+mask < size {
			dst := absRank(rel+mask, root, size)
			p.Send(dst, tagBroadcast+mask, vals, len(vals)*elemBytes)
		}
	}
	return vals
}

// reduce combines one value per processor with a commutative, associative
// op and leaves the result on root. The second return is true only on root.
func reduce[T any](p *machine.Proc, root int, val T, bytes int, op func(T, T) T) (T, bool) {
	size := p.Procs()
	if size == 1 {
		return val, true
	}
	rel := relRank(p.ID(), root, size)
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < size {
				src := absRank(srcRel, root, size)
				other := p.Recv(src, tagReduce+mask).(T)
				val = op(val, other)
			}
		} else {
			dst := absRank(rel&^mask, root, size)
			p.Send(dst, tagReduce+mask, val, bytes)
			var zero T
			return zero, false
		}
	}
	return val, true
}

// Combine is the paper's Combine primitive: an all-reduce. Every processor
// contributes val and receives op applied across all contributions.
func Combine[T any](p *machine.Proc, val T, bytes int, op func(T, T) T) T {
	res, ok := reduce(p, 0, val, bytes, op)
	if p.Procs() == 1 {
		return res
	}
	if !ok {
		var zero T
		res = zero
	}
	return Broadcast(p, 0, res, bytes)
}

// flatRun is a contiguous run of rank-order blocks already flattened
// into one slice, the payload of the gather tree.
type flatRun[T any] struct {
	data []T
}

// GatherFlatInto gathers variable-length slices on processor 0 and
// concatenates them in rank order, over a binomial tree: O(tau log p +
// mu * total). Every processor passes its own reusable buffer (dst may
// be nil), interior tree nodes flatten their subtree into it, and the
// root's buffer carries the final concatenation. It returns the
// gathered slice (nil on non-roots) and the possibly grown buffer,
// which the caller should retain for the next call.
func GatherFlatInto[T any](p *machine.Proc, vals []T, elemBytes int, dst []T) (out, buf []T) {
	size := p.Procs()
	me := p.ID()
	buf = append(dst[:0], vals...)
	bufBytes := len(vals) * elemBytes
	for mask := 1; mask < size; mask <<= 1 {
		if me&mask == 0 {
			if src := me + mask; src < size {
				in := p.Recv(src, tagGather+mask).(flatRun[T])
				buf = append(buf, in.data...)
				bufBytes += len(in.data) * elemBytes
			}
		} else {
			p.Send(me-mask, tagGather+mask, flatRun[T]{buf}, bufBytes)
			return nil, buf
		}
	}
	return buf, buf
}

// GlobalConcatv is the paper's Global Concatenate for variable-length
// slices: every processor receives all p slices, indexed by absolute rank.
// Implemented with the Bruck all-gather: ceil(log2 p) rounds, total data
// moved per processor O(sum of slice sizes), so O(tau log p + mu p m).
func GlobalConcatv[T any](p *machine.Proc, vals []T, elemBytes int) [][]T {
	size := p.Procs()
	if size == 1 {
		return [][]T{vals}
	}
	me := p.ID()
	// have[i] holds the slice of processor (me+i) mod size.
	have := make([][]T, 1, size)
	have[0] = vals
	for pow, round := 1, 0; pow < size; pow, round = pow<<1, round+1 {
		cnt := pow
		if size-pow < cnt {
			cnt = size - pow
		}
		dst := (me - pow + size) % size
		src := (me + pow) % size
		bytes := 0
		for _, blk := range have[:cnt] {
			bytes += len(blk) * elemBytes
		}
		p.Send(dst, tagConcat+round, have[:cnt:cnt], bytes)
		in := p.Recv(src, tagConcat+round).([][]T)
		have = append(have, in...)
	}
	out := make([][]T, size)
	for i := 0; i < size; i++ {
		out[(me+i)%size] = have[i]
	}
	return out
}

// Transport is the transportation primitive: many-to-many personalized
// communication with possibly high variance in message sizes. out[j] holds
// the elements destined for processor j (out[me] is delivered locally).
// The result is indexed by source processor. Counts are exchanged first
// with a Global Concatenate; use TransportKnown when receivers already
// know their incoming counts (the load balancers do).
func Transport[T any](p *machine.Proc, out [][]T, elemBytes int) [][]T {
	size := p.Procs()
	if len(out) != size {
		panic("comm: Transport requires exactly one out slice per processor")
	}
	myCounts := make([]int64, size)
	for j, block := range out {
		myCounts[j] = int64(len(block))
	}
	all, _ := GlobalConcatInt64Flat(p, myCounts, nil)
	inCounts := myCounts
	for src := 0; src < size; src++ {
		inCounts[src] = all[src*size+p.ID()]
	}
	in, _ := TransportKnown(p, out, false, inCounts, elemBytes, nil, nil)
	return in
}

// orderedBlock is one TransportKnown message: a block and its sender's
// order bit. The message is priced at the block's bytes alone.
type orderedBlock[T any] struct {
	keys    []T
	ordered bool
}

// TransportKnown performs the transportation primitive when every receiver
// already knows how many elements arrive from each source (inCounts[src]).
// Only non-empty messages are sent. Communication is scheduled pairwise
// (step k exchanges with ranks me±k) to avoid hot spots, giving the
// ~2*mu*t behaviour the paper cites for bounded in/out traffic t. The p
// incoming block headers are returned in in, grown as needed (in may be
// nil).
//
// ordered is one bit the sender attaches to each of its blocks: for the
// load balancers, that the block is known to be ascending (false means
// unknown). It travels with the block unpriced, so messages, bytes and
// simulated time do not depend on it, and inOrdered[src] (grown like in;
// false for an empty block) reports the bit of the block from src.
func TransportKnown[T any](p *machine.Proc, out [][]T, ordered bool, inCounts []int64, elemBytes int, in [][]T, inOrdered []bool) ([][]T, []bool) {
	size := p.Procs()
	me := p.ID()
	if len(out) != size || len(inCounts) != size {
		panic("comm: TransportKnown requires p outgoing blocks and p incoming counts")
	}
	if cap(in) < size {
		in = make([][]T, size)
	}
	if cap(inOrdered) < size {
		inOrdered = make([]bool, size)
	}
	in, inOrdered = in[:size], inOrdered[:size]
	for i := range in {
		in[i], inOrdered[i] = nil, false
	}
	if len(out[me]) > 0 {
		in[me], inOrdered[me] = out[me], ordered
	}
	for k := 1; k < size; k++ {
		dst := (me + k) % size
		src := (me - k + size) % size
		if len(out[dst]) > 0 {
			p.Send(dst, tagTransport+k, orderedBlock[T]{out[dst], ordered}, len(out[dst])*elemBytes)
		}
		if inCounts[src] > 0 {
			blk := p.Recv(src, tagTransport+k).(orderedBlock[T])
			if int64(len(blk.keys)) != inCounts[src] {
				panic("comm: TransportKnown received unexpected element count")
			}
			in[src], inOrdered[src] = blk.keys, blk.ordered
		}
	}
	return in, inOrdered
}

// relRank maps an absolute rank to its rank relative to root.
func relRank(id, root, size int) int { return (id - root + size) % size }

// absRank maps a root-relative rank back to an absolute rank.
func absRank(rel, root, size int) int { return (rel + root) % size }
