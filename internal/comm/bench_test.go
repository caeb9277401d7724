package comm

import (
	"testing"

	"parsel/internal/machine"
)

// benchCollective times the *wall-clock* cost of running a collective on
// p real goroutines (the simulated cost is exercised by the harness's
// prims experiment).
func benchCollective(b *testing.B, p int, body func(pr *machine.Proc, payload []int64)) {
	m, err := machine.New(machine.DefaultParams(p))
	if err != nil {
		b.Fatal(err)
	}
	const elems = 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := m.Run(func(pr *machine.Proc) {
			payload := make([]int64, elems)
			body(pr, payload)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBroadcast16(b *testing.B) {
	benchCollective(b, 16, func(pr *machine.Proc, payload []int64) {
		BroadcastSlice(pr, 0, payload, machine.WordBytes)
	})
}

func BenchmarkCombine16(b *testing.B) {
	benchCollective(b, 16, func(pr *machine.Proc, payload []int64) {
		CombineInt64(pr, int64(pr.ID()))
	})
}

func BenchmarkPrefix16(b *testing.B) {
	benchCollective(b, 16, func(pr *machine.Proc, payload []int64) {
		PrefixSumInt64(pr, int64(pr.ID()))
	})
}

func BenchmarkGlobalConcatv16(b *testing.B) {
	benchCollective(b, 16, func(pr *machine.Proc, payload []int64) {
		GlobalConcatv(pr, payload[:64], machine.WordBytes)
	})
}

func BenchmarkTransport16(b *testing.B) {
	benchCollective(b, 16, func(pr *machine.Proc, payload []int64) {
		out := make([][]int64, pr.Procs())
		per := len(payload) / pr.Procs()
		for j := range out {
			out[j] = payload[j*per : (j+1)*per]
		}
		Transport(pr, out, machine.WordBytes)
	})
}

// benchReused times one collective per Run on a reused p-processor
// machine, as a resident query issues them. Each processor keeps its
// buffers across runs in bufs, so allocations reported by -benchmem are
// the fabric's and the collective's own.
func benchReused(b *testing.B, p int, body func(pr *machine.Proc, buf *[]int64)) {
	m, err := machine.New(machine.DefaultParams(p))
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	bufs := make([][]int64, p)
	run := func(pr *machine.Proc) { body(pr, &bufs[pr.ID()]) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(run); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmptyRun8 is the per-run cost of the fabric alone at the
// serving machine size: the other p = 8 cases include it once.
func BenchmarkEmptyRun8(b *testing.B) {
	benchReused(b, 8, func(pr *machine.Proc, buf *[]int64) {})
}

func BenchmarkCombineSumInt64Pair8(b *testing.B) {
	benchReused(b, 8, func(pr *machine.Proc, buf *[]int64) {
		CombineSumInt64Pair(pr, int64(pr.ID()), 1, 2*machine.WordBytes)
	})
}

func BenchmarkGlobalConcatInt64_8(b *testing.B) {
	benchReused(b, 8, func(pr *machine.Proc, buf *[]int64) {
		_, *buf = GlobalConcatInt64(pr, int64(pr.ID()), *buf)
	})
}

// BenchmarkGatherBroadcast8 is the final-solve shape: gather 64 keys per
// processor on the root, then broadcast one answer.
func BenchmarkGatherBroadcast8(b *testing.B) {
	var local [64]int64
	answer := []int64{42}
	benchReused(b, 8, func(pr *machine.Proc, buf *[]int64) {
		_, *buf = GatherFlatInto(pr, local[:], machine.WordBytes, *buf)
		var res []int64
		if pr.ID() == 0 {
			res = answer
		}
		BroadcastSlice(pr, 0, res, machine.WordBytes)
	})
}

// BenchmarkTransportKnown8 is the load balancers' all-to-all: every
// processor sends 16 keys to every other.
func BenchmarkTransportKnown8(b *testing.B) {
	const p = 8
	var block [16]int64
	out := make([][]int64, p)
	counts := make([]int64, p)
	for j := range out {
		out[j] = block[:]
		counts[j] = int64(len(block))
	}
	in := make([][][]int64, p)
	benchReused(b, p, func(pr *machine.Proc, buf *[]int64) {
		in[pr.ID()] = TransportKnown(pr, out, counts, machine.WordBytes, in[pr.ID()])
	})
}
