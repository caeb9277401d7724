package harness

import (
	"parsel/internal/comm"
	"parsel/internal/machine"
)

// primOp runs one collective over an m-element payload per processor.
type primOp func(p *machine.Proc, payload []int64)

func primBroadcast(p *machine.Proc, payload []int64) {
	comm.BroadcastSlice(p, 0, payload, machine.WordBytes)
}

func primCombine(p *machine.Proc, payload []int64) {
	var s int64
	for _, v := range payload {
		s += v
	}
	comm.CombineInt64(p, s)
}

func primPrefix(p *machine.Proc, payload []int64) {
	comm.PrefixSumInt64(p, int64(len(payload)))
}

func primConcat(p *machine.Proc, payload []int64) {
	comm.GlobalConcatv(p, payload, machine.WordBytes)
}

func primTransport(p *machine.Proc, payload []int64) {
	// Spread the payload evenly across all destinations.
	size := p.Procs()
	out := make([][]int64, size)
	per := len(payload) / size
	for j := 0; j < size; j++ {
		lo := j * per
		hi := lo + per
		if j == size-1 {
			hi = len(payload)
		}
		out[j] = payload[lo:hi]
	}
	comm.Transport(p, out, machine.WordBytes, new(comm.TransportScratch[int64]))
}

// measurePrim returns the simulated time of one collective invocation
// with m elements per processor. It runs the machine directly: it times
// comm collectives, not a selection.
func measurePrim(p, m int, op primOp) float64 {
	params := machine.DefaultParams(p)
	sim, err := machine.Run(params, func(pr *machine.Proc) {
		payload := make([]int64, m)
		for i := range payload {
			payload[i] = int64(pr.ID()*m + i)
		}
		op(pr, payload)
	})
	if err != nil {
		panic(err)
	}
	return sim
}
