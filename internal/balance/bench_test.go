package balance

import (
	"testing"

	"parsel/internal/machine"
	"parsel/internal/workload"
)

func benchBalance(b *testing.B, method Method) {
	const p = 16
	const n = 1 << 18
	m, err := machine.New(machine.DefaultParams(p))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		shards := workload.Unbalanced(n, p, uint64(i))
		b.StartTimer()
		_, err := m.Run(func(pr *machine.Proc) {
			Run(pr, shards[pr.ID()], method)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(n * 8)
}

func BenchmarkOMLB(b *testing.B)              { benchBalance(b, OMLB) }
func BenchmarkModifiedOMLB(b *testing.B)      { benchBalance(b, ModifiedOMLB) }
func BenchmarkDimensionExchange(b *testing.B) { benchBalance(b, DimensionExchange) }
func BenchmarkGlobalExchange(b *testing.B)    { benchBalance(b, GlobalExchange) }
