package psort

import (
	"testing"

	"parsel/internal/machine"
	"parsel/internal/workload"
)

func benchSort(b *testing.B, p int, n int64, kind workload.Kind) {
	m, err := machine.New(machine.DefaultParams(p))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		shards := workload.Generate(kind, n, p, uint64(i))
		b.StartTimer()
		_, err := m.Run(func(pr *machine.Proc) {
			Sort(pr, shards[pr.ID()])
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(n * 8)
}

func BenchmarkPSRSRandom8(b *testing.B)    { benchSort(b, 8, 1<<18, workload.Random) }
func BenchmarkPSRSSorted8(b *testing.B)    { benchSort(b, 8, 1<<18, workload.Sorted) }
func BenchmarkPSRSDuplicate8(b *testing.B) { benchSort(b, 8, 1<<18, workload.FewDistinct) }
