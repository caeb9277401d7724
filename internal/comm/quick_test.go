package comm

import (
	"slices"
	"testing"
	"testing/quick"

	"parsel/internal/machine"
)

// quickRun executes an SPMD body or reports the failure through ok.
func quickRun(p int, body func(pr *machine.Proc)) bool {
	_, err := machine.Run(machine.DefaultParams(p), body)
	return err == nil
}

// TestQuickCombineAgainstSerial: for arbitrary per-processor inputs and a
// set of associative+commutative operators, Combine must equal the serial
// fold on every processor.
func TestQuickCombineAgainstSerial(t *testing.T) {
	ops := map[string]func(int64, int64) int64{
		"sum": func(a, b int64) int64 { return a + b },
		"min": func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
		"max": func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		},
		"xor": func(a, b int64) int64 { return a ^ b },
	}
	for name, op := range ops {
		f := func(raw []int32, pRaw uint8) bool {
			p := 1 + int(pRaw%12)
			vals := make([]int64, p)
			for i := range vals {
				if i < len(raw) {
					vals[i] = int64(raw[i])
				}
			}
			want := vals[0]
			for _, v := range vals[1:] {
				want = op(want, v)
			}
			good := true
			ok := quickRun(p, func(pr *machine.Proc) {
				got := Combine(pr, vals[pr.ID()], 8, op)
				if got != want {
					good = false
				}
			})
			return ok && good
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestQuickPrefixAgainstSerial checks inclusive scans for arbitrary
// inputs and processor counts.
func TestQuickPrefixAgainstSerial(t *testing.T) {
	f := func(raw []int32, pRaw uint8) bool {
		p := 1 + int(pRaw%12)
		vals := make([]int64, p)
		for i := range vals {
			if i < len(raw) {
				vals[i] = int64(raw[i])
			}
		}
		want := make([]int64, p)
		run := int64(0)
		for i, v := range vals {
			run += v
			want[i] = run
		}
		good := true
		ok := quickRun(p, func(pr *machine.Proc) {
			if PrefixSumInt64(pr, vals[pr.ID()]) != want[pr.ID()] {
				good = false
			}
		})
		return ok && good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickGatherConcatAgree: GatherFlatInto on the root must agree
// with GlobalConcatv everywhere, for arbitrary shard shapes.
func TestQuickGatherConcatAgree(t *testing.T) {
	f := func(raw [][]int16, pRaw uint8) bool {
		p := 1 + int(pRaw%10)
		shards := make([][]int64, p)
		for i := range shards {
			if i < len(raw) {
				shards[i] = make([]int64, len(raw[i]))
				for j, v := range raw[i] {
					shards[i][j] = int64(v)
				}
			}
		}
		good := true
		ok := quickRun(p, func(pr *machine.Proc) {
			gat, _ := GatherFlatInto(pr, shards[pr.ID()], 8, nil)
			all := GlobalConcatv(pr, shards[pr.ID()], 8)
			for src := 0; src < p; src++ {
				if !slices.Equal(all[src], shards[src]) {
					good = false
					return
				}
			}
			if pr.ID() == 0 && !slices.Equal(gat, slices.Concat(all...)) {
				good = false
			}
		})
		return ok && good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
