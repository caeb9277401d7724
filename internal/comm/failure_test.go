package comm

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"parsel/internal/machine"
)

// runWithin runs body on m and fails the test if Run has not returned
// within the deadline (a hung fabric would otherwise stall the whole
// test binary until its global timeout).
func runWithin(t *testing.T, m *machine.Machine, body func(*machine.Proc)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := m.Run(body)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: the failed run hung its machine")
		return nil
	}
}

// probe is a run touching every link shape a failed run can leave
// behind: a combine, an all-to-all transport and a gather.
type probe struct {
	sim      uint64
	counters []machine.Counters
	sums     []int64
	gathered []int64
}

func runProbe(t *testing.T, m *machine.Machine) probe {
	t.Helper()
	p := m.Params().Procs
	out := probe{counters: make([]machine.Counters, p), sums: make([]int64, p)}
	sim, err := m.Run(func(pr *machine.Proc) {
		me := pr.ID()
		out.sums[me] = CombineInt64(pr, int64(me*me+1))
		blocks := make([][]int64, p)
		counts := make([]int64, p)
		for j := range blocks {
			blocks[j] = transportPattern(p, me, j)
			counts[j] = int64(len(transportPattern(p, j, me)))
		}
		in := TransportKnown(pr, blocks, counts, machine.WordBytes, nil)
		var mine []int64
		for _, blk := range in {
			mine = append(mine, blk...)
		}
		if all, _ := GatherFlatInto(pr, mine, machine.WordBytes, nil); me == 0 {
			out.gathered = all
		}
		out.counters[me] = pr.Counters
	})
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	out.sim = math.Float64bits(sim)
	return out
}

// checkRecovered asserts that a machine whose last run failed now runs
// the probe bit-identically to a fresh machine.
func checkRecovered(t *testing.T, m *machine.Machine) {
	t.Helper()
	fresh, err := machine.New(m.Params())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want := runProbe(t, fresh)
	got := runProbe(t, m)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run after the failure differs from a fresh machine:\n got  %+v\n want %+v", got, want)
	}
}

// TestPanicDuringCombine panics one processor while its peers wait for
// its contribution inside CombineInt64: Run must report the panic, not
// hang, and leave the machine as good as new.
func TestPanicDuringCombine(t *testing.T) {
	m, err := machine.New(machine.DefaultParams(8))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = runWithin(t, m, func(pr *machine.Proc) {
		if pr.ID() == 5 {
			panic("boom in combine")
		}
		CombineInt64(pr, int64(pr.ID()))
	})
	if err == nil || !strings.Contains(err.Error(), "boom in combine") {
		t.Fatalf("Run = %v, want the processor's panic", err)
	}
	checkRecovered(t, m)
}

// TestPanicDuringTransport makes one processor fail inside
// TransportKnown after it has already exchanged some blocks: its count
// check trips, and the peers still expecting its blocks must unwind.
func TestPanicDuringTransport(t *testing.T) {
	const p = 8
	m, err := machine.New(machine.DefaultParams(p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = runWithin(t, m, func(pr *machine.Proc) {
		me := pr.ID()
		blocks := make([][]int64, p)
		counts := make([]int64, p)
		for j := range blocks {
			blocks[j] = transportPattern(p, me, j)
			counts[j] = int64(len(transportPattern(p, j, me)))
		}
		if me == 3 {
			counts[(me-4+p)%p]++ // mismatch on the fourth exchange
		}
		TransportKnown(pr, blocks, counts, machine.WordBytes, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "unexpected element count") {
		t.Fatalf("Run = %v, want the count-check panic", err)
	}
	checkRecovered(t, m)
}

// TestDeadlockReported runs a body whose processors all wait on a Recv
// that nobody sends: Run must report the deadlock instead of hanging.
func TestDeadlockReported(t *testing.T) {
	const p = 8
	m, err := machine.New(machine.DefaultParams(p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = runWithin(t, m, func(pr *machine.Proc) {
		CombineInt64(pr, 1) // leave clocks and counters mid-run
		pr.Recv((pr.ID()+1)%p, 99)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run = %v, want a deadlock error", err)
	}
	checkRecovered(t, m)
}
