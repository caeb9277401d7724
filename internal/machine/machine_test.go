package machine

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestDefaultParamsValidate(t *testing.T) {
	for _, p := range []int{1, 2, 3, 64, 128} {
		if err := DefaultParams(p).Validate(); err != nil {
			t.Errorf("DefaultParams(%d) invalid: %v", p, err)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero procs", func(p *Params) { p.Procs = 0 }},
		{"negative procs", func(p *Params) { p.Procs = -3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := DefaultParams(4)
			tc.mut(&params)
			if err := params.Validate(); err == nil {
				t.Fatal("expected validation error, got nil")
			}
			if _, err := New(params); err == nil {
				t.Fatal("New accepted invalid params")
			}
		})
	}
}

func TestRunAllProcessorsExecute(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 17} {
		var count int64
		seen := make([]int64, p)
		_, err := Run(DefaultParams(p), func(pr *Proc) {
			atomic.AddInt64(&count, 1)
			atomic.AddInt64(&seen[pr.ID()], 1)
			if pr.Procs() != p {
				t.Errorf("Procs() = %d, want %d", pr.Procs(), p)
			}
		})
		if err != nil {
			t.Fatalf("Run(p=%d): %v", p, err)
		}
		if count != int64(p) {
			t.Fatalf("Run(p=%d) executed %d bodies", p, count)
		}
		for id, c := range seen {
			if c != 1 {
				t.Errorf("processor %d ran %d times", id, c)
			}
		}
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	_, err := Run(DefaultParams(3), func(pr *Proc) {
		if pr.ID() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("expected error from panicking processor")
	}
}

func TestChargeAdvancesClock(t *testing.T) {
	params := DefaultParams(1)
	_, err := Run(params, func(pr *Proc) {
		pr.Charge(1000)
		want := 1000 * SecPerOp
		if math.Abs(pr.Now()-want) > 1e-15 {
			t.Errorf("Now() = %g, want %g", pr.Now(), want)
		}
		if pr.Counters.Ops != 1000 {
			t.Errorf("Ops = %d, want 1000", pr.Counters.Ops)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChargeSecondsAndAdvanceTo(t *testing.T) {
	params := DefaultParams(1)
	_, err := Run(params, func(pr *Proc) {
		pr.Charge(1000)
		want := 1000 * SecPerOp
		pr.AdvanceTo(want / 2) // in the past: no-op
		if pr.Now() != want {
			t.Errorf("Now() = %g after AdvanceTo into the past, want %g", pr.Now(), want)
		}
		pr.AdvanceTo(0.75)
		if pr.Now() != 0.75 {
			t.Errorf("Now() = %g, want 0.75", pr.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvPayloadAndTiming(t *testing.T) {
	params := DefaultParams(2)
	const bytes = 800
	sim, err := Run(params, func(pr *Proc) {
		switch pr.ID() {
		case 0:
			pr.Send(1, 7, []int64{1, 2, 3}, bytes)
			wantSender := Tau + Mu*bytes
			if math.Abs(pr.Now()-wantSender) > 1e-12 {
				t.Errorf("sender clock %g, want %g", pr.Now(), wantSender)
			}
		case 1:
			got := pr.Recv(0, 7).([]int64)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("payload = %v", got)
			}
			// Receiver: arrival (tau + mu*b) + drain (mu*b).
			want := Tau + 2*Mu*bytes
			if math.Abs(pr.Now()-want) > 1e-12 {
				t.Errorf("receiver clock %g, want %g", pr.Now(), want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSim := Tau + 2*Mu*bytes
	if math.Abs(sim-wantSim) > 1e-12 {
		t.Errorf("sim time %g, want %g", sim, wantSim)
	}
}

func TestSendToSelfIsFree(t *testing.T) {
	_, err := Run(DefaultParams(1), func(pr *Proc) {
		pr.Send(0, 3, 42, 8)
		got := pr.Recv(0, 3).(int)
		if got != 42 {
			t.Errorf("self payload = %d", got)
		}
		if pr.Now() != 0 {
			t.Errorf("self send advanced clock to %g", pr.Now())
		}
		if pr.Counters.MsgsSent != 0 || pr.Counters.MsgsReceived != 0 {
			t.Errorf("self send counted as network traffic: %+v", pr.Counters)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessagesOrderedPerPair(t *testing.T) {
	_, err := Run(DefaultParams(2), func(pr *Proc) {
		const k = 100
		if pr.ID() == 0 {
			for i := 0; i < k; i++ {
				pr.Send(1, i, i, 8)
			}
		} else {
			for i := 0; i < k; i++ {
				if got := pr.Recv(0, i).(int); got != i {
					t.Errorf("message %d arrived out of order: %d", i, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMismatchPanics(t *testing.T) {
	_, err := Run(DefaultParams(2), func(pr *Proc) {
		if pr.ID() == 0 {
			pr.Send(1, 1, nil, 0)
		} else {
			pr.Recv(0, 2)
		}
	})
	if err == nil {
		t.Fatal("expected tag mismatch to surface as error")
	}
}

func TestCountersTrackTraffic(t *testing.T) {
	_, err := Run(DefaultParams(2), func(pr *Proc) {
		if pr.ID() == 0 {
			pr.Send(1, 0, nil, 100)
			pr.Send(1, 1, nil, 50)
			if pr.Counters.MsgsSent != 2 || pr.Counters.BytesSent != 150 {
				t.Errorf("sender counters %+v", pr.Counters)
			}
		} else {
			pr.Recv(0, 0)
			pr.Recv(0, 1)
			if pr.Counters.MsgsReceived != 2 || pr.Counters.BytesReceived != 150 {
				t.Errorf("receiver counters %+v", pr.Counters)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{MsgsSent: 1, BytesSent: 2, MsgsReceived: 3, BytesReceived: 4, Ops: 5}
	b := Counters{MsgsSent: 10, BytesSent: 20, MsgsReceived: 30, BytesReceived: 40, Ops: 50}
	a.Add(b)
	want := Counters{MsgsSent: 11, BytesSent: 22, MsgsReceived: 33, BytesReceived: 44, Ops: 55}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

func TestSharedRNGIdenticalAcrossProcessors(t *testing.T) {
	const p = 8
	draws := make([][]uint64, p)
	_, err := Run(DefaultParams(p), func(pr *Proc) {
		seq := make([]uint64, 16)
		for i := range seq {
			seq[i] = pr.Shared.Uint64()
		}
		draws[pr.ID()] = seq
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id < p; id++ {
		for i := range draws[0] {
			if draws[id][i] != draws[0][i] {
				t.Fatalf("shared stream diverges at proc %d draw %d", id, i)
			}
		}
	}
}

func TestLocalRNGDiffersAcrossProcessors(t *testing.T) {
	const p = 4
	first := make([]uint64, p)
	_, err := Run(DefaultParams(p), func(pr *Proc) {
		first[pr.ID()] = pr.Local.Uint64()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if first[i] == first[j] {
				t.Errorf("local streams of %d and %d coincide", i, j)
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (float64, []uint64) {
		vals := make([]uint64, 4)
		sim, err := Run(DefaultParams(4), func(pr *Proc) {
			v := pr.Local.Uint64()
			pr.Charge(int64(pr.ID()) * 10)
			if pr.ID() == 0 {
				pr.Send(1, 0, v, 8)
			} else if pr.ID() == 1 {
				pr.Recv(0, 0)
			}
			vals[pr.ID()] = v
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim, vals
	}
	sim1, v1 := run()
	sim2, v2 := run()
	if sim1 != sim2 {
		t.Errorf("sim times differ: %g vs %g", sim1, sim2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Errorf("rng draw %d differs across runs", i)
		}
	}
}

func TestSendInvalidDestinationPanics(t *testing.T) {
	_, err := Run(DefaultParams(1), func(pr *Proc) { pr.Send(5, 0, nil, 0) })
	if err == nil {
		t.Fatal("expected panic for invalid destination")
	}
	_, err = Run(DefaultParams(1), func(pr *Proc) { pr.Recv(-1, 0) })
	if err == nil {
		t.Fatal("expected panic for invalid source")
	}
	_, err = Run(DefaultParams(1), func(pr *Proc) { pr.Send(0, 0, nil, -4) })
	if err == nil {
		t.Fatal("expected panic for negative bytes")
	}
	_, err = Run(DefaultParams(1), func(pr *Proc) { pr.Charge(-1) })
	if err == nil {
		t.Fatal("expected panic for negative charge")
	}
}

func TestMachineReuse(t *testing.T) {
	m, err := New(DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		sim, err := m.Run(func(pr *Proc) {
			if pr.ID() == 0 {
				pr.Send(2, round, round, 8)
			}
			if pr.ID() == 2 {
				if got := pr.Recv(0, round).(int); got != round {
					t.Errorf("round %d payload %d", round, got)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if sim <= 0 {
			t.Errorf("round %d sim time %g", round, sim)
		}
	}
	if m.Params().Procs != 3 {
		t.Errorf("Params().Procs = %d", m.Params().Procs)
	}
}

// TestStateRestore checks the checkpoint/restore pair: a run that skips
// its first half and restores a checkpoint taken there ends with the
// same clocks, the same counters and the same next draws from both
// random streams as the run that executed the whole body.
func TestStateRestore(t *testing.T) {
	const p = 4
	type end struct {
		now             float64
		counters        Counters
		shared, local   uint64
		sharedN, localN uint64
	}
	// ring sends a draw to the next processor and receives the previous
	// one's, charging work proportional to what arrived.
	ring := func(pr *Proc, tag int) {
		pr.Send((pr.ID()+1)%p, tag, pr.Local.Uint64(), 8*(pr.ID()+1))
		v := pr.Recv((pr.ID()+p-1)%p, tag).(uint64)
		pr.Charge(int64(v%97) + int64(pr.Shared.IntN(50)))
	}
	checkpoints := make([]State, p)
	run := func(m *Machine, restore bool) (float64, []end) {
		ends := make([]end, p)
		sim, err := m.Run(func(pr *Proc) {
			if restore {
				pr.SetState(checkpoints[pr.ID()])
			} else {
				for round := 0; round < 3; round++ {
					ring(pr, round)
				}
				checkpoints[pr.ID()] = pr.State()
			}
			for round := 3; round < 6; round++ {
				ring(pr, round)
			}
			ends[pr.ID()] = end{
				now: pr.Now(), counters: pr.Counters,
				shared: pr.Shared.Uint64(), local: pr.Local.Uint64(),
				sharedN: pr.Shared.Uint64(), localN: pr.Local.Uint64(),
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim, ends
	}
	m, err := New(DefaultParams(p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	wantSim, want := run(m, false)
	// Restore on the same machine and on a fresh one of the same shape.
	other, err := New(DefaultParams(p))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	for i, mm := range []*Machine{m, other} {
		sim, got := run(mm, true)
		if math.Float64bits(sim) != math.Float64bits(wantSim) {
			t.Errorf("machine %d: restored run sim %v, full run %v", i, sim, wantSim)
		}
		for id := range got {
			if got[id] != want[id] {
				t.Errorf("machine %d processor %d: restored run ends %+v, full run %+v", i, id, got[id], want[id])
			}
		}
	}
	if checkpoints[0].Now == 0 || checkpoints[0].Counters.MsgsSent != 3 {
		t.Errorf("checkpoint taken at clock %v with %d sends, want a mid-body state", checkpoints[0].Now, checkpoints[0].Counters.MsgsSent)
	}
}
