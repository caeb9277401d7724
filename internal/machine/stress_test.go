package machine

import (
	"sync/atomic"
	"testing"
)

// TestManyMessagesPerPairNoDeadlock pushes many messages through a single
// ordered pair before the receiver takes any: links are unbounded FIFO
// queues, so the sender never blocks, and the receiver must drain them
// all in order.
func TestManyMessagesPerPairNoDeadlock(t *testing.T) {
	const k = 10000
	var sum int64
	_, err := Run(DefaultParams(2), func(pr *Proc) {
		if pr.ID() == 0 {
			for i := 0; i < k; i++ {
				pr.Send(1, i, i, 8)
			}
		} else {
			for i := 0; i < k; i++ {
				atomic.AddInt64(&sum, int64(pr.Recv(0, i).(int)))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(k) * (k - 1) / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

// TestAllToAllStorm exercises every ordered pair simultaneously.
func TestAllToAllStorm(t *testing.T) {
	const p = 16
	const rounds = 20
	_, err := Run(DefaultParams(p), func(pr *Proc) {
		me := pr.ID()
		for r := 0; r < rounds; r++ {
			for d := 0; d < p; d++ {
				if d != me {
					pr.Send(d, r, me*1000+r, 8)
				}
			}
			for s := 0; s < p; s++ {
				if s != me {
					got := pr.Recv(s, r).(int)
					if got != s*1000+r {
						t.Errorf("round %d from %d: got %d", r, s, got)
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClockMonotonicUnderTraffic checks that simulated clocks never move
// backwards regardless of interleaving.
func TestClockMonotonicUnderTraffic(t *testing.T) {
	const p = 8
	_, err := Run(DefaultParams(p), func(pr *Proc) {
		last := 0.0
		check := func() {
			if pr.Now() < last {
				t.Errorf("proc %d clock moved backwards: %g -> %g", pr.ID(), last, pr.Now())
			}
			last = pr.Now()
		}
		for r := 0; r < 50; r++ {
			dst := (pr.ID() + 1 + r) % p
			src := (pr.ID() - 1 - r%p + 2*p) % p
			if dst != pr.ID() {
				pr.Send(dst, r, nil, 64)
				check()
			}
			if src != pr.ID() {
				pr.Recv(src, r)
				check()
			}
			pr.Charge(int64(r))
			check()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSimTimeIndependentOfHostScheduling runs the same communication
// pattern many times; the simulated result must be bit-identical
// regardless of goroutine interleavings.
func TestSimTimeIndependentOfHostScheduling(t *testing.T) {
	const p = 8
	pattern := func(pr *Proc) {
		for r := 0; r < 10; r++ {
			dst := (pr.ID() + r + 1) % p
			src := (pr.ID() - r - 1 + 10*p) % p
			if dst != pr.ID() {
				pr.Send(dst, r, r, 16)
			}
			if src != pr.ID() {
				pr.Recv(src, r)
			}
			pr.Charge(100)
		}
	}
	first, err := Run(DefaultParams(p), pattern)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		sim, err := Run(DefaultParams(p), pattern)
		if err != nil {
			t.Fatal(err)
		}
		if sim != first {
			t.Fatalf("trial %d: simulated time %g differs from %g", trial, sim, first)
		}
	}
}
