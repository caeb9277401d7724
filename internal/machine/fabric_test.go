package machine

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDroppedMachinesReleaseCoroutines builds machines, runs each once
// and drops them without Close: the runtime cleanup must stop their
// coroutines, so the goroutine count returns to its baseline after GC.
func TestDroppedMachinesReleaseCoroutines(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		m, err := New(DefaultParams(8))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(func(pr *Proc) {
			pr.Send((pr.ID()+1)%8, 1, nil, 8)
			pr.Recv((pr.ID()+7)%8, 1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n < base+50*8 {
		t.Fatalf("%d goroutines with 50 live machines, want at least %d: coroutines not counted", n, base+50*8)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after dropping 50 machines, baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGoexitOnProcessor ends one processor's body with runtime.Goexit
// (as t.FailNow does) while its peers wait for it: the goroutine calling
// Run exits too, as it would had it called Goexit itself, and the
// machine runs cleanly afterwards.
func TestGoexitOnProcessor(t *testing.T) {
	m, err := New(DefaultParams(4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	returned := make(chan bool, 1)
	go func() {
		finished := false
		defer func() { returned <- finished }()
		m.Run(func(pr *Proc) {
			if pr.ID() == 2 {
				runtime.Goexit()
			}
			pr.Recv(2, 1)
		})
		finished = true
	}()
	if <-returned {
		t.Fatal("Run returned normally after a processor's Goexit")
	}
	sim, err := m.Run(func(pr *Proc) {
		pr.Send((pr.ID()+1)%4, 1, nil, 8)
		pr.Recv((pr.ID()+3)%4, 1)
	})
	if err != nil || sim <= 0 {
		t.Fatalf("run after Goexit: sim %g, err %v", sim, err)
	}
}

// TestDeadlockNamesWaits checks that a deadlock error says who waits on
// whom.
func TestDeadlockNamesWaits(t *testing.T) {
	_, err := Run(DefaultParams(3), func(pr *Proc) {
		if pr.ID() != 0 {
			pr.Recv(0, 1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") ||
		!strings.Contains(err.Error(), "1<-0 2<-0") {
		t.Fatalf("Run = %v, want a deadlock naming 1<-0 2<-0", err)
	}
}
