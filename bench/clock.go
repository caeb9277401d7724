package main

import (
	"slices"
	"syscall"
	"time"
)

// The benchmark times the program in CPU time scaled to a reference host
// speed, not in wall time. On a shared 2-vCPU host, wall time measures the
// neighbours: the same query took 1.7 times as long in some seconds as in
// others, while the host stole CPU time, woke idle vCPUs late, or ran
// other guests' work beside ours. Four things take most of that out:
//
//   - the process runs on one P (GOMAXPROCS=1; see run), so a query never
//     waits for an idle vCPU to wake and its CPU time is all work;
//   - CPU time leaves out the time the host gave our vCPU to others;
//   - a fixed probe, run every probeWindow, measures how fast the host
//     runs code like the program's right then, and every CPU time is
//     scaled by probeRef over the probes on either side of it;
//   - a phase's CPU figures come from the cheaper half of its windows
//     (runPhase).
//
// A scaled time is what the work would have taken with the host running
// the probe in probeRef.

// probeRef is the probe's CPU time, in milliseconds, that scaled times
// refer to: about its time on an idle 2-vCPU Xeon host.
const probeRef = 1.0

// probeWindow is how long the clients run between two probes: short
// enough that a probe sees the host as the queries beside it did. A
// slow spell of the host can last less than a second.
const probeWindow = 100 * time.Millisecond

// cpuTime is the CPU time the process has used so far, user and system,
// on all its threads. The kernel charges no thread for time it waited to
// run, on the guest or on the host (steal).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probeKeys is the probe's sort input: fixed pseudo-random keys.
var probeKeys = func() []int64 {
	keys := make([]int64, 4096)
	x := uint64(88172645463325252)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = int64(x)
	}
	return keys
}()

// hostProbe runs a fixed piece of work shaped like the engine's — sorting
// a small slice, and passing messages back and forth between two
// goroutines over channels — and returns its CPU time in milliseconds:
// about probeRef on an idle host. Slow spells of a shared host slow this
// work nearly as much as they slow queries (a register-only loop barely
// notices them).
func hostProbe() float64 {
	buf := make([]int64, len(probeKeys))
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	t := cpuTime()
	for range 2 {
		copy(buf, probeKeys)
		slices.Sort(buf)
	}
	for i := range 1000 {
		ping <- i
		<-pong
	}
	d := cpuTime() - t
	close(ping)
	<-pong
	return float64(d) / 1e6
}

// scaled converts d, measured between two probes that took p0 and p1
// milliseconds, to the reference host speed.
func scaled(d time.Duration, p0, p1 float64) time.Duration {
	return time.Duration(float64(d) * probeRef / ((p0 + p1) / 2))
}
