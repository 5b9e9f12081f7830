package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference machine's speed drifts with its host's other tenants:
// within five minutes, back-to-back runs of one workload saw boot time,
// closed-loop rate and latency all move by 30-50% together, with no time
// stolen. A run therefore pauses its load about 35 times to run a fixed
// arithmetic probe on every core, and the wall-clock end-to-end metrics
// are quoted at the reference probe speed refSpeed: times multiplied, and
// rates divided, by the square root of the run's median probe speed over
// refSpeed. The serving path moved about half as much as the pure
// arithmetic probe (it also waits on wake-ups and the kernel), and of the
// exponents 0, 0.5, 0.75 and 1, 0.5 left the smallest spreads on two sets
// of ten runs across which the host drifted (see README.md). The probe is
// the benchmark's own code and never calls the program, so a change to
// the program moves a scaled metric exactly as much as the raw one; the
// raw values are printed with every run.

// probeTime is how long one probe runs on every core.
const probeTime = 50 * time.Millisecond

// refSpeed is the probe speed, in loop passes per second summed over the
// cores, at which wall-clock metrics are quoted: about the median the
// reference machine (2 vCPUs) showed when the probe was added.
const refSpeed = 1.8e6

// probeSpeed runs a fixed arithmetic loop on every core the benchmark
// may use, one thread pinned to each, for d, and returns the loop passes
// per second summed over the cores.
func probeSpeed(d time.Duration) float64 {
	n := runtime.GOMAXPROCS(0)
	passes := make([]int, n)
	var ready, wg sync.WaitGroup
	ready.Add(n)
	gate := make(chan time.Time)
	for i := range passes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			pin(1 << i)
			defer pin(1<<n - 1)
			ready.Done()
			start := <-gate
			passes[i] = spin(start.Add(d))
		}()
	}
	ready.Wait()
	start := time.Now()
	for range passes {
		gate <- start
	}
	wg.Wait()
	total := 0
	for _, p := range passes {
		total += p
	}
	return float64(total) / d.Seconds()
}

// pin sets the calling thread's CPU affinity to mask (best effort).
func pin(mask uint64) {
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

// spin runs passes of a fixed multiply-add loop over an L1-resident
// array until the deadline and returns how many it completed.
func spin(deadline time.Time) int {
	var a [1024]float64
	for i := range a {
		a[i] = float64(i)
	}
	n := 0
	for time.Now().Before(deadline) {
		s := 0.0
		for i := range a {
			s += a[i] * a[(i*7)&1023]
		}
		a[n&1023] = s * 1e-9
		n++
	}
	return n
}
