package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK; defaultSlack the kernel's
// default timer slack.
const (
	prSetTimerSlack = 29
	defaultSlack    = 50 * time.Microsecond
	pacerSlack      = time.Microsecond
)

// pacer sleeps the open loop's dispatcher until each request is due.
// time.Sleep wakes up to a millisecond late for sub-millisecond waits,
// which would make the generator, not the program, set the latency of a
// fast workload; a raw nanosleep on a thread of its own with a 1µs timer
// slack wakes within tens of microseconds.
type pacer struct{}

// newPacer pins the calling goroutine to its thread and tightens the
// thread's timer slack until close.
func newPacer() pacer {
	runtime.LockOSThread()
	setTimerSlack(pacerSlack)
	return pacer{}
}

func (pacer) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the request less late
}

// close restores the thread and unpins it. Unpinning, rather than letting
// the locked goroutine exit, keeps the thread alive: a spawned daemon's
// parent-death signal follows the thread that forked it.
func (pacer) close() {
	setTimerSlack(defaultSlack)
	runtime.UnlockOSThread()
}

func setTimerSlack(d time.Duration) {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, uintptr(d), 0) // best effort: a failure only loosens pacing
}
