package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/rpc"
)

// child is one spawned process. A goroutine reaps it as soon as it
// exits; done closes once it has.
type child struct {
	name string
	cmd  *exec.Cmd
	out  *tailBuffer
	done chan struct{}
	err  error // Wait's result, valid after done
}

// maxRSSMB returns the child's peak resident set size in MiB. Valid once
// the child has been reaped.
func (c *child) maxRSSMB() float64 {
	if c.cmd.ProcessState == nil {
		return 0
	}
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// peakRSSMB returns the running child's peak resident set size so far in
// MiB, from /proc, or 0 where that cannot be read.
func peakRSSMB(c *child) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// procSet owns every process a run spawns, so that success, a failed
// check, the run budget and a signal all end in the same kill-and-reap.
type procSet struct {
	mu       sync.Mutex
	children map[*child]struct{}
}

func newProcSet() *procSet { return &procSet{children: make(map[*child]struct{})} }

// start launches bin with args. The kernel kills the child if this
// process dies first (Pdeathsig), so not even a SIGKILL of the benchmark
// leaves a daemon behind.
func (ps *procSet) start(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, out: &tailBuffer{max: 8 << 10}, done: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stdout = c.out
	c.cmd.Stderr = c.out
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.children == nil {
		return nil, fmt.Errorf("start %s: process set is shut down", name)
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	ps.children[c] = struct{}{}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// run starts bin and waits for it to exit successfully.
func (ps *procSet) run(name, bin string, args ...string) error {
	c, err := ps.start(name, bin, args...)
	if err != nil {
		return err
	}
	<-c.done
	ps.forget(c)
	if c.err != nil {
		return fmt.Errorf("%s: %w\n%s", name, c.err, c.out.String())
	}
	return nil
}

// stop kills c and waits until it has been reaped.
func (ps *procSet) stop(c *child) {
	_ = c.cmd.Process.Kill() // fails only if it already exited; reaped below either way
	<-c.done
	ps.forget(c)
}

func (ps *procSet) forget(c *child) {
	ps.mu.Lock()
	delete(ps.children, c)
	ps.mu.Unlock()
}

// shutdown kills and reaps every remaining child and refuses new ones.
// Safe to call more than once and from a signal handler goroutine.
func (ps *procSet) shutdown() {
	ps.mu.Lock()
	left := ps.children
	ps.children = nil
	ps.mu.Unlock()
	for c := range left {
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// live returns how many children have not yet been reaped.
func (ps *procSet) live() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.children)
}

// freeAddr returns a loopback address with a port the kernel just
// handed out and released.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", fmt.Errorf("release port: %w", err)
	}
	return addr, nil
}

// waitReady polls addr with pings until the daemon answers, the child
// exits, or timeout passes.
func waitReady(c *child, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-c.done:
			return fmt.Errorf("%s exited during boot: %v\n%s", c.name, c.err, c.out.String())
		default:
		}
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			cl := rpc.NewClient(conn)
			cl.SetTimeout(time.Second)
			err = cl.Ping()
			cl.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not serving on %s after %v\n%s", c.name, addr, timeout, c.out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tailBuffer keeps the last max bytes written to it: a child's log, kept
// for the error message when it misbehaves.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
