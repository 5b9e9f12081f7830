package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The reference machine is a 2-vCPU virtual machine whose host runs
// other tenants: in bursts, the hypervisor takes the vCPUs away for
// milliseconds at a time ("steal", seen as 5-30% of a whole run). Nothing
// the program does moves steal, but it stalls whatever runs, so a window
// of a phase with steal measures the neighbours. The benchmark reads the
// machine's CPU accounting at every window boundary, extends a phase
// until it has enough calm windows, and leaves the others out of the
// windowed metrics. Where /proc/stat cannot be read, every window counts.

// maxWindowSteal is the share of CPU time stolen above which a window
// does not count, when enough other windows do.
const maxWindowSteal = 0.02

// readCPU returns the machine's cumulative stolen and total CPU time, in
// clock ticks, from the first line of /proc/stat.
func readCPU() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0, false
	}
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// phase records, window by window, how much CPU time the host stole
// during a timed phase. Its first ramp windows never count: they absorb
// the change of load from the previous phase. A phase goes on, up to max
// windows, until want windows were calm.
type phase struct {
	ramp, want, max int
	stolen          []float64 // share of CPU time stolen per window; +Inf for ramp windows
	steal, total    uint64
	ok              bool
}

func newPhase(ramp, want, max int) *phase {
	p := &phase{ramp: ramp, want: want, max: max}
	p.steal, p.total, p.ok = readCPU()
	return p
}

// endWindow closes the current window and reports whether the phase is
// done.
func (p *phase) endWindow() bool {
	steal, total, ok := readCPU()
	share := 0.0 // unknown counts as calm
	switch {
	case len(p.stolen) < p.ramp:
		share = math.Inf(1)
	case ok && p.ok && total > p.total:
		share = float64(steal-p.steal) / float64(total-p.total)
	}
	p.stolen = append(p.stolen, share)
	p.steal, p.total, p.ok = steal, total, ok
	return p.done()
}

func (p *phase) done() bool {
	return len(p.stolen) >= p.max || p.calmCount() >= p.want
}

func (p *phase) calmCount() int {
	n := 0
	for _, s := range p.stolen {
		if s <= maxWindowSteal {
			n++
		}
	}
	return n
}

// kept returns the windows the windowed metrics use: the calm ones, or,
// when fewer than want/2 were calm, the want/2 least disturbed ones.
func (p *phase) kept() []int {
	idx := make([]int, 0, len(p.stolen))
	for i := range p.stolen {
		if !math.IsInf(p.stolen[i], 1) {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.stolen[idx[a]] < p.stolen[idx[b]] })
	n := p.calmCount()
	if n < p.want/2 {
		n = min(p.want/2, len(idx))
	}
	idx = idx[:n]
	sort.Ints(idx)
	return idx
}

// calmGate delays timed work until the host is calm: before each boot
// and each timed phase it probes the steal over short intervals and
// returns once one is calm, or once the run's whole waiting budget is
// spent. It moves only when work happens, never what is done.
type calmGate struct {
	budget time.Duration // left to wait in this run
	waited time.Duration
}

const (
	calmProbe  = 250 * time.Millisecond
	calmBudget = 5 * time.Second
)

func (g *calmGate) wait() {
	for g.budget > 0 {
		s0, t0, ok := readCPU()
		if !ok {
			return
		}
		time.Sleep(calmProbe)
		g.budget -= calmProbe
		g.waited += calmProbe
		s1, t1, ok := readCPU()
		if !ok || t1 == t0 || float64(s1-s0)/float64(t1-t0) <= maxWindowSteal {
			return
		}
	}
}
