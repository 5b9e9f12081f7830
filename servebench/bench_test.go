package main

import (
	"encoding/json"
	"errors"
	"math"
	"net"
	"os"
	"reflect"
	"regexp"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/rpc"
	"repro/internal/text"
)

func TestPlanDeterministicPerSeed(t *testing.T) {
	corp := corpus.Build()
	for _, name := range workloadNames {
		sp := specs[name]
		sp.replay = 6000 // keep the test's streams small
		sp.passRequests = 1000
		a, err := newPlan(corp, sp, 7, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := newPlan(corp, sp, 7, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a.w.Requests, b.w.Requests) || !reflect.DeepEqual(a.moveAt, b.moveAt) {
			t.Errorf("%s: seed 7 generated two different streams", name)
		}
		c, err := newPlan(corp, sp, 8, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reflect.DeepEqual(a.w.Requests, c.w.Requests) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
		for i, rq := range a.w.Requests {
			if got := text.Tokenize(rq.Msg.Text()); !reflect.DeepEqual(got, rq.Msg.Words) {
				t.Fatalf("%s: request %d text %q tokenizes to %v, want %v", name, i, rq.Msg.Text(), got, rq.Msg.Words)
			}
		}
	}
}

func TestMetricNames(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: bad name or unit", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestMetricsMatchBenchmarkJSON keeps the command's metric lists and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, want []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(want) != len(got) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(want), len(got))
			return
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit || want[i].better != got[i].Better {
				t.Errorf("%s metric %d: %+v here, %+v in BENCHMARK.json", kind, i, want[i], got[i])
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, want %q", i, w.Name, workloadNames[i])
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{1000, 99, 990, true},  // 10 samples beyond
		{999, 99, 990, false},  // 9 beyond
		{2000, 99, 1980, true}, // 20 beyond
		{100, 50, 50, true},
		{19, 50, 10, false},
		{20, 50, 10, true},
		{100, 90, 90, true},
		{99, 90, 90, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("p%g of 1..%d = %v, %v; want %v, %v", tc.q, tc.n, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("p50 of no samples reported as supported")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestPhaseKeepsCalmWindows(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		stolen []float64
		target int
		want   []int
	}{
		// Enough calm windows: exactly those, the ramp window never.
		{[]float64{inf, 0, 0.5, 0.01, 0, 0.3}, 4, []int{1, 3, 4}},
		// Too few calm: the target/2 least disturbed, in window order.
		{[]float64{inf, 0, 0.5, 0.01, 0, 0.3}, 10, []int{1, 2, 3, 4, 5}},
		{[]float64{0.2, 0.1, 0.05, 0.3, 0.07, 0.06, 0.5, 0.4, 0.9, 0.08, 0.6}, 10, []int{1, 2, 4, 5, 9}},
		// Fewer windows than that: all but the ramp.
		{[]float64{inf, 0.5, 0.6}, 10, []int{1, 2}},
	} {
		p := &phase{stolen: tc.stolen, want: tc.target}
		if got := p.kept(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("kept(%v) = %v, want %v", tc.stolen, got, tc.want)
		}
	}
}

// fakeDaemon answers transmit frames, sleeping stall before answering
// request number stallAt (0-based), and returns its address.
func fakeDaemon(t *testing.T, stallAt int64, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var n atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					if _, err := rpc.ReadRequest(c); err != nil {
						return
					}
					if n.Add(1)-1 == stallAt {
						time.Sleep(stall)
					}
					if err := rpc.Write(c, &rpc.Response{OK: true, Restored: "x"}); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestOpenLoopTimesFromDueTime stalls one answer of a fake daemon: the
// requests due during the stall queue behind it on the connection, and
// their latency, measured from when they were due, must show the stall
// even though their own round trips are short.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n, rate, stall = 40, 1000.0, 60 * time.Millisecond
	run := func(stallAt int64) []sample {
		c := &conn{addr: fakeDaemon(t, stallAt, stall)}
		defer c.close()
		frames := make([][]byte, n)
		reqs := make([]int, n)
		for i := range frames {
			frames[i] = encodeFrame(&rpc.Request{Op: rpc.OpTransmit, User: "u", Text: "hello"})
			reqs[i] = i
		}
		return openLoop([]*conn{c}, reqs, make([]int, n), rate, frames, n, func() {})
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	calm := run(-1)
	stalled := run(5)
	for i, s := range stalled {
		if s.fail != "" {
			t.Fatalf("request %d failed: %s", i, s.fail)
		}
	}
	// Request 6 was due 1ms after the stalled one and waited out the stall.
	s := stalled[6]
	if got := ms(s.done - s.due); got < ms(stall)*0.8 {
		t.Errorf("latency from due of the request behind the stall = %.1fms, want >= %.1fms", got, ms(stall)*0.8)
	}
	if rtt := ms(s.done - s.sent); rtt > ms(stall)/2 {
		t.Errorf("its own round trip = %.1fms; the stall should sit before the send", rtt)
	}
	if got := ms(calm[6].done - calm[6].due); got > ms(stall)/2 {
		t.Errorf("without a stall the same request took %.1fms from due", got)
	}
}

// TestClosedLoopPipelined drives a fake daemon from two connections,
// each keeping several requests outstanding, and checks that every
// request is sent once and answered once, in windows.
func TestClosedLoopPipelined(t *testing.T) {
	addr := fakeDaemon(t, -1, 0)
	cs := []*conn{{addr: addr}, {addr: addr}}
	defer cs[0].close()
	defer cs[1].close()
	const n = 500
	frames := make([][]byte, n)
	reqs := make([]int, n)
	for i := range frames {
		frames[i] = encodeFrame(&rpc.Request{Op: rpc.OpTransmit, User: "u", Text: "hello"})
		reqs[i] = i
	}
	windows := 0
	ss := closedLoop(cs, reqs, frames, 4, 5*time.Millisecond, func(busy time.Duration) bool {
		if busy <= 0 {
			t.Errorf("window %d busy for %v", windows, busy)
		}
		windows++
		return false
	})
	if len(ss) != n {
		t.Fatalf("%d calls made, want %d", len(ss), n)
	}
	seen := make(map[int]bool)
	for _, s := range ss {
		if s.fail != "" || s.resp == nil || s.resp.Restored != "x" {
			t.Fatalf("request %d: fail %q, response %+v", s.req, s.fail, s.resp)
		}
		if seen[s.req] {
			t.Fatalf("request %d answered twice", s.req)
		}
		seen[s.req] = true
		if s.win < 0 || s.win >= windows || s.done < s.sent {
			t.Fatalf("request %d: window %d of %d, sent %v, done %v", s.req, s.win, windows, s.sent, s.done)
		}
	}
}

// TestChildrenDoNotOutliveRun spawns stand-in daemons (this test binary,
// re-executed to answer pings), waits for them to serve, and checks that
// stop and shutdown leave none running.
func TestChildrenDoNotOutliveRun(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("SERVEBENCH_HELPER_DAEMON", "1") // inherited by the children
	ps := newProcSet()
	var pids []int
	for i := 0; i < 3; i++ {
		addr, err := freeAddr()
		if err != nil {
			t.Fatal(err)
		}
		c, err := ps.start("fake edged", exe, "-test.run=TestHelperDaemon", "--", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := waitReady(c, addr, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		pids = append(pids, c.cmd.Process.Pid)
		if i == 0 {
			ps.stop(c) // the path a finished setup boot takes
		}
	}
	if got := ps.live(); got != 2 {
		t.Fatalf("%d children tracked, want 2", got)
	}
	ps.shutdown()
	if got := ps.live(); got != 0 {
		t.Errorf("%d children left after shutdown", got)
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("child %d still exists after shutdown (kill 0: %v)", pid, err)
		}
	}
	if _, err := ps.start("late", exe); err == nil {
		t.Error("a shut-down process set started a child")
	}
}

// TestHelperDaemon is the stand-in daemon of TestChildrenDoNotOutliveRun:
// it answers every frame with OK until killed.
func TestHelperDaemon(t *testing.T) {
	if os.Getenv("SERVEBENCH_HELPER_DAEMON") != "1" {
		t.Skip("helper process for TestChildrenDoNotOutliveRun")
	}
	ln, err := net.Listen("tcp", os.Args[len(os.Args)-1])
	if err != nil {
		os.Exit(3)
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			os.Exit(4)
		}
		go func() {
			defer c.Close()
			for {
				if _, err := rpc.ReadRequest(c); err != nil {
					return
				}
				if rpc.Write(c, &rpc.Response{OK: true}) != nil {
					return
				}
			}
		}()
	}
}
