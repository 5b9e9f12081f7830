package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/rpc"
	"repro/internal/semantic"
	"repro/internal/text"
)

// Output floors: a run whose accuracy falls below them is wrong, not
// slow. Set from the figures measured when the benchmark was added, with
// margin for seeds and channel noise.
var (
	wordAccFloor = map[string]float64{"crowd": 0.90, "personal": 0.70, "roam": 0.70}
	selAccFloor  = map[string]float64{"crowd": 0.95, "personal": 0.95, "roam": 0.95}
)

// runner carries one workload run's state.
type runner struct {
	procs   *procSet
	bin     string
	work    string
	corp    *corpus.Corpus
	seconds float64
	trace   bool

	name              string
	calm              calmGate
	metrics           map[string]float64
	failed            []string
	notes             []string
	attempted, failsN int64
	speeds            []float64 // probe speeds measured during the run
}

// probe measures the host's speed once (see probe.go).
func (r *runner) probe() { r.speeds = append(r.speeds, probeSpeed(probeTime)) }

// scaleToReference quotes the wall-clock end-to-end metrics at the
// reference probe speed and reports the run's speed per layer.
func (r *runner) scaleToReference() {
	speed := median(r.speeds) / refSpeed
	r.metrics["loadgen.host_speed"] = speed
	if !(speed > 0) {
		r.check(false, "host speed probe read %v", speed)
		return
	}
	r.note("host ran the probe at %.4g of the reference speed over %d probes; unscaled setup_s %.6g s, sat_rps %.6g 1/s, lat_p50_ms %.6g ms, lat_p90_ms %.6g ms",
		speed, len(r.speeds), r.metrics["setup_s"], r.metrics["sat_rps"], r.metrics["lat_p50_ms"], r.metrics["lat_p90_ms"])
	k := math.Sqrt(speed)
	r.metrics["setup_s"] *= k
	r.metrics["lat_p50_ms"] *= k
	r.metrics["lat_p90_ms"] *= k
	r.metrics["sat_rps"] /= k
}

func (r *runner) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed = append(r.failed, fmt.Sprintf(format, args...))
	}
}

func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// pct sets metric name to the q-th percentile of xs. A percentile the
// sample does not support fails the run when required; an empty sample
// that is not required reports 0.
func (r *runner) pct(name string, xs []float64, q float64, required bool) {
	v, ok := percentile(xs, q)
	if !ok && (required || len(xs) > 0) {
		r.check(!required, "%s: %d samples do not support p%g", name, len(xs), q)
		r.note("%s: p%g unsupported by %d samples, not reported", name, q, len(xs))
		v = 0
	}
	r.metrics[name] = v
}

// A timed phase is cut into windows (a run's seconds over windows +
// closedWindows each). Its latency percentiles pool, and its rate is the
// median over, the windows in which the host stole no more than
// maxWindowSteal of the CPU time (see steal.go), or the least disturbed
// half of the wanted number when fewer were calm. The latency phase runs until
// windows of its windows were calm, up to maxWindows; the closed loop,
// whose rate moves most with the host, until closedWindows were, up to
// maxClosedWindows.
const (
	windows          = 20
	maxWindows       = 28
	closedWindows    = 30
	maxClosedWindows = 36
)

// windowed sets metric name to the median of the per-window values vals
// over the phase's kept windows.
func (r *runner) windowed(name string, vals []float64, ph *phase) {
	kept := ph.kept()
	var xs []float64
	for _, i := range kept {
		xs = append(xs, vals[i])
	}
	r.note("%s: median of %d of %d windows %.4g", name, len(kept), len(vals), vals)
	r.metrics[name] = median(xs)
}

// latency sets lat_p50_ms and lat_p90_ms to the median, over the phase's
// kept windows, of each window's own percentile, and client.lat_p99_ms to
// the p99 of the kept windows' pooled samples. When the host preempts the
// vCPUs in spells, pooling lets the few windows a spell hit set the tail
// of every run (crowd's pooled p90 read 0.6-3.5 ms in some runs, 0.15 ms
// in others); the median over windows leaves them out. The gated tail is
// p90: on the reference VM the p99 of a sub-millisecond workload is set
// by where hypervisor preemptions and garbage-collection cycles fall (it
// spread by more than 100% across seeds when the benchmark was added), so
// p99 is printed and reported with the per-layer metrics, ungated.
func (r *runner) latency(lat [][]float64, ph *phase) {
	kept := ph.kept()
	r.check(len(kept) > 0, "no latency window to measure")
	var pooled, p50s, p90s []float64
	for _, i := range kept {
		pooled = append(pooled, lat[i]...)
		p50, _ := percentile(lat[i], 50)
		p90, ok := percentile(lat[i], 90)
		r.check(ok, "latency window %d: %d samples do not support p90", i, len(lat[i]))
		p50s = append(p50s, p50)
		p90s = append(p90s, p90)
	}
	r.metrics["lat_p50_ms"] = median(p50s)
	r.metrics["lat_p90_ms"] = median(p90s)
	r.pct("client.lat_p99_ms", pooled, 99, true)
	r.note("latency over %d samples of %d of %d windows (%d calm); per-window p90 %.4g; lat_p99_ms %.4g ms (ungated)",
		len(pooled), len(kept), len(ph.stolen), ph.calmCount(), p90s, r.metrics["client.lat_p99_ms"])
}

// tally folds served answers into the output-quality sums.
type tally struct {
	served                            int
	wordAcc, selOK, payload, simLatMs float64
	updateLatMs, rttMs                []float64
	// updated records the (user, domain) pairs whose buffer filled.
	updated map[string]bool
}

// add folds in one call. Its round trip counts only when timed: a
// pipelined call's round trip includes its wait behind the calls ahead.
func (t *tally) add(corp *corpus.Corpus, p *plan, s sample, timed bool) {
	if s.fail != "" {
		return
	}
	rq := p.w.Requests[s.req]
	t.served++
	t.wordAcc += semantic.WordAccuracy(text.Tokenize(s.resp.Restored), canonical(corp, rq.Msg))
	if s.resp.SelectedDomain == rq.Msg.DomainName {
		t.selOK++
	}
	t.payload += float64(s.resp.PayloadBytes)
	t.simLatMs += s.resp.LatencyMs
	rtt := float64(s.done-s.sent) / float64(time.Millisecond)
	if timed {
		t.rttMs = append(t.rttMs, rtt)
	}
	if s.resp.UpdateFired {
		if timed {
			t.updateLatMs = append(t.updateLatMs, rtt)
		}
		if t.updated == nil {
			t.updated = make(map[string]bool)
		}
		t.updated[rq.User+"/"+s.resp.SelectedDomain] = true
	}
}

// count books every call against attempted and failed.
func (r *runner) count(ss []sample) {
	for _, s := range ss {
		r.attempted++
		if s.fail != "" {
			r.failsN++
		}
	}
}

// bootSingle boots one default edged and returns it, its address and its
// boot time: launch until it answers a ping, general models pretrained.
func (r *runner) bootSingle() (*child, string, float64, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", 0, err
	}
	r.calm.wait()
	t0 := time.Now()
	c, err := r.procs.start("edged", filepath.Join(r.bin, "edged"), "-addr", addr)
	if err != nil {
		return nil, "", 0, err
	}
	if err := waitReady(c, addr, bootTimeout); err != nil {
		r.procs.stop(c)
		return nil, "", 0, err
	}
	return c, addr, time.Since(t0).Seconds(), nil
}

// bootMesh pretrains the general models into a model directory with
// semkb and boots the mesh members from it, one after another, then
// waits for their liveness views to settle.
func (r *runner) bootMesh(pass int) ([]*child, []string, float64, error) {
	kbDir := filepath.Join(r.work, fmt.Sprintf("kb%d", pass))
	addrs := make([]string, meshMembers)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, nil, 0, err
		}
		addrs[i] = a
	}
	r.calm.wait()
	t0 := time.Now()
	if err := r.procs.run("semkb", filepath.Join(r.bin, "semkb"), "-pretrain", "-out", kbDir); err != nil {
		return nil, nil, 0, err
	}
	var members []*child
	stopAll := func() {
		for _, c := range members {
			r.procs.stop(c)
		}
	}
	for i, a := range addrs {
		c, err := r.procs.start(fmt.Sprintf("edged member %d", i), filepath.Join(r.bin, "edged"),
			"-addr", a, "-kb", kbDir, "-peers", strings.Join(addrs, ","),
			"-mesh-index", strconv.Itoa(i), "-probe-interval", meshProbe.String())
		if err != nil {
			stopAll()
			return nil, nil, 0, err
		}
		members = append(members, c)
		if err := waitReady(c, a, bootTimeout); err != nil {
			stopAll()
			return nil, nil, 0, err
		}
	}
	time.Sleep(meshSettle)
	return members, addrs, time.Since(t0).Seconds(), nil
}

func (r *runner) runWorkload(sp spec, seed uint64) (*report, error) {
	r.name = sp.name
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return nil, err
	}
	p, err := newPlan(r.corp, sp, seed, r.seconds)
	if err != nil {
		return nil, err
	}
	r.calm.budget = calmBudget
	if sp.mesh {
		err = r.runMesh(p)
	} else {
		err = r.runSingle(p)
	}
	if err != nil {
		return nil, err
	}
	r.note("waited %.2f s for a calm host before timed work", r.calm.waited.Seconds())
	r.scaleToReference()
	if r.trace {
		if err := r.runReplay(p); err != nil {
			return nil, err
		}
	}
	return r.report()
}

// runSingle drives crowd or personal against one default edged: boot it
// setupRepeats times (the last boot serves), warm up, measure latency (an
// open loop at the workload's fixed rate, or a serial loop), then run a
// closed loop at conns connections.
func (r *runner) runSingle(p *plan) error {
	var setups []float64
	var daemon *child
	var addr string
	for k := 0; k < setupRepeats; k++ {
		c, a, secs, err := r.bootSingle()
		if err != nil {
			return err
		}
		setups = append(setups, secs)
		r.probe()
		if k < setupRepeats-1 {
			r.procs.stop(c)
		} else {
			daemon, addr = c, a
		}
	}
	defer r.procs.stop(daemon)
	r.metrics["setup_s"] = median(setups)

	cs := make([]*conn, conns)
	for i := range cs {
		cs[i] = &conn{addr: addr}
	}
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()
	// In the open loop each user keeps one connection, so its requests
	// arrive in order, as from one client each.
	connOf := make(map[string]int, len(p.w.Users))
	for i, u := range p.w.Users {
		connOf[u] = i % conns
	}
	span := func(lo, hi int) []int {
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	frames := transmitFrames(p)

	warm := warmUp(cs, span(0, p.warmup), frames)
	r.count(warm)
	before, err := cs[0].stats()
	if err != nil {
		return err
	}

	// The latency phase. An open loop runs its first `windows` windows in
	// one go, then one window at a time while the host was too busy in too
	// many of them. A workload without an open rate measures latency
	// serially instead, one request at a time on one connection.
	r.calm.wait()
	openPh := newPhase(1, windows, maxWindows)
	var open []sample
	next := p.warmup
	if p.spec.openRate == 0 {
		open = closedLoop(cs[:1], span(next, p.openEnd), frames, 1, p.win, func(time.Duration) bool { return openPh.endWindow() })
		next += len(open)
		r.metrics["rss_mb"] = peakRSSMB(daemon)
	}
	perWin := int(p.spec.openRate * p.win.Seconds())
	for first := true; p.spec.openRate > 0 && (first || !openPh.done()); first = false {
		n := perWin
		if first {
			n *= windows + openPh.ramp
		}
		if next+n > p.openEnd {
			return fmt.Errorf("open loop ran out of generated requests")
		}
		reqs := span(next, next+n)
		route := make([]int, len(reqs))
		for k, i := range reqs {
			route[k] = connOf[p.w.Requests[i].User]
		}
		base := len(openPh.stolen)
		ss := openLoop(cs, reqs, route, p.spec.openRate, frames, perWin, func() { openPh.endWindow() })
		for i := range ss {
			ss[i].win += base
		}
		open = append(open, ss...)
		next += n
		if first {
			// Memory after a fixed amount of work: warm-up plus the
			// open loop's first windows.
			r.metrics["rss_mb"] = peakRSSMB(daemon)
		}
	}
	r.count(open)

	r.calm.wait()
	closedPh := newPhase(2, closedWindows, maxClosedWindows)
	var busy []float64 // seconds from each closed-loop window's first send to its last answer
	closed := closedLoop(cs, span(next, len(p.w.Requests)), frames, pipeDepth, p.win, func(b time.Duration) bool {
		busy = append(busy, b.Seconds())
		done := closedPh.endWindow()
		r.probe()
		closedPh.steal, closedPh.total, closedPh.ok = readCPU()
		return done
	})
	r.count(closed)
	after, err := cs[0].stats()
	if err != nil {
		return err
	}
	if r.metrics["rss_mb"] == 0 { // no /proc: the peak over the whole run
		r.procs.stop(daemon)
		r.metrics["rss_mb"] = daemon.maxRSSMB()
	}

	var t tally
	var late []float64
	lat := make([][]float64, len(openPh.stolen))
	for _, s := range open {
		t.add(r.corp, p, s, true)
		from := s.due // open loop: from the due time
		if p.spec.openRate == 0 {
			from = s.sent
		}
		if s.fail == "" && s.win < len(lat) {
			lat[s.win] = append(lat[s.win], float64(s.done-from)/float64(time.Millisecond))
		}
		late = append(late, float64(s.enq-s.due)/float64(time.Millisecond))
	}
	rate := make([]float64, len(closedPh.stolen))
	for _, s := range closed {
		t.add(r.corp, p, s, false)
		if s.fail == "" {
			rate[s.win] += 1 / busy[s.win]
		}
	}
	if p.spec.openRate > 0 {
		r.note("open loop: %d requests at %.0f req/s, latency from due time", len(open), p.spec.openRate)
	} else {
		r.note("serial loop: %d requests on 1 connection", len(open))
	}
	r.note("closed loop: %d requests at %d connections, %d outstanding on each, %d of %d windows calm",
		len(closed), conns, pipeDepth, closedPh.calmCount(), len(closedPh.stolen))
	r.windowed("sat_rps", rate, closedPh)
	r.latency(lat, openPh)
	syncB := float64(after.SyncBytes - before.SyncBytes)
	r.quality(&t, syncB)

	// Layer counters the daemon and the load generator see. Round trips
	// come from the calls that waited on nothing but themselves.
	var rttAll []float64
	for _, ss := range [][]sample{warm, open} {
		for _, s := range ss {
			if s.fail == "" && s.done > 0 {
				rttAll = append(rttAll, float64(s.done-s.sent)/float64(time.Millisecond))
			}
		}
	}
	r.pct("loadgen.late_p99_ms", late, 99, true)
	r.daemonLayers(after.Serve, rttAll)
	r.frameLayers(frames, closed)
	for _, k := range []string{"mesh.move_ms_p50", "mesh.move_ms_p99", "mesh.handovers", "mesh.migrated_B",
		"mesh.neighbor_hits", "mesh.origin_fetches", "mesh.rerouted"} {
		r.metrics[k] = 0
	}

	// Workload properties, asserted from what the daemon reports.
	switch p.spec.name {
	case "crowd":
		r.check(after.SyncCount == 0, "crowd: %d updates fired, want 0", after.SyncCount)
	case "personal":
		r.check(after.SyncCount > 0, "personal: no update fired")
		// More updated (user, domain) pairs than individual-model slots
		// means the sender cache must have evicted individual models.
		r.check(len(t.updated) > individualSlots, "personal: only %d (user, domain) pairs updated, need > %d to force evictions",
			len(t.updated), individualSlots)
	}
	return nil
}

// quality sets the output and cost metrics of the served answers.
func (r *runner) quality(t *tally, syncB float64) {
	if t.served == 0 {
		r.check(false, "no request was served")
		return
	}
	n := float64(t.served)
	r.metrics["word_acc"] = t.wordAcc / n
	r.metrics["sel_acc"] = t.selOK / n
	r.metrics["payload_B"] = t.payload / n
	r.metrics["sim_lat_ms"] = t.simLatMs / n
	r.metrics["wire_B_per_msg"] = (t.payload + syncB) / n
	r.metrics["fl.sync_B_per_msg"] = syncB / n
	r.pct("fl.update_lat_p50_ms", t.updateLatMs, 50, false)
}

// daemonLayers sets the layer metrics read from a daemon's serve-path
// counters after the run, and the client round trip beyond its service
// time.
func (r *runner) daemonLayers(sv *rpc.ServeStats, rttMs []float64) {
	if sv == nil {
		sv = &rpc.ServeStats{}
	}
	rtt, _ := percentile(rttMs, 50)
	r.metrics["rpc.overhead_p50_ms"] = rtt - sv.LatencyP50Ms
	r.metrics["edged.service_p50_ms"] = sv.LatencyP50Ms
	r.metrics["edged.service_p99_ms"] = sv.LatencyP99Ms
	r.metrics["edged.queue_wait_p99_ms"] = sv.QueueWaitP99Ms
	r.metrics["edged.shed"] = float64(sv.Shed)
}

// frameLayers measures the wire frames of served requests: their sizes,
// and the time to write and parse each request and response frame in
// memory with the rpc package.
func (r *runner) frameLayers(frames [][]byte, ss []sample) {
	const maxFrames, passes = 2000, 5
	type pair struct {
		req  *rpc.Request
		resp *rpc.Response
	}
	var pairs []pair
	var reqB, respB float64
	var buf bytes.Buffer
	for _, s := range ss {
		if s.fail != "" || len(pairs) == maxFrames {
			continue
		}
		req, _, err := rpc.ReadRequestV(bytes.NewReader(frames[s.req]))
		if err != nil {
			r.check(false, "rpc: read request frame: %v", err)
			return
		}
		pairs = append(pairs, pair{req, s.resp})
		reqB += float64(len(frames[s.req]))
		buf.Reset()
		_ = rpc.Write(&buf, s.resp) // an in-memory write of a decoded response cannot fail
		respB += float64(buf.Len())
	}
	if len(pairs) == 0 {
		r.check(false, "rpc: no served frames to measure")
		return
	}
	var perMsg []float64
	for pass := 0; pass < passes; pass++ {
		t0 := time.Now()
		for _, f := range pairs {
			buf.Reset()
			if err := rpc.WriteV(&buf, rpc.Version, f.req); err != nil {
				r.check(false, "rpc: write request frame: %v", err)
				return
			}
			if _, _, err := rpc.ReadRequestV(&buf); err != nil {
				r.check(false, "rpc: read request frame: %v", err)
				return
			}
			if err := rpc.WriteV(&buf, rpc.Version, f.resp); err != nil {
				r.check(false, "rpc: write response frame: %v", err)
				return
			}
			if _, _, err := rpc.ReadResponseV(&buf); err != nil {
				r.check(false, "rpc: read response frame: %v", err)
				return
			}
		}
		perMsg = append(perMsg, float64(time.Since(t0))/float64(time.Microsecond)/float64(len(pairs)))
	}
	n := float64(len(pairs))
	r.metrics["rpc.req_frame_B"] = reqB / n
	r.metrics["rpc.resp_frame_B"] = respB / n
	r.metrics["rpc.frame_codec_us"] = median(perMsg)
}

// runMesh drives roam: meshPasses passes, each over a freshly
// pretrained and booted 3-member mesh, each serving the first
// passRequests requests of the stream serially. Latency pools the kept
// chunks of the passes; the rate is the median over the passes, which
// repeat the same work.
func (r *runner) runMesh(p *plan) error {
	var setups, rss []float64
	var runs []*serialRun
	var syncB float64
	var serve *rpc.ServeStats // member 0's, of the last pass
	frames := transmitFrames(p)
	ph := newPhase(0, windows, maxWindows)
	for pass := 0; pass < meshPasses; pass++ {
		members, addrs, secs, err := r.bootMesh(pass)
		if err != nil {
			return err
		}
		setups = append(setups, secs)
		r.probe()
		m := newMeshClient(addrs)
		r.calm.wait()
		run, err := runSerial(m, p, p.spec.passRequests, frames, ph, r.probe)
		var st *rpc.Stats
		if err == nil {
			st, err = m.stats()
		}
		m.close()
		sum := 0.0
		for _, c := range members {
			r.procs.stop(c)
			sum += c.maxRSSMB()
		}
		if err != nil {
			return err
		}
		rss = append(rss, sum)
		syncB += float64(st.SyncBytes)
		runs = append(runs, run)
		serve = st.Serve
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["rss_mb"] = median(rss)

	// A pass's rate is its count over the time its requests took, each
	// from its send to the next send.
	lat := make([][]float64, len(ph.stolen))
	var rate []float64
	var t tally
	var moveMs []float64
	rerouted := 0
	for i, run := range runs {
		r.count(run.samples)
		r.attempted += int64(run.moves)
		r.failsN += run.moveErr
		var busy time.Duration
		served := 0
		for j, s := range run.samples {
			t.add(r.corp, p, s, true)
			if s.fail != "" {
				continue
			}
			cycle := s.done - s.sent
			if j+1 < len(run.samples) && run.samples[j+1].win == s.win { // the probe between windows is not serving time
				cycle = run.samples[j+1].sent - s.sent
			}
			lat[s.win] = append(lat[s.win], float64(s.done-s.sent)/float64(time.Millisecond))
			busy += cycle
			served++
		}
		rate = append(rate, float64(served)/busy.Seconds())
		moveMs = append(moveMs, run.moveMs...)
		rerouted += run.rerouted
		r.check(run.digest == runs[0].digest, "roam: pass %d digest %016x differs from pass 0 digest %016x at seed %d",
			i, uint64(run.digest), uint64(runs[0].digest), p.seed)
	}
	r.note("roam: %d passes of %d requests, digest %016x over the first %d; sat_rps per pass %.4g",
		len(runs), p.spec.passRequests, uint64(runs[0].digest), digestPrefix, rate)
	r.metrics["sat_rps"] = median(rate)
	r.latency(lat, ph)
	r.quality(&t, syncB)

	// Layer counters: mesh counters over the deterministic digest prefix
	// of the first pass; move latencies over every pass.
	pre := runs[0].prefix
	r.metrics["mesh.handovers"] = float64(pre.handovers)
	r.metrics["mesh.migrated_B"] = float64(pre.migratedB)
	r.metrics["mesh.neighbor_hits"] = float64(pre.neighborHits)
	r.metrics["mesh.origin_fetches"] = float64(pre.originFetches)
	r.metrics["mesh.rerouted"] = float64(rerouted)
	r.pct("mesh.move_ms_p50", moveMs, 50, true)
	r.pct("mesh.move_ms_p99", moveMs, 99, true)
	r.metrics["loadgen.late_p99_ms"] = 0 // serial closed loop: nothing is due
	r.daemonLayers(serve, t.rttMs)
	r.frameLayers(frames, runs[len(runs)-1].samples)
	r.check(pre.handovers > 0, "roam: no handover in the first %d requests", digestPrefix)
	return nil
}

// runReplay runs the traced in-process replay and sets the layer
// metrics it measures.
func (r *runner) runReplay(p *plan) error {
	res, failed, err := replay(p, r.corp)
	if err != nil {
		return err
	}
	r.failed = append(r.failed, failed...)
	r.note("traced replay: %d requests, replica word_acc %.4f vs TransmitText %.4f, %d spans",
		res.n, res.wordAcc, res.wordAccTT, len(res.tr.spans))
	spanDir := filepath.Join(filepath.Dir(r.work), "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.tsv", p.spec.name, p.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := res.tr.writeTo(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write spans: %w", werr)
	}
	r.note("spans written to %s", path)

	us, ms := res.tr.byStage(time.Microsecond), res.tr.byStage(time.Millisecond)
	for _, st := range []stage{stSelect, stAcquire, stEncode, stChannel, stDecode, stMismatch} {
		r.pct("core."+stageNames[st]+"_us_p50", us[st], 50, true)
	}
	needUpdates := p.spec.name != "crowd"
	r.pct("core.update_ms_p50", ms[stUpdate], 50, needUpdates)
	r.pct("core.update_ms_p99", ms[stUpdate], 99, needUpdates)
	roots := res.tr.rootDurations(time.Microsecond)
	r.pct("core.transmit_us_p50", roots, 50, true)
	r.pct("core.transmit_us_p99", roots, 99, true)
	rootNs, stageNs := res.tr.totals()
	r.metrics["core.stage_sum_ratio"] = float64(stageNs) / float64(rootNs)
	r.metrics["core.replica_overhead"] = res.overhead
	r.metrics["semantic.encode_ns_per_tok"] = float64(res.tr.duration(stEncode)) / float64(res.tokens)
	r.metrics["semantic.decode_ns_per_tok"] = float64(res.tr.duration(stDecode)) / float64(res.tokens)
	n := float64(res.n)
	r.metrics["channel.symbols_per_msg"] = float64(res.symbols) / n
	r.metrics["fl.updates"] = float64(res.updates)
	r.metrics["fl.update_req_frac"] = float64(res.updates) / n
	r.metrics["fl.update_B"] = 0
	if res.updates > 0 {
		r.metrics["fl.update_B"] = float64(res.updateB) / float64(res.updates)
	}
	r.metrics["cache.sender_hit_ratio"] = res.senderHit
	r.metrics["cache.evictions"] = float64(res.evictions)
	r.metrics["cache.resident_models"] = float64(res.resident)
	r.metrics["edge.individual_share"] = float64(res.individual) / n
	r.metrics["edge.clones"] = float64(res.clones)
	r.metrics["selection.correct_frac"] = float64(res.selCorrect) / n
	r.metrics["setup.pretrain_s"] = res.pretrainS

	switch p.spec.name {
	case "crowd":
		r.check(res.updates == 0, "crowd: replay fired %d updates, want 0", res.updates)
		r.check(res.evictions == 0, "crowd: replay evicted %d models, want 0", res.evictions)
	case "personal":
		r.check(res.updates > 0, "personal: replay fired no update")
		r.check(res.evictions > 0, "personal: replay evicted no model")
	}
	return nil
}

// report applies the run-wide checks and assembles the result line from
// the metrics of the selected kind.
func (r *runner) report() (*report, error) {
	name := "end-to-end"
	defs := endToEnd
	if r.trace {
		name, defs = "per-layer", perLayer
	}
	if r.metrics["word_acc"] > 0 || r.metrics["sel_acc"] > 0 {
		w := r.name
		r.check(r.metrics["word_acc"] >= wordAccFloor[w], "word_acc %.4f below floor %.2f", r.metrics["word_acc"], wordAccFloor[w])
		r.check(r.metrics["sel_acc"] >= selAccFloor[w], "sel_acc %.4f below floor %.2f", r.metrics["sel_acc"], selAccFloor[w])
	}
	r.check(r.failsN == 0, "%d of %d calls failed, want none", r.failsN, r.attempted)
	rep := &report{Attempted: r.attempted, Failed: r.failsN, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("%s metric %s was not measured", name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "%s is %v", d.name, v)
			v = 0
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	rep.Correct = len(r.failed) == 0
	return rep, nil
}
