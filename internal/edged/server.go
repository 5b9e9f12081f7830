package edged

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/text"
)

// server dispatches requests straight into the concurrent core.System of
// the user's serving member; no global serialization. A bounded gate caps
// concurrently served transmits so load spikes queue at the door instead
// of oversubscribing the host.
type server struct {
	// members holds one member in classic and -peers mode, N with -nodes.
	members []*member
	// local routes users to members and moves them with -nodes; nil
	// otherwise.
	local *mesh.Local
	// mesh answers peers' mesh ops with -peers; nil otherwise.
	mesh *mesh.Node

	inflight  atomic.Int64
	shed      atomic.Int64
	gate      chan struct{} // nil = unlimited
	latency   *metrics.Histogram
	queueWait *metrics.Histogram

	idleTimeout  time.Duration // read deadline between requests
	writeTimeout time.Duration // deadline per response write
	shedAfter    time.Duration // server-side admission-queue patience; 0 = none

	connMu  sync.Mutex
	conns   map[net.Conn]bool // true while parked in a read between requests
	closing bool

	// Drain gate: once draining, new transmits/moves park on drainGate
	// until the handoff completes (finishDrain), then answer Draining so
	// the client's retry lands at the new owner with state in place. busy
	// counts admitted requests; drainIdle closes when the last finishes.
	drainMu   sync.Mutex
	draining  bool
	busy      int
	drainIdle chan struct{}
	drainGate chan struct{}
}

// member is one serving slice of the daemon: a system and, in a cluster,
// its mesh membership.
type member struct {
	sys      *core.System
	node     *mesh.Node // nil for a classic single-sender daemon
	messages atomic.Int64
}

// newServer wraps sys. maxInflight 0 selects 2x GOMAXPROCS; negative
// disables the gate.
func newServer(sys *core.System, maxInflight int) *server {
	if maxInflight == 0 {
		maxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	s := &server{
		members:   []*member{{sys: sys}},
		latency:   metrics.NewLatencyHistogram(),
		queueWait: metrics.NewLatencyHistogram(),
		conns:     make(map[net.Conn]bool),
	}
	if maxInflight > 0 {
		s.gate = make(chan struct{}, maxInflight)
	}
	return s
}

// serve accepts connections until the listener closes, then drains the
// in-flight handlers.
func (s *server) serve(ln net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handle(conn)
		}()
	}
}

// handle serves one client connection until EOF or a missed deadline: a
// stalled peer trips the read deadline instead of pinning the goroutine
// forever. Responses go out framed at the version the request arrived
// with, so v1 clients and v2 mesh peers share one port.
func (s *server) handle(conn net.Conn) {
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	for {
		if s.idleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.idleTimeout)); err != nil {
				return
			}
		}
		if !s.markIdle(conn) {
			return
		}
		req, version, err := rpc.ReadRequestV(conn)
		s.markBusy(conn)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				log.Printf("edged: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		var resp *rpc.Response
		if rpc.IsMeshOp(req.Op) && version < rpc.Version2 {
			// Mesh ops are a v2 surface: a v1 frame carrying one is a
			// protocol error, never silently served.
			resp = &rpc.Response{Error: rpc.ErrMeshOpVersion.Error()}
		} else {
			resp = s.dispatch(req)
		}
		if s.writeTimeout > 0 {
			if err := conn.SetWriteDeadline(time.Now().Add(s.writeTimeout)); err != nil {
				return
			}
		}
		if err := rpc.WriteV(conn, version, resp); err != nil {
			if !errors.Is(err, net.ErrClosed) {
				log.Printf("edged: %s: write: %v", conn.RemoteAddr(), err)
			}
			return
		}
	}
}

// markIdle records the connection as parked between requests. During
// shutdown it closes the connection instead and reports false, so a
// handler never blocks in a read the drain would have to wait out.
func (s *server) markIdle(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closing {
		conn.Close()
		return false
	}
	s.conns[conn] = true
	return true
}

// markBusy records the connection as serving a request.
func (s *server) markBusy(conn net.Conn) {
	s.connMu.Lock()
	s.conns[conn] = false
	s.connMu.Unlock()
}

// closeIdleConns begins shutdown: connections parked between requests
// close now (long-lived peers and idle clients reconnect or give up),
// busy ones finish their current request and close on the next read.
// The serve drain then completes without waiting out idle timeouts.
func (s *server) closeIdleConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.closing = true
	for c, idle := range s.conns {
		if idle {
			c.Close()
		}
	}
}

// killConns severs every open connection — the hard-kill path of
// Daemon.Kill; clients see a reset mid-stream, as with a dead process.
func (s *server) killConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.closing = true
	for c := range s.conns {
		c.Close()
	}
}

// beginOp admits one transmit or move into the serving path. During a
// drain it instead parks the caller until the handoff completes and
// reports false: the handler answers Draining, and because the response
// only goes out after the user's state reached its new owner, a serial
// client's retry never observes missing state.
func (s *server) beginOp() bool {
	s.drainMu.Lock()
	if !s.draining {
		s.busy++
		s.drainMu.Unlock()
		return true
	}
	gate := s.drainGate
	s.drainMu.Unlock()
	<-gate
	return false
}

// endOp retires one admitted request, waking the drain when the last
// one finishes.
func (s *server) endOp() {
	s.drainMu.Lock()
	s.busy--
	if s.draining && s.busy == 0 && s.drainIdle != nil {
		close(s.drainIdle)
		s.drainIdle = nil
	}
	s.drainMu.Unlock()
}

// beginDrain stops admitting transmits and moves. Mesh ops, pings and
// stats keep flowing — peers still probe and push during the drain.
func (s *server) beginDrain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainGate = make(chan struct{})
	if s.busy > 0 {
		s.drainIdle = make(chan struct{})
	}
	s.drainMu.Unlock()
}

// awaitIdle blocks until every admitted request has finished, or ctx
// expires.
func (s *server) awaitIdle(ctx context.Context) error {
	s.drainMu.Lock()
	idle := s.drainIdle
	s.drainMu.Unlock()
	if idle == nil {
		return nil
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// finishDrain releases every handler parked at the drain gate (and any
// that arrive later: the closed gate admits them straight to the
// Draining answer).
func (s *server) finishDrain() {
	s.drainMu.Lock()
	if s.drainGate != nil {
		select {
		case <-s.drainGate:
			// already closed by an earlier finishDrain
		default:
			close(s.drainGate)
		}
	}
	s.drainMu.Unlock()
}

// drainingResponse is the answer parked requests get once the handoff
// is done: retry elsewhere, your state moved ahead of you.
func drainingResponse() *rpc.Response {
	return &rpc.Response{Draining: true, Error: "draining: member is leaving the mesh"}
}

// dispatch routes one request.
func (s *server) dispatch(req *rpc.Request) *rpc.Response {
	switch req.Op {
	case rpc.OpPing:
		return &rpc.Response{OK: true}
	case rpc.OpStats:
		return &rpc.Response{OK: true, Stats: s.stats()}
	case rpc.OpTransmit:
		return s.transmit(req)
	case rpc.OpMove:
		return s.move(req)
	case rpc.OpJoin, rpc.OpLeave, rpc.OpPeerStats, rpc.OpFetchModel, rpc.OpHandoverPush:
		// The v2 mesh surface; a daemon that is not a -peers member
		// rejects every mesh op.
		if s.mesh == nil {
			return &rpc.Response{Error: fmt.Sprintf("%s: not a mesh member", req.Op)}
		}
		return s.mesh.HandleOp(req)
	default:
		return &rpc.Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// stats snapshots the daemon counters: each member reports itself as one
// node of the deployment, and the member snapshots merge with
// rpc.Stats.Merge exactly as a client merges the members of a
// multi-process mesh.
func (s *server) stats() *rpc.Stats {
	st := s.members[0].stats()
	for _, m := range s.members[1:] {
		st.Merge(m.stats())
	}
	st.Serve.InFlight = int(s.inflight.Load())
	st.Serve.LatencyP50Ms = s.latency.P(50)
	st.Serve.LatencyP95Ms = s.latency.P(95)
	st.Serve.LatencyP99Ms = s.latency.P(99)
	st.Serve.QueueWaitP50Ms = s.queueWait.P(50)
	st.Serve.QueueWaitP95Ms = s.queueWait.P(95)
	st.Serve.QueueWaitP99Ms = s.queueWait.P(99)
	st.Serve.Shed = s.shed.Load()
	return st
}

// stats snapshots one member's counters; Serve carries only its batch
// counters, which the server's merge sums.
func (m *member) stats() *rpc.Stats {
	bs := m.sys.BatchStats()
	st := &rpc.Stats{
		Messages:  int(m.messages.Load()),
		SyncBytes: m.sys.SyncBytes(),
		SyncCount: m.sys.SyncCount(),
		Serve: &rpc.ServeStats{
			Batches:         bs.Batches,
			BatchedRequests: bs.BatchedRequests,
			BatchOccupancy:  bs.Occupancy,
		},
	}
	if m.node == nil {
		st.SenderHitRate = m.sys.Sender.CacheStats().HitRate()
		st.CachedModels = m.sys.Sender.Cache().Len()
		st.CacheUsedBytes = m.sys.Sender.Cache().Used()
		return st
	}
	ns := m.node.Stats()
	st.SenderHitRate = ns.HitRate
	st.CachedModels = ns.CachedModels
	st.CacheUsedBytes = ns.CacheUsedBytes
	st.Handovers, st.MigratedBytes = m.node.HandoverStats()
	st.Nodes = []rpc.NodeStats{ns}
	return st
}

// move serves one OpMove: attach the user to a cell, handing their
// serving state over when the serving member changes.
func (s *server) move(req *rpc.Request) *rpc.Response {
	if req.User == "" {
		return &rpc.Response{Error: "move requires a user"}
	}
	if s.local == nil && s.mesh == nil {
		return &rpc.Response{Error: "move requires a cluster (-nodes or -peers)"}
	}
	if !s.beginOp() {
		return drainingResponse()
	}
	defer s.endOp()
	var h *rpc.Handover
	var err error
	if s.local != nil {
		h, err = s.local.Move(req.User, req.Cell)
	} else {
		h, err = s.mesh.MoveUser(req.User, req.Cell)
	}
	if err != nil {
		return &rpc.Response{Error: err.Error()}
	}
	return &rpc.Response{OK: true, Handover: h}
}

// route returns the member serving user plus the release func the
// request must call when done.
func (s *server) route(user string) (*member, func()) {
	if s.local == nil {
		return s.members[0], func() {}
	}
	m, release := s.local.Route(user)
	return s.members[m.Node.Self().Index], release
}

// shedLimit derives the admission-queue patience for one request: the
// tighter of the client's deadline hint and the server's -shed-after
// policy. Zero means wait indefinitely.
func (s *server) shedLimit(deadlineMs float64) time.Duration {
	limit := s.shedAfter
	if deadlineMs > 0 {
		d := time.Duration(deadlineMs * float64(time.Millisecond))
		if limit <= 0 || d < limit {
			limit = d
		}
	}
	return limit
}

// admit claims a slot at the -max-inflight gate, observing queue wait. A
// request that cannot be admitted within its shed limit is rejected with
// a Shed response instead of queueing unboundedly: under saturation the
// daemon degrades by refusing late work, not by serving everything late.
func (s *server) admit(req *rpc.Request) *rpc.Response {
	select {
	case s.gate <- struct{}{}:
		s.queueWait.Observe(0)
		return nil
	default:
	}
	start := time.Now()
	if limit := s.shedLimit(req.DeadlineMs); limit > 0 {
		timer := time.NewTimer(limit)
		select {
		case s.gate <- struct{}{}:
			timer.Stop()
		case <-timer.C:
			s.shed.Add(1)
			return &rpc.Response{
				Shed:  true,
				Error: fmt.Sprintf("shed: queued %v at admission gate", limit),
			}
		}
	} else {
		s.gate <- struct{}{}
	}
	s.queueWait.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return nil
}

// transmit serves one message through the pipeline, metering service time.
func (s *server) transmit(req *rpc.Request) *rpc.Response {
	user := req.User
	if user == "" {
		user = "anonymous"
	}
	words := text.Tokenize(req.Text)
	if len(words) == 0 {
		return &rpc.Response{Error: "empty message"}
	}
	if !s.beginOp() {
		return drainingResponse()
	}
	defer s.endOp()
	if s.gate != nil {
		if shed := s.admit(req); shed != nil {
			return shed
		}
		defer func() { <-s.gate }()
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	m, release := s.route(user)
	defer release()
	start := time.Now()
	res, err := m.sys.TransmitText(user, words)
	if err != nil {
		return &rpc.Response{Error: err.Error()}
	}
	s.latency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	m.messages.Add(1)
	domain := m.sys.Corpus.Domains[res.SelectedDomain].Name
	if m.node != nil {
		m.node.TouchUser(user)
		m.node.NoteDomain(domain)
	}
	return &rpc.Response{
		OK:             true,
		Restored:       text.Join(res.RestoredWords),
		SelectedDomain: domain,
		Mismatch:       res.Mismatch,
		PayloadBytes:   res.PayloadBytes,
		LatencyMs:      float64(res.Latency) / float64(time.Millisecond),
		CacheHit:       res.EncCacheHit,
		Individual:     res.UsedIndividual,
		UpdateFired:    res.UpdateFired,
	}
}
