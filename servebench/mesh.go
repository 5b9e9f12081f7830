package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/rpc"
)

// meshClient routes a serial request stream over the members' ring on
// the client side, as a mesh-aware client would: each user goes to its
// consistent-hash owner until a move pins it to the member of its cell.
type meshClient struct {
	cs       []*conn
	ring     *cluster.Ring
	override map[string]int
	// rerouted counts transmits retried at another member because their
	// owner failed to answer or was draining.
	rerouted int
}

func newMeshClient(addrs []string) *meshClient {
	members := make([]int, len(addrs))
	cs := make([]*conn, len(addrs))
	for i, a := range addrs {
		members[i] = i
		cs[i] = &conn{addr: a}
	}
	return &meshClient{
		cs:       cs,
		ring:     cluster.NewRingFor(members, 64, systemSeed),
		override: make(map[string]int),
	}
}

func (m *meshClient) owner(user string) int {
	if n, ok := m.override[user]; ok {
		return n
	}
	return m.ring.Node(user)
}

// transmit sends a transmit frame for user to its owner, then to the
// other members in index order when the owner fails to answer, and
// returns the answer's raw payload.
func (m *meshClient) transmit(user string, frame []byte) ([]byte, string) {
	first := m.owner(user)
	var raw []byte
	var fail string
	for k := range m.cs {
		node := (first + k) % len(m.cs)
		raw, fail = m.cs[node].roundTrip(frame)
		// A draining member answers with this field set (the JSON form of
		// rpc.Response.Draining); its state has moved on, so retry.
		if fail == "" && bytes.Contains(raw, []byte(`"draining":true`)) {
			fail = failError
		} else if fail == "" {
			return raw, ""
		}
		m.rerouted++
	}
	return raw, fail
}

// move attaches user to cell at its current owner and mirrors the new
// ownership: the member the daemons pick for the cell (cell modulo the
// members, all alive).
func (m *meshClient) move(user string, cell int) (*rpc.Response, string) {
	resp, fail := m.cs[m.owner(user)].call(&rpc.Request{Op: rpc.OpMove, User: user, Cell: cell})
	if fail == "" {
		if resp.Handover == nil {
			return resp, failError
		}
		m.override[user] = cell % len(m.cs)
	}
	return resp, fail
}

// stats merges every member's counters.
func (m *meshClient) stats() (*rpc.Stats, error) {
	var merged *rpc.Stats
	for i, c := range m.cs {
		resp, fail := c.call(&rpc.Request{Op: rpc.OpStats})
		if fail != "" || resp.Stats == nil {
			return nil, fmt.Errorf("stats from member %d: %s", i, fail)
		}
		if merged == nil {
			merged = resp.Stats
		} else {
			merged.Merge(resp.Stats)
		}
	}
	return merged, nil
}

func (m *meshClient) close() {
	for _, c := range m.cs {
		c.close()
	}
}

// meshSum totals the per-member counters the roam metrics read.
type meshSum struct {
	handovers, migratedB, neighborHits, originFetches int64
}

func sumMesh(st *rpc.Stats) meshSum {
	s := meshSum{handovers: st.Handovers, migratedB: st.MigratedBytes}
	for _, n := range st.Nodes {
		s.neighborHits += n.NeighborHits
		s.originFetches += n.OriginFetches
	}
	return s
}

// digest folds the deterministic fields of a serial run's answers,
// order-dependently, into 64 bits. Simulated latency is included (it is
// model time); wall-clock times are not.
type digest uint64

func (d *digest) fold(parts ...string) {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	x := uint64(*d)
	*d = digest(x ^ (h.Sum64() + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)))
}

func (d *digest) foldTransmit(user string, resp *rpc.Response, fail string) {
	if fail != "" {
		d.fold("fail", user, fail)
		return
	}
	d.fold("transmit", user, resp.Restored, resp.SelectedDomain,
		strconv.FormatUint(math.Float64bits(resp.Mismatch), 16),
		strconv.Itoa(resp.PayloadBytes),
		strconv.FormatUint(math.Float64bits(resp.LatencyMs), 16))
}

func (d *digest) foldMove(user string, cell int, resp *rpc.Response, fail string) {
	if fail != "" {
		d.fold("fail", user, fail)
		return
	}
	h := resp.Handover
	d.fold("move", user, strconv.Itoa(cell), h.From, h.To,
		strconv.FormatBool(h.Moved), strconv.FormatInt(h.MigratedBytes, 10))
}

// serialRun is one roam pass over a freshly booted mesh.
type serialRun struct {
	samples []sample // transmits, times from the pass start
	moveMs  []float64
	moves   int
	moveErr int64
	// rerouted is the client's reroute count at the end of the pass.
	rerouted int
	digest   digest // over the first digestPrefix requests
	prefix   meshSum
}

// digestPrefix is the number of leading requests whose answers form the
// run digest and whose mesh counters are reported: a fixed amount of work,
// so the digests of two passes must agree and the counters repeat.
const digestPrefix = 1000

// chunksPerPass is how many windows of equal request count a roam pass
// is cut into.
const chunksPerPass = 6

// runSerial serves the first n requests of the plan's stream, one call at
// a time, closing a window of ph every n/chunksPerPass requests and
// calling between after each window.
func runSerial(m *meshClient, p *plan, n int, frames [][]byte, ph *phase, between func()) (*serialRun, error) {
	if n < digestPrefix || n > len(p.w.Requests) {
		return nil, fmt.Errorf("roam pass of %d requests: need %d to %d", n, digestPrefix, len(p.w.Requests))
	}
	chunk := n / chunksPerPass
	base := len(ph.stolen)
	start := time.Now()
	run := &serialRun{}
	ph.steal, ph.total, ph.ok = readCPU()
	for i, r := range p.w.Requests[:n] {
		if i > 0 && i%chunk == 0 && i/chunk < chunksPerPass {
			ph.endWindow()
			between()
			ph.steal, ph.total, ph.ok = readCPU()
		}
		if i == digestPrefix {
			st, err := m.stats()
			if err != nil {
				return nil, err
			}
			run.prefix = sumMesh(st)
		}
		if cell := p.moveAt[i]; cell >= 0 {
			t0 := time.Now()
			resp, fail := m.move(r.User, cell)
			run.moveMs = append(run.moveMs, float64(time.Since(t0))/float64(time.Millisecond))
			run.moves++
			if fail != "" {
				run.moveErr++
			}
			if i < digestPrefix {
				run.digest.foldMove(r.User, cell, resp, fail)
			}
		}
		s := sample{req: i, win: base + min(i/chunk, chunksPerPass-1), sent: time.Since(start)}
		s.raw, s.fail = m.transmit(r.User, frames[i])
		s.done = time.Since(start)
		if s.fail == "" {
			s.resp, s.fail = decode(s.raw)
		}
		s.raw = nil
		run.samples = append(run.samples, s)
		if i < digestPrefix {
			run.digest.foldTransmit(r.User, s.resp, s.fail)
		}
	}
	ph.endWindow()
	run.rerouted = m.rerouted
	return run, nil
}
