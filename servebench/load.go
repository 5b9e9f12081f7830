package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rpc"
)

// Failure kinds of one client call; the empty kind is a success.
const (
	failError     = "error"     // the daemon answered OK=false
	failShed      = "shed"      // refused by admission control
	failTransport = "transport" // dial, write or read failed
	failTimeout   = "timeout"   // no answer within requestTimeout
)

// sample is one client call. Times are offsets from the start of its
// phase (open and serial loops) or of its window and connection (closed
// loop); due is when an open loop was scheduled to send it (0 in a
// closed loop) and enq when the generator handed it to its connection.
type sample struct {
	req                  int
	win                  int // window of its phase
	due, enq, sent, done time.Duration
	raw                  []byte // response payload until decoded
	resp                 *rpc.Response
	fail                 string
}

// conn is one load-generator connection. It writes pre-encoded request
// frames and keeps each response frame's raw payload, decoding it only
// after the phase: on a 2-core machine shared with the daemon, the
// generator's own JSON work would otherwise compete with the program for
// the cores it is measuring. After a transport failure the framing state
// is unknown, so the connection is dropped and redialed.
type conn struct {
	addr string
	nc   net.Conn
	rd   *bufio.Reader
	hdr  [5]byte
}

// roundTrip sends one request frame and returns the JSON payload of the
// response frame.
func (c *conn) roundTrip(frame []byte) ([]byte, string) {
	if fail := c.send(frame); fail != "" {
		return nil, fail
	}
	return c.recv()
}

// send writes one request frame, dialing first if the connection is
// down. Its answer is read by a later recv; answers come in request
// order.
func (c *conn) send(frame []byte) string {
	if c.nc == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return failTransport
		}
		c.nc, c.rd = nc, bufio.NewReader(nc)
	}
	if err := c.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return c.fail(err)
	}
	if _, err := c.nc.Write(frame); err != nil {
		return c.fail(err)
	}
	return ""
}

// recv reads the next response frame and returns its JSON payload.
func (c *conn) recv() ([]byte, string) {
	if c.nc == nil {
		return nil, failTransport
	}
	if err := c.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return nil, c.fail(err)
	}
	// The frame header: one version byte, then the little-endian payload
	// length (see internal/rpc).
	if _, err := io.ReadFull(c.rd, c.hdr[:]); err != nil {
		return nil, c.fail(err)
	}
	n := binary.LittleEndian.Uint32(c.hdr[1:])
	if c.hdr[0] != rpc.Version || n > rpc.MaxMessageBytes {
		return nil, c.fail(fmt.Errorf("bad response frame header %x", c.hdr))
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.rd, payload); err != nil {
		return nil, c.fail(err)
	}
	return payload, ""
}

// fail drops the connection after err and classifies the failure.
func (c *conn) fail(err error) string {
	c.close()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return failTimeout
	}
	return failTransport
}

// decode parses a response payload and classifies it.
func decode(payload []byte) (*rpc.Response, string) {
	var resp rpc.Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, failTransport
	}
	switch {
	case resp.Shed:
		return &resp, failShed
	case !resp.OK:
		return &resp, failError
	}
	return &resp, ""
}

// encodeFrame renders req as one wire frame.
func encodeFrame(req *rpc.Request) []byte {
	var buf bytes.Buffer
	if err := rpc.Write(&buf, req); err != nil {
		panic(err) // a transmit, move or stats request always marshals
	}
	return buf.Bytes()
}

// call sends req and decodes the answer at once.
func (c *conn) call(req *rpc.Request) (*rpc.Response, string) {
	payload, fail := c.roundTrip(encodeFrame(req))
	if fail != "" {
		return nil, fail
	}
	return decode(payload)
}

// stats fetches the daemon's counters.
func (c *conn) stats() (*rpc.Stats, error) {
	resp, fail := c.call(&rpc.Request{Op: rpc.OpStats})
	if fail != "" || resp.Stats == nil {
		return nil, fmt.Errorf("stats from %s: %s", c.addr, fail)
	}
	return resp.Stats, nil
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.rd = nil, nil
	}
}

// transmitFrames pre-encodes every request of p as a transmit frame.
func transmitFrames(p *plan) [][]byte {
	out := make([][]byte, len(p.w.Requests))
	for i, rq := range p.w.Requests {
		out[i] = encodeFrame(&rpc.Request{Op: rpc.OpTransmit, User: rq.User, Text: rq.Msg.Text()})
	}
	return out
}

// decodeAll decodes the raw payloads of a finished phase.
func decodeAll(ss []sample) {
	for i := range ss {
		if ss[i].fail == "" {
			ss[i].resp, ss[i].fail = decode(ss[i].raw)
		}
		ss[i].raw = nil
	}
}

// openLoop offers reqs at a fixed rate, regardless of how fast answers
// come back. Request k is due at k/rate after the start; it travels on
// connection route[k], whose requests go out in order, so a slow answer
// delays the later requests queued behind it and that delay counts:
// latency is measured from the due time. Every perWindow requests form
// one window; endWindow runs when a window's time is up.
func openLoop(cs []*conn, reqs, route []int, rate float64, frames [][]byte, perWindow int, endWindow func()) []sample {
	queues := make([]chan sample, len(cs))
	for i := range queues {
		queues[i] = make(chan sample, len(reqs)) // room for every request, so the dispatcher never blocks
	}
	out := make([]sample, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range queues[i] {
				frame := frames[reqs[s.req]]
				s.sent = time.Since(start)
				s.raw, s.fail = cs[i].roundTrip(frame)
				s.done = time.Since(start)
				out[s.req] = s
			}
		}()
	}
	pace := newPacer()
	dueAt := func(k int) time.Duration { return time.Duration(float64(k) / rate * float64(time.Second)) }
	for k := range reqs {
		due := dueAt(k)
		pace.sleep(due - time.Since(start))
		if k > 0 && k%perWindow == 0 {
			endWindow()
		}
		queues[route[k]] <- sample{req: k, win: k / perWindow, due: due, enq: time.Since(start)}
	}
	pace.sleep(dueAt(len(reqs)) - time.Since(start))
	endWindow()
	pace.close()
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	for k := range out {
		out[k].req = reqs[k]
	}
	decodeAll(out)
	return out
}

// closedLoop runs one client per connection, each taking the next
// request of reqs, whichever user it is from, so the rate does not depend
// on how users split over the connections. Each client keeps depth
// requests outstanding on its connection (depth 1 is a plain round-trip
// loop) and sends the next as soon as an answer returns. The loop runs in
// windows of win: at the end of each, the clients stop sending, collect
// their outstanding answers and wait while endWindow runs with the time
// the window was busy. It stops when endWindow reports the phase done or
// reqs run out, and returns the calls made, each tagged with its window.
func closedLoop(cs []*conn, reqs []int, frames [][]byte, depth int, win time.Duration, endWindow func(busy time.Duration) (done bool)) []sample {
	var next atomic.Int64
	res := make([][]sample, len(cs))
	for w := 0; ; w++ {
		var exhausted atomic.Bool
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(win)
		ends := make([]time.Time, len(cs))
		for i := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i] = clientWindow(cs[i], res[i], reqs, frames, depth, w, deadline, &next, &exhausted)
				ends[i] = time.Now()
			}()
		}
		wg.Wait()
		end := start
		for _, e := range ends {
			if e.After(end) {
				end = e
			}
		}
		if endWindow(end.Sub(start)) || exhausted.Load() {
			break
		}
	}
	var out []sample
	for _, r := range res {
		out = append(out, r...)
	}
	decodeAll(out)
	return out
}

// clientWindow runs one connection's client for window w until deadline,
// appending its calls to out.
func clientWindow(c *conn, out []sample, reqs []int, frames [][]byte, depth, w int, deadline time.Time,
	next *atomic.Int64, exhausted *atomic.Bool) []sample {
	base := time.Now()
	inflight := make([]sample, 0, depth)
	finish := func(s sample) {
		s.done = time.Since(base)
		s.win = w
		out = append(out, s)
	}
	for {
		for len(inflight) < depth && !exhausted.Load() && time.Now().Before(deadline) {
			k := int(next.Add(1) - 1)
			if k >= len(reqs) {
				exhausted.Store(true)
				break
			}
			s := sample{req: reqs[k], sent: time.Since(base)}
			if s.fail = c.send(frames[reqs[k]]); s.fail != "" {
				finish(s)
				break
			}
			inflight = append(inflight, s)
		}
		if len(inflight) == 0 {
			if exhausted.Load() || !time.Now().Before(deadline) {
				return out
			}
			continue // the send failed; redial with the next request
		}
		s := inflight[0]
		inflight = inflight[1:]
		s.raw, s.fail = c.recv()
		finish(s)
		if s.fail != "" {
			// The connection is gone, and every answer queued on it.
			for _, q := range inflight {
				q.fail = s.fail
				finish(q)
			}
			inflight = inflight[:0]
		}
	}
}

// warmUp serves reqs over the connections as fast as answers come.
func warmUp(cs []*conn, reqs []int, frames [][]byte) []sample {
	return closedLoop(cs, reqs, frames, 1, time.Hour, func(time.Duration) bool { return false })
}
