package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is a typed connection to an edged daemon. It owns one TCP
// connection and serializes calls over it; a Client is safe for use from
// multiple goroutines, with concurrent calls queueing on an internal
// mutex.
//
// Transport-level failures (including a per-call deadline expiring
// mid-frame) leave the connection in an undefined framing state: the
// caller should Close the client and Dial a fresh one. Application-level
// failures arrive as Response.OK == false with the connection intact.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration
}

// ErrClosed reports a call on a closed Client.
var ErrClosed = errors.New("rpc: client closed")

// Dial connects to an edged daemon at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection in a Client. The Client takes
// ownership of conn.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn}
}

// SetTimeout sets the default per-call deadline applied when a call does
// not carry its own. Zero (the initial state) means calls wait forever.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Close shuts the connection down. Calls after Close fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// DoContext issues one request and reads its response. The exchange
// deadline derives from ctx (falling back to the client default timeout
// when ctx carries none), and the remaining budget is forwarded to the
// daemon as Request.DeadlineMs so admission control can shed the request
// instead of serving it late. Cancelling ctx mid-call unblocks the
// exchange by expiring the connection deadline.
func (c *Client) DoContext(ctx context.Context, req *Request) (*Response, error) {
	return c.do(ctx, Version, req)
}

// do runs one framed exchange at the given protocol version under the
// client mutex.
func (c *Client) do(ctx context.Context, version byte, req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conn := c.conn
	deadline, ok := ctx.Deadline()
	if !ok && c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
		ok = true
	}
	if ok {
		if remain := time.Until(deadline); remain > 0 {
			req.DeadlineMs = float64(remain) / float64(time.Millisecond)
		}
		if err := conn.SetDeadline(deadline); err != nil {
			return nil, fmt.Errorf("rpc: set deadline: %w", err)
		}
		defer conn.SetDeadline(time.Time{})
	}
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	defer stop()
	if err := WriteV(conn, version, req); err != nil {
		return nil, err
	}
	return ReadResponse(conn)
}

// Transmit runs one message through the daemon's semantic pipeline.
func (c *Client) Transmit(user, text string) (*Response, error) {
	return c.TransmitContext(context.Background(), user, text)
}

// TransmitContext is Transmit with the deadline derived from ctx.
func (c *Client) TransmitContext(ctx context.Context, user, text string) (*Response, error) {
	return c.do(ctx, Version, &Request{Op: OpTransmit, User: user, Text: text})
}

// Move attaches user to a radio cell (cluster mode: -nodes or -peers).
// The returned Response carries the Handover outcome.
func (c *Client) Move(user string, cell int) (*Response, error) {
	return c.do(context.Background(), Version, &Request{Op: OpMove, User: user, Cell: cell})
}

// Stats fetches the daemon's counters.
func (c *Client) Stats() (*Stats, error) {
	resp, err := c.do(context.Background(), Version, &Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("rpc: stats: %s", resp.Error)
	}
	if resp.Stats == nil {
		return nil, errors.New("rpc: stats response carried no stats")
	}
	return resp.Stats, nil
}

// Ping checks daemon liveness.
func (c *Client) Ping() error {
	return c.PingContext(context.Background())
}

// PingContext checks daemon liveness, honoring ctx for cancellation and
// deadline.
func (c *Client) PingContext(ctx context.Context) error {
	resp, err := c.do(ctx, Version, &Request{Op: OpPing})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("rpc: ping: %s", resp.Error)
	}
	return nil
}

// Mesh calls: peer-to-peer ops framed at protocol version 2.

// Join announces peer to the daemon and returns the daemon's current
// membership view.
func (c *Client) Join(ctx context.Context, peer PeerInfo) ([]PeerInfo, error) {
	resp, err := c.do(ctx, Version2, &Request{Op: OpJoin, Peer: &peer})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("rpc: join: %s", resp.Error)
	}
	return resp.Peers, nil
}

// Leave announces peer's graceful shutdown to the daemon.
func (c *Client) Leave(ctx context.Context, peer PeerInfo) error {
	resp, err := c.do(ctx, Version2, &Request{Op: OpLeave, Peer: &peer})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("rpc: leave: %s", resp.Error)
	}
	return nil
}

// PeerStats fetches the daemon's own per-node counter snapshot.
func (c *Client) PeerStats(ctx context.Context) (*NodeStats, error) {
	resp, err := c.do(ctx, Version2, &Request{Op: OpPeerStats})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("rpc: peer-stats: %s", resp.Error)
	}
	if resp.Node == nil {
		return nil, errors.New("rpc: peer-stats response carried no node")
	}
	return resp.Node, nil
}

// FetchModel probes the daemon's cache for a model. A miss returns
// (nil, nil): the daemon answers with Peek semantics and never forwards
// to origin, so the caller decides when to pay the uplink.
func (c *Client) FetchModel(ctx context.Context, fetch FetchRequest) (*ModelPayload, error) {
	resp, err := c.do(ctx, Version2, &Request{Op: OpFetchModel, Fetch: &fetch})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("rpc: fetch-model: %s", resp.Error)
	}
	return resp.Model, nil
}

// HandoverPush ships a user's serving state to the daemon taking
// ownership.
func (c *Client) HandoverPush(ctx context.Context, h *HandoffPayload) error {
	resp, err := c.do(ctx, Version2, &Request{Op: OpHandoverPush, Handoff: h})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("rpc: handover-push: %s", resp.Error)
	}
	return nil
}
