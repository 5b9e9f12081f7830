package mesh

import (
	"bytes"
	"context"
	"errors"

	"repro/internal/edge"
	"repro/internal/kb"
	"repro/internal/rpc"
	"repro/internal/semantic"
)

// parseRole maps the wire role name back to a kb.Role.
func parseRole(s string) (kb.Role, error) {
	for _, r := range []kb.Role{kb.RoleEncoder, kb.RoleDecoder, kb.RoleCodec} {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, errors.New("mesh: unknown model role " + s)
}

// FetchModel implements edge.Fetcher: resolve a local sender-cache miss
// cooperatively by probing live peers over the wire in ring order
// (nearest successor first), then fall back to the cloud origin. A
// neighbor hit costs one simulated mesh-link transfer of the model's
// role-sized parameters — wall-clock time spent on the round trip is not
// part of the model.
func (n *Node) FetchModel(k kb.Key) (edge.Fetch, error) {
	if n.origin == nil {
		return edge.Fetch{}, errors.New("mesh: node not bound to a system")
	}
	req := rpc.FetchRequest{Domain: k.Domain, User: k.User, Role: k.Role.String()}
	for off := 1; off < n.total; off++ {
		p, ok := n.peers[(n.self.Index+off)%n.total]
		if !ok || !p.usable() {
			continue
		}
		var payload *rpc.ModelPayload
		err := p.call(context.Background(), n.cfg.CallTimeout, func(ctx context.Context, c *rpc.Client) error {
			var err error
			payload, err = c.FetchModel(ctx, req)
			return err
		})
		if err != nil {
			n.setAlive(p, false)
			continue
		}
		if payload == nil {
			continue // peer cache miss; keep probing
		}
		m, err := n.reviveModel(k, payload)
		if err != nil {
			// The peer answered but the stream did not revive: the
			// connection's framing state is suspect, so tear the client
			// down rather than reuse it for the next call.
			p.close()
			n.cfg.Logf("mesh: fetch %s from %s: %v", k, p.info.Name, err)
			continue
		}
		lat := n.cfg.MeshLink.TransferTime(m.SizeBytes())
		n.neighborHits.Add(1)
		n.neighborBytes.Add(m.SizeBytes())
		n.fetchLatency.Add(int64(lat))
		return edge.Fetch{Model: m, Latency: lat, Remote: true}, nil
	}
	fetch, err := n.origin.FetchModel(k)
	if err != nil {
		return edge.Fetch{}, err
	}
	n.originFetches.Add(1)
	n.originBytes.Add(fetch.Model.SizeBytes())
	n.fetchLatency.Add(int64(fetch.Latency))
	return fetch, nil
}

// reviveModel reconstructs a kb.Model from its wire payload — the full
// codec stream, so the receiving process depends only on bytes that
// actually crossed the network, never on shared memory.
func (n *Node) reviveModel(k kb.Key, payload *rpc.ModelPayload) (*kb.Model, error) {
	codec, err := semantic.ReadCodec(bytes.NewReader(payload.Params), n.corp)
	if err != nil {
		return nil, err
	}
	return &kb.Model{Key: k, Version: payload.Version, Codec: codec}, nil
}

// HandleFetch serves a peer's OpFetchModel: peek the local sender cache
// (Peek, so remote demand never distorts this node's own eviction order
// or hit statistics) and ship the full codec stream on a hit. A miss
// returns nil — the prober moves on to the next member.
func (n *Node) HandleFetch(f rpc.FetchRequest) (*rpc.ModelPayload, error) {
	role, err := parseRole(f.Role)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	sys := n.sys
	n.mu.RUnlock()
	if sys == nil {
		return nil, errors.New("mesh: node not bound to a system")
	}
	m, ok := sys.Sender.Cache().Peek(kb.Key{Domain: f.Domain, User: f.User, Role: role})
	if !ok {
		return nil, nil
	}
	var buf bytes.Buffer
	if _, err := m.Codec.WriteTo(&buf); err != nil {
		return nil, err
	}
	n.neighborServed.Add(1)
	return &rpc.ModelPayload{Domain: f.Domain, User: f.User, Version: m.Version, Params: buf.Bytes()}, nil
}
