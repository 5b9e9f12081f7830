package mesh

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/kb"
	"repro/internal/rpc"
)

// Handoff side labels on the wire.
const (
	sideSender   = "sender"
	sideReceiver = "receiver"
)

// exportToWire flattens a user's exported serving state into the v2
// handover payload: both sides' individual models, the selection belief
// and the pending federated-update buffers.
func exportToWire(exp *core.UserExport, from string) *rpc.HandoffPayload {
	h := &rpc.HandoffPayload{User: exp.User, FromNode: from, NoiseSeq: exp.NoiseSeq}
	add := func(side string, models []*edge.ExportedModel) {
		for _, m := range models {
			h.Models = append(h.Models, rpc.HandoffModel{Side: side, Model: rpc.ModelPayload{
				Domain:  m.Domain,
				User:    m.User,
				Version: m.Version,
				Params:  m.Params,
			}})
		}
	}
	add(sideSender, exp.Sender)
	add(sideReceiver, exp.Receiver)
	h.Belief = exp.Belief
	for _, b := range exp.Buffers {
		wb := rpc.BufferState{Domain: b.Domain}
		for _, tx := range b.Txs {
			wb.Txs = append(wb.Txs, rpc.TxState{
				Surfaces: tx.SurfaceIDs,
				Concepts: tx.ConceptIDs,
				Decoded:  tx.Decoded,
			})
		}
		h.Buffers = append(h.Buffers, wb)
	}
	return h
}

// exportFromWire is the inverse of exportToWire.
func exportFromWire(h *rpc.HandoffPayload) (*core.UserExport, error) {
	exp := &core.UserExport{User: h.User, NoiseSeq: h.NoiseSeq, Belief: h.Belief}
	for _, hm := range h.Models {
		m := &edge.ExportedModel{
			Domain:  hm.Model.Domain,
			User:    hm.Model.User,
			Version: hm.Model.Version,
			Params:  hm.Model.Params,
		}
		switch hm.Side {
		case sideSender:
			exp.Sender = append(exp.Sender, m)
		case sideReceiver:
			exp.Receiver = append(exp.Receiver, m)
		default:
			return nil, fmt.Errorf("mesh: unknown handoff side %q", hm.Side)
		}
	}
	for _, wb := range h.Buffers {
		b := edge.BufferState{Domain: wb.Domain}
		for _, tx := range wb.Txs {
			b.Txs = append(b.Txs, fl.Transaction{
				SurfaceIDs: tx.Surfaces,
				ConceptIDs: tx.Concepts,
				Decoded:    tx.Decoded,
			})
		}
		exp.Buffers = append(exp.Buffers, b)
	}
	return exp, nil
}

// MoveUser serves a v1 "move" op on a mesh member: attach the user to a
// radio cell and, when the cell maps to a different live member, push
// the user's serving state there and drop it locally. The reported
// latency is the simulated mesh-link transfer of the sender-side
// payload.
func (n *Node) MoveUser(user string, cell int) (*rpc.Handover, error) {
	n.mu.RLock()
	sys := n.sys
	n.mu.RUnlock()
	if sys == nil {
		return nil, fmt.Errorf("mesh: node not bound to a system")
	}
	members := n.LiveMembers()
	target := members[((cell%len(members))+len(members))%len(members)]
	if target == n.self.Index {
		n.TouchUser(user)
		return &rpc.Handover{From: n.self.Name, To: n.self.Name}, nil
	}
	p, ok := n.peers[target]
	if !ok {
		return nil, fmt.Errorf("mesh: no peer at index %d", target)
	}
	exp, err := sys.ExportUserForHandover(user)
	if err != nil {
		return nil, err
	}
	payload := exportToWire(exp, n.self.Name)
	err = p.call(context.Background(), n.cfg.CallTimeout, func(ctx context.Context, c *rpc.Client) error {
		return c.HandoverPush(ctx, payload)
	})
	if err != nil {
		n.setAlive(p, false)
		return nil, fmt.Errorf("mesh: handover %s to %s: %w", user, p.info.Name, err)
	}
	sys.DropUserAfterHandover(exp)
	n.dropUser(user)
	bytes := exp.SenderBytes()
	n.handoversOut.Add(1)
	n.migratedBytes.Add(bytes)
	return &rpc.Handover{
		From:          n.self.Name,
		To:            p.info.Name,
		Moved:         true,
		Models:        len(exp.Sender),
		MigratedBytes: bytes,
		LatencyMs:     float64(n.cfg.MeshLink.TransferTime(bytes)) / float64(time.Millisecond),
	}, nil
}

// HandleHandoverPush serves a peer's OpHandoverPush: install any pushed
// general models (drain rebalancing or a hot-model replica), then the
// user state, so the first local transmit continues the user's noise
// stream exactly where the old owner stopped.
func (n *Node) HandleHandoverPush(h *rpc.HandoffPayload) error {
	n.mu.RLock()
	sys := n.sys
	n.mu.RUnlock()
	if sys == nil {
		return fmt.Errorf("mesh: node not bound to a system")
	}
	for i := range h.General {
		g := &h.General[i]
		k := kb.Key{Domain: g.Domain, Role: kb.RoleCodec}
		m, err := n.reviveModel(k, g)
		if err != nil {
			return fmt.Errorf("mesh: revive pushed general %s: %w", g.Domain, err)
		}
		// A drain push makes this node an owner: install exactly as a
		// local origin fetch would (pin iff this edge pins generals). A
		// replica push is a cache hint and stays evictable — coordinated
		// eviction protects the mesh's last copy.
		pinned := h.Reason == rpc.HandoffDrain && sys.Sender.PinsGeneral()
		if err := sys.Sender.Cache().Put(m, pinned); err != nil {
			if h.Reason == rpc.HandoffReplica {
				n.cfg.Logf("mesh: replica %s rejected: %v", g.Domain, err)
				continue
			}
			return fmt.Errorf("mesh: install pushed general %s: %w", g.Domain, err)
		}
		if h.Reason == rpc.HandoffReplica {
			n.replicasIn.Add(1)
		}
	}
	if h.User == "" {
		return nil // pure general-model push, no user state rides along
	}
	exp, err := exportFromWire(h)
	if err != nil {
		return err
	}
	if err := sys.ImportUserFromHandover(exp); err != nil {
		return err
	}
	n.handoversIn.Add(1)
	n.TouchUser(h.User)
	return nil
}
