package mesh

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/rpc"
)

// Local is an in-process deployment: N members, each a core.System plus
// its Node, inside one process. Peers reach each other over in-memory
// pipes that carry the same v2 frames a multi-process mesh sends over
// TCP, answered by the same HandleOp dispatch. Local members never probe
// liveness, since no member of one process dies alone, and so install no
// eviction guard either: coordinated eviction feeds on probe snapshots.
//
// Like a mesh client (cmd/semload), Local routes each user by the ring
// until the user moves, and to the member of their last cell after.
type Local struct {
	members []Member

	mu       sync.RWMutex
	override map[string]int
	closed   bool
	// pipes counts the goroutines serving the in-memory connections.
	pipes sync.WaitGroup

	// stripes serialize one user's requests against that user's moves: a
	// request resolves the owner and is served under the user's stripe,
	// and a move holds it across the handover, so no request runs on a
	// member the user's state is leaving.
	stripes [64]sync.Mutex
}

// Member is one member of a Local deployment.
type Member struct {
	Sys  *core.System
	Node *Node
}

// NewLocal builds an n-member deployment of sys. Every member gets its
// own edge caches and its own codec instances: the general models are
// trained once (unless sys.Pretrained supplies them) and each member's
// System clones them. cfg carries the mesh-wide settings (MeshLink, ring
// parameters, Logf); Self and Peers are filled per member, and RingSeed
// defaults to sys.Seed.
func NewLocal(n int, sys core.Config, cfg Config) (*Local, error) {
	if n < 1 {
		return nil, fmt.Errorf("mesh: need at least 1 member, got %d", n)
	}
	if cfg.RingSeed == 0 {
		cfg.RingSeed = sys.Seed
	}
	if sys.Pretrained == nil {
		sys.Pretrained = core.Pretrain(sys)
	}
	sys.PerUserNoise = true
	infos := make([]rpc.PeerInfo, n)
	for i := range infos {
		name := fmt.Sprintf("node-%d", i)
		infos[i] = rpc.PeerInfo{Name: name, Index: i, Addr: "local/" + name}
	}
	l := &Local{members: make([]Member, n), override: make(map[string]int)}
	for i := range l.members {
		mc := cfg
		mc.Self = infos[i]
		mc.Peers = append(append([]rpc.PeerInfo{}, infos[:i]...), infos[i+1:]...)
		node, err := NewNode(mc)
		if err != nil {
			return nil, err
		}
		sc := sys
		sc.SenderName = infos[i].Name
		sc.SenderFetcher = node
		s, err := core.NewSystem(sc)
		if err != nil {
			return nil, err
		}
		node.Bind(s, edge.NewOriginFetcher(s.Cloud, s.CloudLink()))
		l.members[i] = Member{Sys: s, Node: node}
	}
	for _, m := range l.members {
		for idx, p := range m.Node.peers {
			target := l.members[idx].Node
			p.dial = func(context.Context) (net.Conn, error) { return l.dial(target) }
		}
	}
	return l, nil
}

// errLocalClosed reports a member call after Close.
var errLocalClosed = errors.New("mesh: in-process deployment closed")

// dial opens an in-memory connection served by target's HandleOp until
// the caller closes it.
func (l *Local) dial(target *Node) (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, errLocalClosed
	}
	client, server := net.Pipe()
	l.pipes.Add(1)
	go func() {
		defer l.pipes.Done()
		target.serveConn(server)
	}()
	return client, nil
}

// serveConn answers mesh ops on one in-process pipe until it closes: the
// pipe-side counterpart of an edged connection handler.
func (n *Node) serveConn(conn net.Conn) {
	defer conn.Close()
	for {
		req, version, err := rpc.ReadRequestV(conn)
		if err != nil {
			return
		}
		if err := rpc.WriteV(conn, version, n.HandleOp(req)); err != nil {
			return
		}
	}
}

// Members returns the members in ring-index order.
func (l *Local) Members() []Member { return l.members }

// Owner returns the index of the member serving user.
func (l *Local) Owner(user string) int {
	l.mu.RLock()
	i, ok := l.override[user]
	l.mu.RUnlock()
	if ok {
		return i
	}
	return l.members[0].Node.Owner(user)
}

// Route returns the member serving user and holds the user's stripe
// until release is called, so a Move of the user waits for the request.
func (l *Local) Route(user string) (m Member, release func()) {
	mu := l.stripe(user)
	mu.Lock()
	return l.members[l.Owner(user)], mu.Unlock
}

// Move attaches user to a radio cell (cell indices wrap around the
// deployment size). When the cell maps to another member, the serving
// member hands the user's complete serving state over (Node.MoveUser).
func (l *Local) Move(user string, cell int) (*rpc.Handover, error) {
	mu := l.stripe(user)
	mu.Lock()
	defer mu.Unlock()
	h, err := l.members[l.Owner(user)].Node.MoveUser(user, cell)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	for i, m := range l.members {
		if m.Node.Self().Name == h.To {
			l.override[user] = i
		}
	}
	l.mu.Unlock()
	return h, nil
}

// Warm prefetches every general model into member 0's sender and every
// member's receiver. The other senders start cold and fill from their
// neighbors on first miss, which is the behaviour the cluster exists to
// show.
func (l *Local) Warm() error {
	names := l.members[0].Sys.Corpus.Names()
	if _, err := l.members[0].Sys.Sender.Prefetch(names); err != nil {
		return err
	}
	for _, m := range l.members {
		if _, err := m.Sys.Receiver.Prefetch(names); err != nil {
			return err
		}
	}
	return nil
}

// Close stops every member, closes the pipes between them and waits for
// their serving goroutines to exit. Call it once no request is in flight.
func (l *Local) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	for _, m := range l.members {
		m.Node.Abort()
	}
	l.pipes.Wait()
}

func (l *Local) stripe(user string) *sync.Mutex {
	return &l.stripes[cluster.Hash64(user)%uint64(len(l.stripes))]
}
