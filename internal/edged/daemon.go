package edged

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers for PprofAddr
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edge"
	"repro/internal/mat"
	"repro/internal/mesh"
	"repro/internal/rpc"
	"repro/internal/semantic"
)

// loadKB loads one pretrained codec per corpus domain from dir (files
// written by cmd/semkb), in domain order.
func loadKB(dir string) ([]*semantic.Codec, error) {
	corp := corpus.Build()
	out := make([]*semantic.Codec, len(corp.Domains))
	for i, d := range corp.Domains {
		path := filepath.Join(dir, d.Name+".kbm")
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("edged: %w (run `semkb -pretrain -out %s` first)", err, dir)
		}
		codec, err := semantic.ReadCodec(f, corp)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("edged: %s: %w", path, err)
		}
		if codec.Domain().Name != d.Name {
			return nil, fmt.Errorf("edged: %s holds domain %q, want %q", path, codec.Domain().Name, d.Name)
		}
		out[i] = codec
	}
	return out, nil
}

// Daemon is one booted edged instance: the serving system, the optional
// mesh membership, and the request server, ready to Listen and Serve.
type Daemon struct {
	Cfg Config
	// Sys is the serving system; with -nodes, member 0's.
	Sys  *core.System
	Mesh *mesh.Node // nil outside -peers mode

	local    *mesh.Local // nil outside -nodes mode
	srv      *server
	ln       net.Listener
	draining atomic.Bool
}

// New validates cfg and boots the daemon: models pretrained or loaded,
// system (or, with -nodes, every member) built, caches warmed (in a
// cluster only member 0 warms its sender — the others fill cooperatively,
// which is the behavior the cluster exists to show), mesh membership
// constructed. It does not listen yet.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers > 0 {
		mat.SetParallelism(cfg.Workers)
	}
	if cfg.PprofAddr != "" {
		if cfg.ProfileContention {
			// Opt-in contention observability: sample every mutex hold
			// and every blocking event so /debug/pprof/mutex and
			// /debug/pprof/block show where serve-path goroutines wait.
			// This is how the per-user channel lock was measured before
			// the pooled lock-free stage replaced it.
			runtime.SetMutexProfileFraction(1)
			runtime.SetBlockProfileRate(1)
		}
		// The pprof mux registers on http.DefaultServeMux via the blank
		// import; serving it on a side port lets `go tool pprof` attach to
		// a live daemon and profile serving hotspots under real load.
		go func() {
			log.Printf("edged: pprof on http://%s/debug/pprof/", cfg.PprofAddr)
			if err := http.ListenAndServe(cfg.PprofAddr, nil); err != nil {
				log.Printf("edged: pprof server: %v", err)
			}
		}()
	}

	coreCfg := core.Config{
		Selector:        cfg.Selector,
		SNRdB:           cfg.SNRdB,
		PinGeneral:      true,
		Seed:            cfg.Seed,
		BatchWindow:     cfg.BatchWindow,
		BatchMaxTokens:  cfg.BatchMaxTokens,
		BufferThreshold: cfg.BufferThreshold,
		Tier:            cfg.Tier,
	}
	var node *mesh.Node
	if cfg.MeshEnabled() {
		members := cfg.MeshMembers()
		self := members[cfg.MeshIndex]
		others := append(append([]rpc.PeerInfo{}, members[:cfg.MeshIndex]...), members[cfg.MeshIndex+1:]...)
		var err error
		node, err = mesh.NewNode(mesh.Config{
			Self:          self,
			Peers:         others,
			RingSeed:      cfg.Seed,
			ProbeInterval: cfg.ProbeInterval,
			Replicas:      cfg.Replicas,
			Logf:          log.Printf,
		})
		if err != nil {
			return nil, err
		}
		// A mesh member is a system named after its ring slot, with the
		// mesh as its miss resolver and per-user noise on — the
		// combination that makes every deployment shape serve a user
		// bit-identically.
		coreCfg.SenderName = self.Name
		coreCfg.SenderFetcher = node
		coreCfg.PerUserNoise = true
	}
	start := time.Now()
	if cfg.KBDir != "" {
		log.Printf("edged: loading pretrained models from %s...", cfg.KBDir)
		pretrained, err := loadKB(cfg.KBDir)
		if err != nil {
			return nil, err
		}
		coreCfg.Pretrained = pretrained
	} else {
		log.Printf("edged: pretraining general models (selector=%s, snr=%.1f dB)...", cfg.Selector, cfg.SNRdB)
	}
	var srv *server
	var err error
	if cfg.Nodes > 1 {
		srv, err = newLocalServer(cfg, coreCfg)
	} else {
		srv, err = newMemberServer(cfg, coreCfg, node)
	}
	if err != nil {
		return nil, err
	}
	log.Printf("edged: ready in %v (domains: %v)", time.Since(start).Round(time.Millisecond), srv.members[0].sys.Corpus.Names())
	srv.idleTimeout = cfg.IdleTimeout
	srv.writeTimeout = cfg.WriteTimeout
	srv.shedAfter = cfg.ShedAfter
	return &Daemon{Cfg: cfg, Sys: srv.members[0].sys, Mesh: node, local: srv.local, srv: srv}, nil
}

// newMemberServer boots a single system: the classic daemon, or member
// node of a -peers mesh.
func newMemberServer(cfg Config, coreCfg core.Config, node *mesh.Node) (*server, error) {
	sys, err := core.NewSystem(coreCfg)
	if err != nil {
		return nil, err
	}
	if node != nil {
		node.Bind(sys, edge.NewOriginFetcher(sys.Cloud, sys.CloudLink()))
		// Coordinated eviction: a mesh member must not evict the mesh's
		// last copy of a general model.
		sys.Sender.Cache().SetEvictionGuard(node.EvictionGuard)
	}
	// A mesh warms only member 0's sender; the other members pull models
	// cooperatively from their neighbors on first miss.
	if node == nil || node.Self().Index == 0 {
		if _, err := sys.Sender.Prefetch(sys.Corpus.Names()); err != nil {
			return nil, err
		}
	}
	if _, err := sys.Receiver.Prefetch(sys.Corpus.Names()); err != nil {
		return nil, err
	}
	if node != nil {
		log.Printf("edged: mesh mode, member %s (%d/%d)", node.Self().Name, node.Self().Index, node.Total())
	}
	srv := newServer(sys, cfg.MaxInflight)
	srv.members[0].node = node
	srv.mesh = node
	return srv, nil
}

// newLocalServer boots `edged -nodes N`: N members in this process over
// the in-memory mesh transport, warmed as a mesh is, with each request
// routed to the user's member.
func newLocalServer(cfg Config, coreCfg core.Config) (*server, error) {
	local, err := mesh.NewLocal(cfg.Nodes, coreCfg, mesh.Config{RingSeed: cfg.Seed, Logf: log.Printf})
	if err != nil {
		return nil, err
	}
	if err := local.Warm(); err != nil {
		local.Close()
		return nil, err
	}
	srv := newServer(local.Members()[0].Sys, cfg.MaxInflight)
	srv.members = srv.members[:0]
	for _, m := range local.Members() {
		srv.members = append(srv.members, &member{sys: m.Sys, node: m.Node})
	}
	srv.local = local
	log.Printf("edged: cluster mode, %d in-process members (node-0 warm, peers cold)", cfg.Nodes)
	return srv, nil
}

// Listen binds the daemon's TCP listener.
func (d *Daemon) Listen() error {
	ln, err := net.Listen("tcp", d.Cfg.Addr)
	if err != nil {
		return err
	}
	d.ln = ln
	log.Printf("edged: listening on %s", ln.Addr())
	return nil
}

// ListenOn adopts a pre-bound listener instead of binding Cfg.Addr —
// mesh tests reserve every member's port up front, because the static
// peer list must be complete before any member boots.
func (d *Daemon) ListenOn(ln net.Listener) { d.ln = ln }

// Addr returns the bound listen address (useful with ":0").
func (d *Daemon) Addr() string {
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Serve runs the accept loop until Close (or an accept error), after
// announcing this member to its mesh peers. It drains in-flight
// handlers before returning.
func (d *Daemon) Serve() error {
	if d.ln == nil {
		if err := d.Listen(); err != nil {
			return err
		}
	}
	if d.Mesh != nil {
		d.Mesh.Start()
	}
	if d.Cfg.BatchWindow > 0 {
		log.Printf("edged: cross-request batching on (window %v)", d.Cfg.BatchWindow)
	}
	err := d.srv.serve(d.ln)
	if d.Mesh != nil {
		d.Mesh.Stop()
	}
	if d.local != nil {
		d.local.Close()
	}
	return err
}

// Close stops the daemon gracefully: the mesh membership announces its
// departure, the listener stops accepting, and idle connections close
// so Serve can drain the busy ones and return. Safe to call more than
// once.
func (d *Daemon) Close() {
	if d.Mesh != nil {
		d.Mesh.Stop()
	}
	if d.ln != nil {
		d.ln.Close()
	}
	d.srv.closeIdleConns()
}

// Drain removes the daemon from service gracefully: new transmits and
// moves park at the drain gate, in-flight ones finish, and the mesh
// membership hands every owned model and tracked user to the new
// consistent-hash owners before announcing departure (see mesh.Drain).
// Parked requests are answered with Draining only after the handoff
// completes, so a client that retries at the new owner finds its state
// already there. The whole drain is bounded by -drain-timeout; on
// expiry (or a handoff error) the daemon falls back to crash-stop
// semantics for whatever is left. Repeated calls are no-ops.
func (d *Daemon) Drain() error {
	if !d.draining.CompareAndSwap(false, true) {
		return nil
	}
	budget := d.Cfg.DrainTimeout
	if budget <= 0 {
		budget = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	// finishDrain must run on every path: it releases the handlers parked
	// at the drain gate, without which Serve's handler drain never ends.
	defer d.srv.finishDrain()
	d.srv.beginDrain()
	err := d.srv.awaitIdle(ctx)
	if err == nil && d.Mesh != nil {
		err = d.Mesh.Drain(ctx)
	}
	if err != nil {
		log.Printf("edged: drain: %v; falling back to crash-stop", err)
		d.Kill()
		return err
	}
	log.Printf("edged: drain complete")
	d.Close()
	return nil
}

// Kill emulates a process death: the mesh membership is aborted without
// announcing departure (peers must discover the loss through their
// liveness probes, exactly as with a real SIGKILL), the listener closes
// and every open connection is severed mid-stream.
func (d *Daemon) Kill() {
	if d.Mesh != nil {
		d.Mesh.Abort()
	}
	d.Close()
	d.srv.killConns()
}
