package edged

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/rpc"
)

// testCtx is a per-test context bounded by a generous deadline.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

var meshKB struct {
	once sync.Once
	dir  string
	err  error
}

// meshKBDir writes the shared small pretrained codecs (soakPretrained)
// to .kbm files once per test binary: every daemon in these tests boots
// through the real -kb load path with identical weights, without paying
// pretraining per daemon.
func meshKBDir(t *testing.T) string {
	t.Helper()
	meshKB.once.Do(func() {
		dir, err := os.MkdirTemp("", "edged-mesh-kb-*")
		if err != nil {
			meshKB.err = err
			return
		}
		for _, codec := range soakPretrained(t) {
			f, err := os.Create(filepath.Join(dir, codec.Domain().Name+".kbm"))
			if err != nil {
				meshKB.err = err
				return
			}
			_, werr := codec.WriteTo(f)
			cerr := f.Close()
			if werr != nil || cerr != nil {
				meshKB.err = fmt.Errorf("write kb: %v / %v", werr, cerr)
				return
			}
		}
		meshKB.dir = dir
	})
	if meshKB.err != nil {
		t.Fatal(meshKB.err)
	}
	return meshKB.dir
}

// meshBaseConfig is the deployment-independent part: soakConfig's
// scenario (sticky, seed 11, threshold 8) expressed through the daemon's
// own Config surface.
func meshBaseConfig(t *testing.T) Config {
	cfg := *defaultConfig(t)
	cfg.Seed = 11
	cfg.KBDir = meshKBDir(t)
	cfg.BufferThreshold = 8
	cfg.ProbeInterval = 50 * time.Millisecond
	return cfg
}

// meshDeployment is a booted multi-process-shaped mesh: one Daemon per
// member, each on its own TCP listener, cooperating over the wire only.
type meshDeployment struct {
	daemons []*Daemon
	addrs   []string
	done    []chan error
}

// bootMesh reserves n loopback ports first (the static -peers list must
// be complete before any member boots), then builds and serves each
// member.
func bootMesh(t *testing.T, n int) *meshDeployment {
	t.Helper()
	return bootMeshCfg(t, n, nil)
}

// bootMeshCfg is bootMesh with a per-member config hook (replication
// degree, drain budget, ...), applied after the mesh fields are set.
func bootMeshCfg(t *testing.T, n int, mutate func(i int, cfg *Config)) *meshDeployment {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	peers := ""
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
		if i > 0 {
			peers += ","
		}
		peers += addrs[i]
	}
	m := &meshDeployment{addrs: addrs, daemons: make([]*Daemon, n), done: make([]chan error, n)}
	for i := 0; i < n; i++ {
		cfg := meshBaseConfig(t)
		cfg.Addr = addrs[i]
		cfg.Peers = peers
		cfg.MeshIndex = i
		if mutate != nil {
			mutate(i, &cfg)
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.ListenOn(lns[i])
		m.daemons[i] = d
		m.done[i] = make(chan error, 1)
		go func(i int) { m.done[i] <- d.Serve() }(i)
	}
	t.Cleanup(func() {
		for i, d := range m.daemons {
			d.Close()
			if err := <-m.done[i]; err != nil {
				t.Errorf("node %d serve: %v", i, err)
			}
		}
	})
	return m
}

// meshRouter routes requests the way cmd/semload does in mesh mode:
// client-side consistent hashing over the members it believes alive,
// with explicit per-user overrides after moves. Routing authority lives
// in the client — the mesh's ring exists for move targets and probe
// order, not request admission.
type meshRouter struct {
	t        *testing.T
	m        *meshDeployment
	alive    map[int]bool
	ring     *cluster.Ring
	override map[string]int
	clients  map[int]*rpc.Client
	seed     uint64
}

func newMeshRouter(t *testing.T, m *meshDeployment, seed uint64) *meshRouter {
	r := &meshRouter{
		t: t, m: m, seed: seed,
		alive:    make(map[int]bool),
		override: make(map[string]int),
		clients:  make(map[int]*rpc.Client),
	}
	for i := range m.daemons {
		r.alive[i] = true
	}
	r.rebuild()
	t.Cleanup(r.closeAll)
	return r
}

func (r *meshRouter) rebuild() {
	members := []int{}
	for i, ok := range r.alive {
		if ok {
			members = append(members, i)
		}
	}
	r.ring = cluster.NewRingFor(members, 64, r.seed)
	for u, n := range r.override {
		if !r.alive[n] {
			delete(r.override, u)
		}
	}
}

func (r *meshRouter) closeAll() {
	for _, c := range r.clients {
		c.Close()
	}
	r.clients = make(map[int]*rpc.Client)
}

func (r *meshRouter) client(node int) (*rpc.Client, error) {
	if c, ok := r.clients[node]; ok {
		return c, nil
	}
	c, err := rpc.Dial(r.m.addrs[node])
	if err != nil {
		return nil, err
	}
	r.clients[node] = c
	return c, nil
}

func (r *meshRouter) owner(user string) int {
	if n, ok := r.override[user]; ok {
		return n
	}
	return r.ring.Node(user)
}

// markDead records a discovered death and re-routes.
func (r *meshRouter) markDead(node int) {
	if c, ok := r.clients[node]; ok {
		c.Close()
		delete(r.clients, node)
	}
	if r.alive[node] {
		r.alive[node] = false
		r.rebuild()
	}
}

// transmit sends to the user's owner; on a dead member it marks the
// death, re-routes and retries — the client-side half of a rebalance.
// Retried requests are not client-visible errors; a failure on a member
// believed alive is.
func (r *meshRouter) transmit(user, text string) (*rpc.Response, int, error) {
	for attempt := 0; attempt < len(r.m.daemons)+1; attempt++ {
		node := r.owner(user)
		cl, err := r.client(node)
		if err != nil {
			r.markDead(node)
			continue
		}
		resp, err := cl.Transmit(user, text)
		if err != nil {
			r.markDead(node)
			continue
		}
		if resp.Draining {
			// The member answered only after its handoff completed, so the
			// retry at the recomputed owner finds the user's state in place.
			r.markDead(node)
			continue
		}
		return resp, attempt, nil
	}
	return nil, 0, fmt.Errorf("transmit %s: no live member", user)
}

// move sends a move op to the user's current serving member and applies
// the resulting ownership override locally.
func (r *meshRouter) move(user string, cell int) (*rpc.Response, error) {
	node := r.owner(user)
	cl, err := r.client(node)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Move(user, cell)
	if err != nil {
		return nil, err
	}
	if resp.OK && resp.Handover != nil {
		members := []int{}
		for i, ok := range r.alive {
			if ok {
				members = append(members, i)
			}
		}
		// Same target rule as mesh.Node.MoveUser over sorted live members.
		sortInts(members)
		r.override[user] = members[((cell%len(members))+len(members))%len(members)]
	}
	return resp, err
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// nodeStats fetches one member's mesh counters over the v2 op.
func (r *meshRouter) nodeStats(node int) (*rpc.NodeStats, error) {
	cl, err := r.client(node)
	if err != nil {
		return nil, err
	}
	return cl.PeerStats(testCtx(r.t))
}

// mergedStats merges every live member's v1 stats snapshot — the
// aggregation cmd/semload reports for a mesh.
func (r *meshRouter) mergedStats() (*rpc.Stats, error) {
	var merged *rpc.Stats
	for i := range r.m.daemons {
		if !r.alive[i] {
			continue
		}
		cl, err := r.client(i)
		if err != nil {
			return nil, err
		}
		st, err := cl.Stats()
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = st
		} else {
			merged.Merge(st)
		}
	}
	return merged, nil
}

// ops adapts the router to the digest workloads: requests that fail on a
// member believed alive fail the test.
func (r *meshRouter) ops() ops {
	return ops{
		transmit: func(user, text string) *rpc.Response {
			resp, _, err := r.transmit(user, text)
			if err != nil {
				r.t.Fatal(err)
			}
			return resp
		},
		move: func(user string, cell int) *rpc.Response {
			resp, err := r.move(user, cell)
			if err != nil {
				r.t.Fatal(err)
			}
			return resp
		},
	}
}

// The mobility-free run of TestMeshMatchesInProcessCluster: run digest,
// cooperative-fetch and cache counts, recorded from `edged -nodes 3`
// before it ran on internal/mesh. Moving the in-process cluster onto the
// mesh must not move them.
const (
	clusterRunDigest   = 0x072d7694e87bcb49
	clusterRunNeighbor = 3 // neighbor hits, and as many probes served
	clusterRunCached   = 17
)

// TestMeshMatchesInProcessCluster is the cross-transport acceptance
// check: a mobility-free serial workload against `edged -nodes 3` (pipe
// transport) and against a 3-process mesh (TCP) both produce the pinned
// run digest — bit-identity across the process boundary, noise
// realizations included — with the pinned cooperative-fetch accounting.
func TestMeshMatchesInProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh acceptance run in -short mode")
	}
	const users, requests = 6, 180
	corp := corpus.Build()

	workload := func(o ops) uint64 {
		root := mat.NewRNG(4242)
		sched := root.Split()
		gens := make([]*corpus.Generator, users)
		for i := range gens {
			gens[i] = corpus.NewGenerator(corp, root.Split())
		}
		var digest uint64
		for i := 0; i < requests; i++ {
			u := sched.Intn(users)
			user := fmt.Sprintf("u%03d", u)
			resp := o.transmit(user, gens[u].Message(u%len(corp.Domains), nil).Text())
			if !resp.OK {
				t.Fatalf("request %d failed: %q", i, resp.Error)
			}
			fold(&digest, "transmit", user, resp.Restored, resp.SelectedDomain,
				strconv.FormatUint(math.Float64bits(resp.Mismatch), 16),
				strconv.Itoa(resp.PayloadBytes),
				strconv.FormatUint(math.Float64bits(resp.LatencyMs), 16))
		}
		return digest
	}
	check := func(name string, digest uint64, st *rpc.Stats) {
		t.Helper()
		if digest != clusterRunDigest {
			t.Errorf("%s: run digest %016x, want %016x", name, digest, uint64(clusterRunDigest))
		}
		var hits, served int64
		for _, n := range st.Nodes {
			hits += n.NeighborHits
			served += n.NeighborServed
		}
		if st.Messages != requests || len(st.Nodes) != 3 {
			t.Errorf("%s: %d messages over %d nodes, want %d over 3", name, st.Messages, len(st.Nodes), requests)
		}
		if hits != clusterRunNeighbor || served != clusterRunNeighbor {
			t.Errorf("%s: neighbor hits/served %d/%d, want %d/%d", name, hits, served, clusterRunNeighbor, clusterRunNeighbor)
		}
		if st.CachedModels != clusterRunCached {
			t.Errorf("%s: cached models %d, want %d", name, st.CachedModels, clusterRunCached)
		}
		if st.Handovers != 0 {
			t.Errorf("%s: mobility-free run reported %d handovers", name, st.Handovers)
		}
	}

	addr := startClusterDaemon(t)
	check("edged -nodes 3", workload(daemonOps(t, addr)), clusterStats(t, addr))

	router := newMeshRouter(t, bootMesh(t, 3), 11)
	digest := workload(router.ops())
	st, err := router.mergedStats()
	if err != nil {
		t.Fatal(err)
	}
	check("3-process mesh", digest, st)
}

// TestMeshMobilityMatchesInProcessCluster runs the semload -mobility
// scenario against `edged -nodes 3` and against a 3-process mesh: with
// users moving, both transports must produce one run digest and one
// handover accounting, so a move carries the same state — individual
// models, belief, pending buffers, noise sequence — over a pipe as over
// TCP.
func TestMeshMobilityMatchesInProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh acceptance run in -short mode")
	}
	const (
		users, requests, cells = 6, 200, 3
		moveRate               = 0.15
		seed                   = 4242
	)
	addr := startClusterDaemon(t)
	localDigest, localMoves := mobilityRun(t, daemonOps(t, addr), users, requests, cells, moveRate, seed)
	localStats := clusterStats(t, addr)

	router := newMeshRouter(t, bootMesh(t, 3), 11)
	meshDigest, meshMoves := mobilityRun(t, router.ops(), users, requests, cells, moveRate, seed)
	meshStats, err := router.mergedStats()
	if err != nil {
		t.Fatal(err)
	}

	if localMoves == 0 {
		t.Fatal("mobility run produced no handovers")
	}
	if meshDigest != localDigest {
		t.Fatalf("mesh run diverged from edged -nodes 3 under mobility: %016x != %016x", meshDigest, localDigest)
	}
	if meshMoves != localMoves || meshStats.Handovers != localStats.Handovers ||
		meshStats.MigratedBytes != localStats.MigratedBytes || meshStats.SyncCount != localStats.SyncCount {
		t.Fatalf("handover accounting diverged: mesh %d/%d/%d/%d, edged -nodes 3 %d/%d/%d/%d",
			meshMoves, meshStats.Handovers, meshStats.MigratedBytes, meshStats.SyncCount,
			localMoves, localStats.Handovers, localStats.MigratedBytes, localStats.SyncCount)
	}
}

// TestMeshMobilityHandover moves a personalized user between mesh
// members: the v1 move op on the serving member must push the user's
// individual models and noise sequence to the new owner over the wire,
// and the first transmit there must already serve from the migrated
// individual model.
func TestMeshMobilityHandover(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh handover run in -short mode")
	}
	m := bootMesh(t, 3)
	router := newMeshRouter(t, m, 11)
	corp := corpus.Build()

	user := "wanderer"
	from := router.owner(user)
	gen := corpus.NewGenerator(corp, mat.NewRNG(99))
	// Enough single-domain traffic to fire the update (threshold 8), so
	// the handover has a real payload.
	var sawIndividual bool
	for i := 0; i < 10; i++ {
		resp, _, err := router.transmit(user, gen.Message(0, nil).Text())
		if err != nil || !resp.OK {
			t.Fatalf("warmup %d: %+v, %v", i, resp, err)
		}
		sawIndividual = sawIndividual || resp.Individual
	}
	if !sawIndividual {
		t.Fatal("update process never personalized the user; handover would be empty")
	}

	// Pick a cell that lands on a different member.
	cell := 0
	for ; cell < 3; cell++ {
		if cell%3 != from {
			break
		}
	}
	resp, err := router.move(user, cell)
	if err != nil || !resp.OK || resp.Handover == nil {
		t.Fatalf("move failed: %+v, %v", resp, err)
	}
	h := resp.Handover
	if !h.Moved || h.From == h.To {
		t.Fatalf("move did not change the serving member: %+v", h)
	}
	if h.Models == 0 || h.MigratedBytes <= 0 || h.LatencyMs <= 0 {
		t.Fatalf("handover carried nothing: %+v", h)
	}
	to := router.owner(user)
	if to == from {
		t.Fatalf("router still maps %s to %d", user, from)
	}

	// The new owner serves from the migrated individual model at once.
	resp2, _, err := router.transmit(user, gen.Message(0, nil).Text())
	if err != nil || !resp2.OK {
		t.Fatalf("post-handover transmit: %+v, %v", resp2, err)
	}
	if !resp2.Individual {
		t.Fatal("post-handover transmit fell back to the general model: migration lost the individual model")
	}

	oldStats, err := router.nodeStats(from)
	if err != nil {
		t.Fatal(err)
	}
	newStats, err := router.nodeStats(to)
	if err != nil {
		t.Fatal(err)
	}
	if oldStats.HandoversOut != 1 || newStats.HandoversIn != 1 {
		t.Fatalf("handover counters: out %d (want 1), in %d (want 1)", oldStats.HandoversOut, newStats.HandoversIn)
	}
}

// TestMeshOpsRequireV2 pins the wire-compat contract: v1 clients keep
// full access to the classic ops, and mesh ops on a v1 frame are
// rejected with the protocol error, never silently served.
func TestMeshOpsRequireV2(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh boot in -short mode")
	}
	m := bootMesh(t, 2)

	// v1 surface intact.
	cl, err := rpc.Dial(m.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Transmit("v1user", "the server has a kernel bug")
	if err != nil || !resp.OK {
		t.Fatalf("v1 transmit: %+v, %v", resp, err)
	}

	// A mesh op framed at v1 must bounce with the version error.
	conn, err := net.Dial("tcp", m.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	self := m.daemons[1].Mesh.Self()
	if err := rpc.Write(conn, &rpc.Request{Op: rpc.OpJoin, Peer: &self}); err != nil {
		t.Fatal(err)
	}
	v1resp, err := rpc.ReadResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if v1resp.OK || v1resp.Error != rpc.ErrMeshOpVersion.Error() {
		t.Fatalf("v1-framed mesh op not rejected: %+v", v1resp)
	}

	// The same op at v2 is served.
	peers, err := cl.Join(testCtx(t), self)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("join returned %d members, want 2", len(peers))
	}
}

// TestMeshChaosKill is the chaos acceptance criterion: kill one of three
// members mid-run. Requests in flight to the dead member are retried by
// the client against the recomputed ring (not client-visible errors);
// after that rebalance every request must succeed, the pre-kill mobility
// handovers must have happened, and the survivors must have resolved
// misses cooperatively.
func TestMeshChaosKill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	const (
		users, requests = 6, 240
		killAt, victim  = 120, 1
		moveRate        = 0.1
		cells           = 3
	)
	m := bootMesh(t, 3)
	router := newMeshRouter(t, m, 11)
	corp := corpus.Build()
	root := mat.NewRNG(777)
	sched := root.Split()
	gens := make([]*corpus.Generator, users)
	for i := range gens {
		gens[i] = corpus.NewGenerator(corp, root.Split())
	}

	handovers, retries, survivorServed := 0, 0, 0
	for i := 0; i < requests; i++ {
		if i == killAt {
			m.daemons[victim].Kill()
		}
		u := sched.Intn(users)
		user := fmt.Sprintf("u%03d", u)
		if i < killAt && sched.Float64() < moveRate {
			// Pre-kill mobility so cross-member handovers happen; the
			// serving member may be the victim later, exercising the
			// override-remap path.
			resp, err := router.move(user, sched.Intn(cells))
			if err != nil || !resp.OK {
				t.Fatalf("move %d: %+v, %v", i, resp, err)
			}
			if resp.Handover.Moved {
				handovers++
			}
		}
		resp, attempts, err := router.transmit(user, gens[u].Message(u%len(corp.Domains), nil).Text())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !resp.OK {
			t.Fatalf("request %d: client-visible error after rebalance: %q", i, resp.Error)
		}
		retries += attempts
		if router.owner(user) != victim {
			survivorServed++
		}
	}

	if handovers == 0 {
		t.Fatal("chaos run produced no handovers before the kill")
	}
	if router.alive[victim] {
		t.Fatal("client never discovered the kill — no request routed to the victim?")
	}
	if retries == 0 {
		t.Fatal("no request was retried: the kill was invisible, assertion too weak")
	}

	// Survivors: cooperative fetches happened, and their probe loops have
	// demoted the victim (zero remaining live-member churn).
	var neighborHits int64
	for _, idx := range []int{0, 2} {
		ns, err := router.nodeStats(idx)
		if err != nil {
			t.Fatalf("survivor %d stats: %v", idx, err)
		}
		neighborHits += ns.NeighborHits
	}
	if neighborHits == 0 {
		t.Fatal("survivors resolved no misses cooperatively")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := m.daemons[0].Mesh.LiveMembers()
		if len(live) == 2 && live[0] == 0 && live[1] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor 0 never demoted the victim: live members %v", live)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The mesh is still fully serviceable after the rebalance: the
	// survivors' counters account for every request the client routed to
	// them (the victim's pre-kill share died with it, by design).
	st, err := router.mergedStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != survivorServed {
		t.Fatalf("survivors report %d messages, client routed %d to them", st.Messages, survivorServed)
	}
	if got := requests - killAt; survivorServed < got {
		t.Fatalf("survivors served %d, want at least the %d post-kill requests", survivorServed, got)
	}
}

// TestMeshChaosDrain is the graceful-departure acceptance criterion:
// drain (SIGTERM semantics) one of three members mid-run. Unlike the
// chaos kill, a drain is lossless — every model the victim owned and
// every user's full serving state (individual models, noise sequence,
// selection belief, pending update buffers) is pushed to the new ring
// owners before the victim answers Draining, so the run digest matches
// a reference run against the same mesh with no drain at all: zero
// client-visible errors, zero divergence, zero origin re-fetches.
func TestMeshChaosDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drain run in -short mode")
	}
	const (
		users, requests = 6, 240
		drainAt, victim = 120, 1
	)
	corp := corpus.Build()

	// Every member warms its sender cache: both runs then serve with
	// identical cache latencies, which is what makes the digests
	// comparable (the drain moves users between members, and a response
	// must not depend on which member produced it).
	warmAll := func(m *meshDeployment) {
		t.Helper()
		for _, d := range m.daemons {
			if _, err := d.Sys.Sender.Prefetch(d.Sys.Corpus.Names()); err != nil {
				t.Fatal(err)
			}
		}
	}

	workload := func(m *meshDeployment, router *meshRouter, drain bool) uint64 {
		t.Helper()
		root := mat.NewRNG(515)
		sched := root.Split()
		gens := make([]*corpus.Generator, users)
		for i := range gens {
			gens[i] = corpus.NewGenerator(corp, root.Split())
		}
		drainErr := make(chan error, 1)
		var digest uint64
		for i := 0; i < requests; i++ {
			if drain && i == drainAt {
				// Asynchronous, exactly like a SIGTERM landing mid-run: the
				// serial load keeps flowing while the victim drains.
				go func() { drainErr <- m.daemons[victim].Drain() }()
			}
			u := sched.Intn(users)
			user := fmt.Sprintf("u%03d", u)
			resp, _, err := router.transmit(user, gens[u].Message(u%len(corp.Domains), nil).Text())
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if !resp.OK {
				t.Fatalf("request %d: client-visible error during drain: %q", i, resp.Error)
			}
			fold(&digest, "transmit", user, resp.Restored, resp.SelectedDomain,
				strconv.FormatUint(math.Float64bits(resp.Mismatch), 16),
				strconv.Itoa(resp.PayloadBytes),
				strconv.FormatUint(math.Float64bits(resp.LatencyMs), 16))
		}
		if drain {
			select {
			case err := <-drainErr:
				if err != nil {
					t.Fatalf("drain: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("drain never finished")
			}
		}
		return digest
	}

	// Reference: the identical workload against an identical mesh whose
	// membership never changes.
	ref := bootMesh(t, 3)
	warmAll(ref)
	refDigest := workload(ref, newMeshRouter(t, ref, 11), false)

	// Candidate: same mesh, with member 1 drained at the midpoint.
	m := bootMesh(t, 3)
	warmAll(m)
	router := newMeshRouter(t, m, 11)
	// Boot and warmup legitimately paid origin fetches (member 0 fills
	// the mesh's first copy from the cloud); the drain gate is that the
	// run itself adds none.
	preOrigin := make(map[int]int64)
	for _, idx := range []int{0, 2} {
		ns, err := router.nodeStats(idx)
		if err != nil {
			t.Fatalf("survivor %d stats: %v", idx, err)
		}
		preOrigin[idx] = ns.OriginFetches
	}
	digest := workload(m, router, true)

	if digest != refDigest {
		t.Fatalf("drained run diverged from undrained reference: %016x != %016x", digest, refDigest)
	}
	if router.alive[victim] {
		t.Fatal("client never observed the drain — no request was ever rerouted")
	}
	var handoversIn int64
	for _, idx := range []int{0, 2} {
		ns, err := router.nodeStats(idx)
		if err != nil {
			t.Fatalf("survivor %d stats: %v", idx, err)
		}
		if grew := ns.OriginFetches - preOrigin[idx]; grew != 0 {
			t.Fatalf("survivor %d paid %d origin re-fetches; a graceful drain must hand everything off", idx, grew)
		}
		handoversIn += ns.HandoversIn
	}
	if handoversIn == 0 {
		t.Fatal("no survivor received a drain handoff: the victim's users were lost, not handed over")
	}
	// The drained member's probe-announced departure pinned it down:
	// survivors agree on the two-member view.
	live := m.daemons[0].Mesh.LiveMembers()
	if len(live) != 2 || live[0] != 0 || live[1] != 2 {
		t.Fatalf("survivor 0 live view after drain: %v, want [0 2]", live)
	}
}

// TestMeshLeavePinsDeparted pins the Leave-vs-probe race: an OpLeave
// observation is authoritative and a concurrent liveness-probe success
// against the still-answering member (it keeps serving RPCs while its
// drain runs) must not resurrect it. Only a fresh OpJoin revives it.
func TestMeshLeavePinsDeparted(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh boot in -short mode")
	}
	m := bootMesh(t, 3)
	cl, err := rpc.Dial(m.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Let the membership settle first: the boot-time joins must all be
	// processed, or a late join would legitimately revive the member we
	// are about to declare departed.
	deadline := time.Now().Add(10 * time.Second)
	for stable := 0; stable < 10; {
		if len(m.daemons[0].Mesh.LiveMembers()) == 3 {
			stable++
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			t.Fatalf("mesh never settled: live view %v", m.daemons[0].Mesh.LiveMembers())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Forge member 1's departure announcement at member 0 while member 1
	// is in fact still up and answering member 0's probes.
	self1 := m.daemons[1].Mesh.Self()
	if err := cl.Leave(testCtx(t), self1); err != nil {
		t.Fatal(err)
	}
	live := m.daemons[0].Mesh.LiveMembers()
	if len(live) != 2 || live[0] != 0 || live[1] != 2 {
		t.Fatalf("live view after leave: %v, want [0 2]", live)
	}

	// Six probe intervals' worth of successful probes against the live
	// member must not lift the pin.
	time.Sleep(6 * 50 * time.Millisecond)
	live = m.daemons[0].Mesh.LiveMembers()
	if len(live) != 2 || live[0] != 0 || live[1] != 2 {
		t.Fatalf("probe success resurrected the departed member: live view %v, want [0 2]", live)
	}

	// A fresh join is the one event that revives it.
	if _, err := cl.Join(testCtx(t), self1); err != nil {
		t.Fatal(err)
	}
	live = m.daemons[0].Mesh.LiveMembers()
	if len(live) != 3 {
		t.Fatalf("join did not revive the member: live view %v, want [0 1 2]", live)
	}
}

// TestMeshReplicaPush drives enough single-domain traffic through one
// member to promote the domain past the hot threshold and asserts the
// general model lands proactively on the member's ring successor —
// without touching the user-handover counters (replication is a cache
// concern, not a mobility event).
func TestMeshReplicaPush(t *testing.T) {
	if testing.Short() {
		t.Skip("replica run in -short mode")
	}
	m := bootMeshCfg(t, 3, func(i int, cfg *Config) { cfg.Replicas = 1 })
	router := newMeshRouter(t, m, 11)
	corp := corpus.Build()

	// Pick a user owned by member 0 or 1, so the push successor is a cold
	// member (member 0 boots warm and would count as already-replicated).
	user, owner := "", -1
	for u := 0; u < 64; u++ {
		name := fmt.Sprintf("r%03d", u)
		if o := router.owner(name); o != 2 {
			user, owner = name, o
			break
		}
	}
	if user == "" {
		t.Fatal("no user hashed to members 0/1")
	}
	succ := (owner + 1) % 3

	gen := corpus.NewGenerator(corp, mat.NewRNG(5))
	for i := 0; i < 24; i++ {
		resp, _, err := router.transmit(user, gen.Message(0, nil).Text())
		if err != nil || !resp.OK {
			t.Fatalf("transmit %d: %+v, %v", i, resp, err)
		}
	}

	// The promotion threshold is 16 served transmits on one domain and
	// the push is asynchronous; poll the wire-visible counters.
	deadline := time.Now().Add(5 * time.Second)
	var os, ss *rpc.NodeStats
	for {
		var err1, err2 error
		os, err1 = router.nodeStats(owner)
		ss, err2 = router.nodeStats(succ)
		if err1 == nil && err2 == nil && os.ReplicasOut >= 1 && ss.ReplicasIn >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never arrived: owner %+v, successor %+v (%v/%v)", os, ss, err1, err2)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(os.Hot) == 0 || os.Hot[0].Count < 16 {
		t.Fatalf("owner's heat snapshot missing the hot domain: %+v", os.Hot)
	}
	hot := os.Hot[0].Domain
	found := false
	for _, d := range ss.Generals {
		found = found || d == hot
	}
	if !found {
		t.Fatalf("successor does not hold the replicated general %q: %v", hot, ss.Generals)
	}
	if os.HandoversOut != 0 || ss.HandoversIn != 0 {
		t.Fatalf("replica push bumped user-handover counters: out %d, in %d", os.HandoversOut, ss.HandoversIn)
	}
}
