package edged

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/rpc"
)

// startClusterDaemon boots `edged -nodes 3` on a loopback port and
// returns its address; the daemon stops when the test ends.
func startClusterDaemon(t *testing.T) string {
	t.Helper()
	cfg := meshBaseConfig(t)
	cfg.Addr = "127.0.0.1:0"
	cfg.Nodes = 3
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve() }()
	t.Cleanup(func() {
		d.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return d.Addr()
}

// ops is the request surface a digest workload drives: one daemon over
// one connection, or a client-routed mesh.
type ops struct {
	transmit func(user, text string) *rpc.Response
	move     func(user string, cell int) *rpc.Response
}

// daemonOps drives one daemon over one connection.
func daemonOps(t *testing.T, addr string) ops {
	t.Helper()
	cl, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return ops{
		transmit: func(user, text string) *rpc.Response {
			resp, err := cl.Transmit(user, text)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		},
		move: func(user string, cell int) *rpc.Response {
			resp, err := cl.Move(user, cell)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		},
	}
}

// fold mirrors cmd/semload's digest folding.
func fold(digest *uint64, parts ...string) {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	*digest ^= h.Sum64() + 0x9e3779b97f4a7c15 + (*digest << 6) + (*digest >> 2)
}

// mobilityRun drives the semload -mobility scenario: a serial seeded
// stream of moves and transmits. It returns the run digest plus the
// observed handover count.
func mobilityRun(t *testing.T, o ops, users, requests, cells int, moveRate float64, seed uint64) (uint64, int) {
	t.Helper()
	corp := corpus.Build()
	root := mat.NewRNG(seed)
	sched := root.Split()
	gens := make([]*corpus.Generator, users)
	for i := range gens {
		gens[i] = corpus.NewGenerator(corp, root.Split())
	}
	var digest uint64
	handovers := 0
	for i := 0; i < requests; i++ {
		u := sched.Intn(users)
		user := fmt.Sprintf("u%03d", u)
		if sched.Float64() < moveRate {
			cell := sched.Intn(cells)
			resp := o.move(user, cell)
			if !resp.OK || resp.Handover == nil {
				t.Fatalf("move failed: %+v", resp)
			}
			if resp.Handover.Moved {
				handovers++
			}
			fold(&digest, "move", user, strconv.Itoa(cell),
				resp.Handover.From, resp.Handover.To,
				strconv.FormatBool(resp.Handover.Moved),
				strconv.FormatInt(resp.Handover.MigratedBytes, 10))
		}
		// Sticky per-user domains concentrate each user's traffic so the
		// update process fires, individual models form, and handovers have
		// real payloads to migrate.
		msg := gens[u].Message(u%len(corp.Domains), nil)
		resp := o.transmit(user, msg.Text())
		if !resp.OK {
			t.Fatalf("transmit %d failed: %q", i, resp.Error)
		}
		fold(&digest, "transmit", user, resp.Restored, resp.SelectedDomain,
			strconv.FormatUint(math.Float64bits(resp.Mismatch), 16),
			strconv.Itoa(resp.PayloadBytes),
			strconv.FormatUint(math.Float64bits(resp.LatencyMs), 16))
	}
	return digest, handovers
}

// clusterStats fetches the daemon's stats snapshot.
func clusterStats(t *testing.T, addr string) *rpc.Stats {
	t.Helper()
	cl, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestClusterMobilityDeterministicRun is the acceptance run: the semload
// -mobility scenario against a 3-node daemon must produce handovers and
// neighbor cache hits, and two identically-seeded runs against two
// identically-started daemons must be bit-identical.
func TestClusterMobilityDeterministicRun(t *testing.T) {
	const (
		users, requests, cells = 6, 200, 3
		moveRate               = 0.15
		seed                   = 4242
	)
	run := func() (uint64, int, *rpc.Stats) {
		addr := startClusterDaemon(t)
		digest, handovers := mobilityRun(t, daemonOps(t, addr), users, requests, cells, moveRate, seed)
		return digest, handovers, clusterStats(t, addr)
	}
	d1, h1, st1 := run()
	d2, h2, st2 := run()

	if h1 == 0 {
		t.Fatal("mobility run produced no handovers")
	}
	if st1.Handovers == 0 || st1.MigratedBytes == 0 {
		t.Fatalf("daemon saw no migrations: %+v", st1)
	}
	var neighborHits int64
	for _, n := range st1.Nodes {
		neighborHits += n.NeighborHits
	}
	if neighborHits == 0 {
		t.Fatal("mobility run produced no cooperative cache hits")
	}
	if len(st1.Nodes) != 3 {
		t.Fatalf("stats report %d nodes, want 3", len(st1.Nodes))
	}

	if d1 != d2 {
		t.Fatalf("identically-seeded runs diverged: %016x != %016x", d1, d2)
	}
	if h1 != h2 || st1.Handovers != st2.Handovers || st1.MigratedBytes != st2.MigratedBytes {
		t.Fatalf("handover accounting diverged: run1 %d/%d/%d, run2 %d/%d/%d",
			h1, st1.Handovers, st1.MigratedBytes, h2, st2.Handovers, st2.MigratedBytes)
	}
}

// TestClusterStatsShape checks the cluster-mode stats surface: per-node
// entries present, aggregate hit rate populated, and OpMove rejected by a
// single-sender daemon.
func TestClusterStatsShape(t *testing.T) {
	addr := startClusterDaemon(t)
	// One transmit so counters move.
	cl, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if resp, err := cl.Transmit("u1", "the server restarted after the patch"); err != nil || !resp.OK {
		t.Fatalf("transmit failed: %+v, %v", resp, err)
	}
	st := clusterStats(t, addr)
	if len(st.Nodes) != 3 {
		t.Fatalf("want 3 node entries, got %d", len(st.Nodes))
	}
	if st.SenderHitRate <= 0 {
		t.Fatalf("aggregate hit rate not populated: %+v", st)
	}
	total := 0
	for _, n := range st.Nodes {
		total += n.Users
	}
	if total != 1 {
		t.Fatalf("user occupancy sums to %d, want 1", total)
	}

	// A classic single-sender daemon must reject OpMove.
	sys, err := core.NewSystem(soakConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	soloAddr, soloShutdown := startServer(t, newServer(sys, 0))
	defer soloShutdown()
	soloCl, err := rpc.Dial(soloAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer soloCl.Close()
	resp, err := soloCl.Move("u1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Fatalf("single-sender daemon accepted OpMove: %+v", resp)
	}
}
