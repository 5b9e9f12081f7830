package mesh

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fl"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/netsim"
	"repro/internal/semantic"
	"repro/internal/trace"
)

var fixture struct {
	once   sync.Once
	codecs []*semantic.Codec
}

// testConfig is the member system every test deploys: small shared
// pretrained codecs, sticky selection, pinned generals and a small update
// threshold so fine-tuning fires inside short runs.
func testConfig() core.Config {
	fixture.once.Do(func() {
		fixture.codecs = semantic.PretrainAll(corpus.Build(), semantic.Config{
			EmbedDim: 12, FeatureDim: 6, HiddenDim: 16,
			Epochs: 2, Sentences: 200, Seed: 7,
		})
	})
	return core.Config{
		Selector:        core.SelectorSticky,
		PinGeneral:      true,
		BufferThreshold: 8,
		Seed:            7,
		Pretrained:      fixture.codecs,
	}
}

// testMeshLink is the inter-member link of the cooperative-fetch tests:
// an edge-site hop far below the 40 ms cloud uplink.
var testMeshLink = netsim.Link{Latency: 5 * time.Millisecond, BandwidthBps: 400e6}

// newLocal deploys n members of cfg, stopped when the test ends.
func newLocal(t *testing.T, n int, cfg core.Config) *Local {
	t.Helper()
	l, err := NewLocal(n, cfg, Config{MeshLink: testMeshLink})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

// send serves one ground-truth request on the user's member.
func send(t *testing.T, l *Local, req trace.Request) *core.Result {
	t.Helper()
	m, release := l.Route(req.User)
	defer release()
	m.Node.TouchUser(req.User)
	res, err := m.Sys.Transmit(req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// otherCell returns a cell served by a member other than from.
func otherCell(l *Local, from int) int {
	return (from + 1) % len(l.Members())
}

// generalBytes is the size a general model of domain is charged at.
func generalBytes(t *testing.T, l *Local, domain string) int64 {
	t.Helper()
	m, ok := l.Members()[0].Sys.Cloud.Get(kb.GeneralKey(domain, kb.RoleCodec))
	if !ok {
		t.Fatalf("no general model for %s", domain)
	}
	return m.SizeBytes()
}

func TestNewLocalValidation(t *testing.T) {
	if _, err := NewLocal(0, testConfig(), Config{}); err == nil {
		t.Fatal("zero-member deployment accepted")
	}
	cfg := testConfig()
	cfg.Policy = "belady"
	if _, err := NewLocal(2, cfg, Config{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestHandoverCarriesPendingBuffers moves a user with a half-full update
// buffer: the pending transactions travel with the user, so the update
// fires on the new owner at the same threshold crossing it would have
// hit without the move, and the old owner keeps nothing of the user.
func TestHandoverCarriesPendingBuffers(t *testing.T) {
	cfg := testConfig()
	cfg.Selector = core.SelectorOracle
	l := newLocal(t, 3, cfg)
	corp := l.Members()[0].Sys.Corpus
	gen := corpus.NewGenerator(corp, mat.NewRNG(31))
	const user = "carrier"
	it := corp.Domain("it").Index
	updates := func(n int) int {
		fired := 0
		for i := 0; i < n; i++ {
			if send(t, l, trace.Request{User: user, Msg: gen.Message(it, nil)}).UpdateFired {
				fired++
			}
		}
		return fired
	}

	from := l.Owner(user)
	if got := updates(5); got != 0 {
		t.Fatalf("%d updates fired before the buffer filled", got)
	}
	h, err := l.Move(user, otherCell(l, from))
	if err != nil {
		t.Fatal(err)
	}
	to := l.Owner(user)
	if !h.Moved || to == from {
		t.Fatalf("move did not change the serving member: %+v", h)
	}
	if got := updates(3); got != 1 {
		t.Fatalf("%d updates fired after the move, want exactly 1", got)
	}

	old, cur := l.Members()[from].Sys, l.Members()[to].Sys
	if b := old.Sender.Buffer("it", user); b != nil && b.Len() > 0 {
		t.Fatalf("old owner still buffers %d transactions", b.Len())
	}
	if d := old.Sender.UserDomains(user); len(d) != 0 {
		t.Fatalf("old owner holds individual models %v", d)
	}
	if d := old.Receiver.UserDomains(user); len(d) != 0 {
		t.Fatalf("old owner's receiver holds individual models %v", d)
	}
	if old.SyncCount() != 0 || cur.SyncCount() != 1 {
		t.Fatalf("decoder syncs: old owner %d, new owner %d; want 0 and 1", old.SyncCount(), cur.SyncCount())
	}
	if d := cur.Sender.UserDomains(user); len(d) != 1 || d[0] != "it" {
		t.Fatalf("new owner holds individual models %v, want [it]", d)
	}
}

func TestCooperativeFetchPrefersNeighbor(t *testing.T) {
	l := newLocal(t, 3, testConfig())
	ms := l.Members()
	// Warm member 0 only: every other member starts cold.
	if _, err := ms[0].Sys.Sender.Prefetch([]string{"it", "medical"}); err != nil {
		t.Fatal(err)
	}
	itBytes, medBytes := generalBytes(t, l, "it"), generalBytes(t, l, "medical")
	acq, err := ms[1].Sys.Sender.AcquireCodec("it", "")
	if err != nil {
		t.Fatal(err)
	}
	if acq.CacheHit || !acq.Remote {
		t.Fatalf("miss with a warm neighbor was not served cooperatively: %+v", acq)
	}
	// One mesh hop of the model's bytes, far below the 40 ms uplink.
	if want := testMeshLink.TransferTime(itBytes); acq.FetchLatency != want {
		t.Fatalf("neighbor fetch latency %v, want one mesh transfer %v", acq.FetchLatency, want)
	}
	n0, n1 := ms[0].Node.Stats(), ms[1].Node.Stats()
	if n1.NeighborHits != 1 || n1.NeighborBytes != itBytes || n1.OriginFetches != 0 {
		t.Fatalf("member 1 counters wrong: %+v", n1)
	}
	if n0.NeighborServed != 1 || n0.OriginFetches != 2 || n0.OriginBytes != itBytes+medBytes {
		t.Fatalf("member 0 counters wrong: %+v", n0)
	}
	if want := float64(testMeshLink.TransferTime(itBytes)) / float64(time.Millisecond); n1.FetchLatencyMs != want {
		t.Fatalf("member 1 fetch latency %v ms, want %v", n1.FetchLatencyMs, want)
	}
	// Member 2 probes member 0 first and finds medical there.
	acq, err = ms[2].Sys.Sender.AcquireCodec("medical", "")
	if err != nil {
		t.Fatal(err)
	}
	if !acq.Remote || acq.FetchLatency != testMeshLink.TransferTime(medBytes) {
		t.Fatalf("medical is cached on member 0; got %+v", acq)
	}
	if st := ms[0].Node.Stats(); st.NeighborServed != 2 {
		t.Fatalf("member 0 served %d probes, want 2", st.NeighborServed)
	}
}

func TestCooperativeFetchFallsBackToOrigin(t *testing.T) {
	l := newLocal(t, 2, testConfig())
	ms := l.Members()
	acq, err := ms[1].Sys.Sender.AcquireCodec("it", "")
	if err != nil {
		t.Fatal(err)
	}
	if acq.Remote {
		t.Fatal("all-cold deployment reported a neighbor hit")
	}
	itBytes := generalBytes(t, l, "it")
	if want := ms[1].Sys.CloudLink().TransferTime(itBytes); acq.FetchLatency != want || want < 40*time.Millisecond {
		t.Fatalf("origin fetch latency %v, want one uplink transfer %v", acq.FetchLatency, want)
	}
	st := ms[1].Node.Stats()
	if st.OriginFetches != 1 || st.OriginBytes != itBytes {
		t.Fatalf("origin counters wrong: %+v", st)
	}
	for i, m := range ms {
		if st := m.Node.Stats(); st.NeighborHits != 0 || st.NeighborServed != 0 {
			t.Fatalf("member %d counted a phantom neighbor exchange: %+v", i, st)
		}
	}
}

func TestMoveOverridesRouting(t *testing.T) {
	l := newLocal(t, 3, testConfig())
	const user = "roamer"
	home := l.Owner(user)
	target := otherCell(l, home)
	h, err := l.Move(user, target)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Moved || h.From != fmt.Sprintf("node-%d", home) || h.To != fmt.Sprintf("node-%d", target) {
		t.Fatalf("unexpected handover %+v", h)
	}
	if got := l.Owner(user); got != target {
		t.Fatalf("after Move user routes to %d, want %d", got, target)
	}
	// Moving to the same cell is a no-op, not a handover.
	if h, err = l.Move(user, target); err != nil {
		t.Fatal(err)
	}
	if h.Moved {
		t.Fatalf("same-cell move reported a handover: %+v", h)
	}
	var handovers int64
	for _, m := range l.Members() {
		n, _ := m.Node.HandoverStats()
		handovers += n
	}
	if handovers != 1 {
		t.Fatalf("handovers = %d, want 1", handovers)
	}
	// Cell indices wrap modulo the deployment size.
	if _, err := l.Move(user, 3+home); err != nil {
		t.Fatal(err)
	}
	if got := l.Owner(user); got != home {
		t.Fatalf("wrapped move routed to %d, want %d", got, home)
	}
}

// personalize runs enough idiolect traffic through the user's member to
// fine-tune an individual "it" model there.
func personalize(t *testing.T, l *Local, user string, seed uint64) {
	t.Helper()
	corp := l.Members()[0].Sys.Corpus
	rng := mat.NewRNG(seed)
	idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
	gen := corpus.NewGenerator(corp, rng.Split())
	sender := l.Members()[l.Owner(user)].Sys.Sender
	for i := 0; i < 24; i++ {
		m := gen.Message(corp.Domain("it").Index, idio)
		if _, _, err := sender.RecordTransaction(nil, "it", user, m.Words, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sender.RunUpdate("it", user, fl.UpdateConfig{Epochs: 3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestHandoverGoldenRoundTrip is the golden bit-identity check: after a
// handover, the new member's exported model bytes and its encode outputs
// must equal the old member's exactly.
func TestHandoverGoldenRoundTrip(t *testing.T) {
	l := newLocal(t, 2, testConfig())
	corp := l.Members()[0].Sys.Corpus
	const user = "golden"
	personalize(t, l, user, 51)
	from := l.Members()[l.Owner(user)].Sys.Sender

	words := corpus.NewGenerator(corp, mat.NewRNG(99)).Message(corp.Domain("it").Index, nil).Words
	preExport, err := from.ExportUserModel("it", user)
	if err != nil {
		t.Fatal(err)
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	preEnc, err := from.Encode(sc, "it", user, words)
	if err != nil {
		t.Fatal(err)
	}
	if !preEnc.Individual {
		t.Fatal("pre-handover encode did not use the individual model")
	}
	pre := append([]float64(nil), preEnc.Features.Data...)

	h, err := l.Move(user, otherCell(l, l.Owner(user)))
	if err != nil {
		t.Fatal(err)
	}
	if h.Models != 1 || h.MigratedBytes != preExport.SizeBytes() {
		t.Fatalf("handover migrated %d models / %d bytes, want 1 / %d", h.Models, h.MigratedBytes, preExport.SizeBytes())
	}
	if want := float64(testMeshLink.TransferTime(preExport.SizeBytes())) / float64(time.Millisecond); h.LatencyMs != want {
		t.Fatalf("handover latency %v ms, want one mesh transfer %v", h.LatencyMs, want)
	}
	if got := from.UserDomains(user); len(got) != 0 {
		t.Fatalf("source member still holds %v after handover", got)
	}

	to := l.Members()[l.Owner(user)].Sys.Sender
	postExport, err := to.ExportUserModel("it", user)
	if err != nil {
		t.Fatal(err)
	}
	if postExport.Version != preExport.Version {
		t.Fatalf("version changed across handover: %d -> %d", preExport.Version, postExport.Version)
	}
	if !bytes.Equal(postExport.Params, preExport.Params) {
		t.Fatal("exported parameter bytes differ across handover")
	}
	postEnc, err := to.Encode(sc, "it", user, words)
	if err != nil {
		t.Fatal(err)
	}
	if !postEnc.Individual {
		t.Fatal("post-handover encode did not use the migrated individual model")
	}
	if len(postEnc.Features.Data) != len(pre) {
		t.Fatal("feature count changed across handover")
	}
	for i, v := range pre {
		if postEnc.Features.Data[i] != v {
			t.Fatalf("feature element %d differs across handover: %v != %v", i, postEnc.Features.Data[i], v)
		}
	}
}

func TestStatsOccupancy(t *testing.T) {
	l := newLocal(t, 2, testConfig())
	for u := 0; u < 10; u++ {
		user := fmt.Sprintf("u%02d", u)
		m, release := l.Route(user)
		m.Node.TouchUser(user)
		release()
	}
	if _, err := l.Move("u00", otherCell(l, l.Owner("u00"))); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range l.Members() {
		total += m.Node.Stats().Users
	}
	if total != 10 {
		t.Fatalf("occupancy sums to %d, want 10", total)
	}
}

// TestConcurrentClusterUse exercises routing, cooperative fetches and
// handovers from many goroutines; run under -race it is the deployment's
// data-race gate. Each goroutine owns one user, while members, pipes and
// counters are shared.
func TestConcurrentClusterUse(t *testing.T) {
	l := newLocal(t, 3, testConfig())
	if _, err := l.Members()[0].Sys.Sender.Prefetch([]string{"it", "medical"}); err != nil {
		t.Fatal(err)
	}
	const users = 16
	var wg sync.WaitGroup
	errCh := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("c%02d", u)
			for i := 0; i < 30; i++ {
				m, release := l.Route(user)
				_, err := m.Sys.Sender.AcquireCodec("it", user)
				if err == nil {
					_, _, err = m.Sys.Sender.Personalize("it", user)
				}
				release()
				if err != nil {
					errCh <- err
					return
				}
				if i%7 == u%7 {
					if _, err := l.Move(user, otherCell(l, l.Owner(user))); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var handovers int64
	for _, m := range l.Members() {
		n, _ := m.Node.HandoverStats()
		handovers += n
		if c := m.Sys.Sender.Cache(); c.Used() > c.Capacity() {
			t.Fatalf("member %s over capacity", m.Node.Self().Name)
		}
	}
	if handovers == 0 {
		t.Fatal("concurrent run produced no handovers")
	}
}

// runWorkload serves w on l, applying each mobility event before the
// request at the same sequence number, as a mesh client does.
func runWorkload(t *testing.T, l *Local, w *trace.Workload) []core.Result {
	t.Helper()
	out := make([]core.Result, 0, len(w.Requests))
	next := 0
	for _, req := range w.Requests {
		for ; next < len(w.Moves) && w.Moves[next].Seq <= req.Seq; next++ {
			if _, err := l.Move(w.Moves[next].User, w.Moves[next].Cell); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, *send(t, l, req))
	}
	return out
}

// TestClusterWorkloadWithMobility runs a mobile workload end to end
// through a 3-member deployment: mobility events must produce handovers,
// cooperative fetches must happen (only member 0 is warmed), and two
// identical deployments must agree result for result.
func TestClusterWorkloadWithMobility(t *testing.T) {
	cfg := testConfig()
	cfg.Selector = core.SelectorOracle
	mk := func() *Local {
		l := newLocal(t, 3, cfg)
		if _, err := l.Members()[0].Sys.Sender.Prefetch(l.Members()[0].Sys.Corpus.Names()); err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := mk()
	w := trace.Generate(l.Members()[0].Sys.Corpus, trace.Config{
		Users: 6, Messages: 300, Cells: 3, MobilityRate: 0.08, Seed: 21,
	})
	if len(w.Moves) == 0 {
		t.Fatal("workload has no mobility events")
	}
	results := runWorkload(t, l, w)
	stats := func(l *Local) (handovers, migrated, neighbor int64) {
		for _, m := range l.Members() {
			h, b := m.Node.HandoverStats()
			handovers += h
			migrated += b
			neighbor += m.Node.Stats().NeighborHits
		}
		return
	}
	handovers, migrated, neighbor := stats(l)
	if handovers == 0 {
		t.Fatal("mobile workload triggered no handovers")
	}
	if neighbor == 0 {
		t.Fatal("cold members never fetched cooperatively")
	}
	sum, err := core.Summarize(results)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MeanWordAccuracy < 0.5 {
		t.Fatalf("cluster accuracy collapsed: %+v", sum)
	}

	// Replay on an identical twin: serial runs must be bit-identical,
	// handovers included.
	twin := mk()
	results2 := runWorkload(t, twin, w)
	for i := range results {
		a, b := results[i], results2[i]
		if a.Mismatch != b.Mismatch || a.PayloadBytes != b.PayloadBytes ||
			a.Latency != b.Latency || a.SelectedDomain != b.SelectedDomain {
			t.Fatalf("result %d diverged across identical deployments", i)
		}
	}
	if h2, m2, _ := stats(twin); h2 != handovers || m2 != migrated {
		t.Fatalf("handover accounting diverged: %d/%d vs %d/%d", handovers, migrated, h2, m2)
	}
}
