package mesh

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mat"
)

// hashNodeFreeResult digests the Result fields that must not depend on
// which member served the request or on what its cache held at the time:
// the selection, the restored text (per-user noise makes it
// deterministic), the channel payload, and the update-process outcomes.
// Cache hits and latency stay out — they legitimately differ with the
// interleaving of other users' fetches.
func hashNodeFreeResult(h hash.Hash, res *core.Result) {
	fmt.Fprintf(h, "%d|%v|%g|%d|%d|%t|%t|%d\n",
		res.SelectedDomain, res.RestoredWords, res.Mismatch,
		res.PayloadBytes, res.Symbols,
		res.UsedIndividual, res.UpdateFired, res.UpdateBytes)
}

// transmitText serves live text on the user's member.
func transmitText(l *Local, user string, words []string) (*core.Result, error) {
	m, release := l.Route(user)
	defer release()
	return m.Sys.TransmitText(user, words)
}

// moverRun drives one user through messages on l, moving them to a new
// cell after every moveEvery-th message — between that user's own
// transmits, so the move races whatever batches other users have in
// flight, never the mover's own request. It returns the stream digest
// and the number of moves that changed members.
func moverRun(t *testing.T, l *Local, user string, messages [][]string, moveEvery int) (uint64, int) {
	t.Helper()
	h := fnv.New64a()
	moved, cell := 0, 0
	var sawIndividual bool
	for i, words := range messages {
		if i > 0 && i%moveEvery == 0 {
			cell++
			res, err := l.Move(user, cell)
			if err != nil {
				t.Errorf("move at message %d: %v", i, err)
				return 0, 0
			}
			if res.Moved {
				moved++
			}
		}
		res, err := transmitText(l, user, words)
		if err != nil {
			t.Errorf("message %d: %v", i, err)
			return 0, 0
		}
		hashNodeFreeResult(h, res)
		sawIndividual = sawIndividual || res.UsedIndividual
	}
	if !sawIndividual {
		t.Error("mover never served from an individual model: handovers migrated nothing")
	}
	return h.Sum64(), moved
}

// TestHandoverRacesBatchCollector pins the interaction between mobility
// handover and cross-request batching: a user moved mid-batch — the
// handover racing batches other users have in flight — must keep
// completing every request on exactly one member, with the stream digest
// of serial unbatched serving. Per-user noise is what makes that
// comparison exact.
func TestHandoverRacesBatchCollector(t *testing.T) {
	const (
		mover              = "mover"
		moverMsgs          = 40
		moveEvery          = 10
		bgUsers, bgPerUser = 5, 40
		window             = 200 * time.Microsecond
	)
	corp := corpus.Build()
	moverStream := make([][]string, moverMsgs)
	gen := corpus.NewGenerator(corp, mat.NewRNG(5150))
	for i := range moverStream {
		moverStream[i] = gen.Message(0, nil).Words
	}
	bgStreams := make([][][]string, bgUsers)
	for u := range bgStreams {
		gen := corpus.NewGenerator(corp, mat.NewRNG(uint64(3000+u)))
		for i := 0; i < bgPerUser; i++ {
			bgStreams[u] = append(bgStreams[u], gen.Message(u%len(corp.Domains), nil).Words)
		}
	}
	deploy := func(window time.Duration) *Local {
		cfg := testConfig()
		cfg.BatchWindow = window
		l := newLocal(t, 3, cfg)
		if err := l.Warm(); err != nil {
			t.Fatal(err)
		}
		return l
	}

	// Reference: same deployment, no batching, mover alone, serial.
	refDigest, refMoves := moverRun(t, deploy(0), mover, moverStream, moveEvery)
	if refMoves == 0 {
		t.Fatal("move schedule never changed members; the test exercises nothing")
	}

	// Candidate: batching on, background users keeping the collector busy
	// while the mover's handovers happen.
	l := deploy(window)
	var wg sync.WaitGroup
	for u := range bgStreams {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("bg%d", u)
			for i, words := range bgStreams[u] {
				if _, err := transmitText(l, user, words); err != nil {
					t.Errorf("background %s message %d: %v", user, i, err)
					return
				}
			}
		}(u)
	}
	digest, moves := moverRun(t, l, mover, moverStream, moveEvery)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if moves != refMoves {
		t.Fatalf("racing run moved members %d times, reference %d: move schedule is not deterministic", moves, refMoves)
	}
	if digest != refDigest {
		t.Fatalf("mover stream diverged under handover-vs-batch racing: %016x != %016x", digest, refDigest)
	}
	var handovers int64
	for _, m := range l.Members() {
		n, _ := m.Node.HandoverStats()
		handovers += n
	}
	if handovers != int64(moves) {
		t.Fatalf("members counted %d handovers, client saw %d member changes", handovers, moves)
	}

	// "Exactly one member": after the run the mover's individual models
	// live only on the member currently routing them — every handover
	// moved the state, none duplicated or stranded it.
	owner := l.Owner(mover)
	holders := 0
	for i, m := range l.Members() {
		if len(m.Sys.Sender.UserDomains(mover)) == 0 {
			continue
		}
		holders++
		if i != owner {
			t.Errorf("member %d holds the mover's individual models but %d routes them", i, owner)
		}
	}
	if holders != 1 {
		t.Fatalf("the mover's individual models live on %d members, want exactly 1", holders)
	}
}
