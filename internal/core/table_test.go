package core

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// TestTokenTableSharedCodecUnderUpdate drives concurrent transmits of many
// users through one shared general codec (same domain, sender and
// receiver) while one user's buffer fills and their individual-model
// update fires: the update clones the general, fine-tunes the clone and
// applies the decoder sync on the receiver, all while the others read
// the general's token table. Run under -race it checks the table's
// publication; in any mode every user's result stream, noise included,
// must equal a serial run's.
func TestTokenTableSharedCodecUnderUpdate(t *testing.T) {
	cfg := userNoiseConfig()
	mk := func() *System {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prefetchAll(t, s)
		return s
	}
	ref := mk()
	const users = 8
	streams := make([][]trace.Request, users)
	for u := range streams {
		// user0 sends enough to fire an update; everyone else stays below
		// the threshold and is served by the general models only.
		n := cfg.BufferThreshold - 1
		if u == 0 {
			n = 2*cfg.BufferThreshold + 2
		}
		streams[u] = oracleRequests(ref.Corpus, fmt.Sprintf("user%d", u), 0, n, uint64(900+u))
	}
	want := userNoisyDigests(t, ref, streams, false)
	if ref.SyncCount() != 2 {
		t.Fatalf("serial run fired %d updates, want 2 (user0 only)", ref.SyncCount())
	}

	s := mk()
	got := userNoisyDigests(t, s, streams, true)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("user%d diverged from the serial run under a concurrent update:\nwant:\n%s\ngot:\n%s", u, want[u], got[u])
		}
	}
	if s.SyncCount() != ref.SyncCount() {
		t.Fatalf("concurrent run fired %d updates, serial %d", s.SyncCount(), ref.SyncCount())
	}
}
