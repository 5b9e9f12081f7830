package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/corpus"
	"repro/internal/trace"
)

// warmupRequests is the number of leading requests served closed-loop
// before any timing starts, so connection set-up, pools and page faults
// are paid outside the measured phases.
const warmupRequests = 4000

// plan is one workload's generated request stream and its split into
// phases. Requests[0:warmup] warm up, [warmup:openEnd] are the open
// loop's, and the rest feed the closed loop. The roam mesh replays the
// stream from its start on every freshly booted mesh.
type plan struct {
	spec    spec
	seed    uint64
	w       *trace.Workload
	warmup  int
	openEnd int
	// win is the length of one window of a timed phase: the open loop
	// takes `windows` of them and the closed loop closedWindows when the
	// host is calm.
	win time.Duration
	// moveAt[i] is the cell the user of request i moves to just before it,
	// or -1 (roam only).
	moveAt []int
}

// newPlan generates the stream of workload sp for seed, sized so that no
// phase of a run of the given length runs dry. The daemons see only the
// text, moves and stats requests derived from it.
func newPlan(corp *corpus.Corpus, sp spec, seed uint64, seconds float64) (*plan, error) {
	p := &plan{spec: sp, seed: seed}
	var cfg trace.Config
	var n int
	switch sp.name {
	case "crowd", "personal":
		p.win = time.Duration(seconds / (windows + closedWindows) * float64(time.Second))
		p.warmup = warmupRequests
		// Enough requests for an open loop stretched to maxWindows and a
		// closed loop stretched to maxClosedWindows at closedRate; a
		// faster closed loop ends early.
		p.openEnd = p.warmup + maxWindows*int((sp.openRate+sp.serialRate)*p.win.Seconds())
		n = p.openEnd + int(math.Ceil(sp.closedRate*p.win.Seconds()*maxClosedWindows))
		n = max(n, sp.replay)
		if sp.name == "crowd" {
			// Generic speakers, uniform over many users: at a mean of 8
			// messages per user no (user, domain) buffer can fill.
			cfg = trace.Config{Users: (n + 7) / 8, Messages: n, Seed: seed}
		} else {
			cfg = trace.Config{Users: 16, IdiolectStrength: 0.4, Messages: n, Seed: seed}
		}
	case "roam":
		// Every mesh boot replays the stream from its start.
		n = max(sp.passRequests, sp.replay)
		cfg = trace.Config{Users: 16, IdiolectStrength: 0.4, Cells: meshMembers, MobilityRate: 0.1, Messages: n, Seed: seed}
	default:
		return nil, fmt.Errorf("unknown workload %q", sp.name)
	}
	p.w = trace.Generate(corp, cfg)
	p.moveAt = make([]int, len(p.w.Requests))
	for i := range p.moveAt {
		p.moveAt[i] = -1
	}
	for _, mv := range p.w.Moves {
		p.moveAt[mv.Seq] = mv.Cell
	}
	if err := p.checkShape(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
	}
	return p, nil
}

// checkShape asserts the stream properties each workload is chosen for.
func (p *plan) checkShape() error {
	perUser := make(map[string]int, len(p.w.Users))
	for _, r := range p.w.Requests {
		perUser[r.User]++
	}
	switch p.spec.name {
	case "crowd":
		for u, c := range perUser {
			if c >= bufferThreshold {
				return fmt.Errorf("user %s sends %d messages, crowd needs < %d so no buffer fills", u, c, bufferThreshold)
			}
		}
	case "personal", "roam":
		if len(perUser) != 16 {
			return fmt.Errorf("want 16 users, got %d", len(perUser))
		}
		for u, c := range perUser {
			if c < 100 {
				return fmt.Errorf("user %s sends only %d messages, want hundreds", u, c)
			}
		}
		if p.spec.mesh && len(p.w.Moves) == 0 {
			return fmt.Errorf("roam stream has no moves")
		}
	}
	return nil
}

// canonical renders the ground-truth meaning of msg: the canonical
// surface form of each concept in its true domain.
func canonical(corp *corpus.Corpus, msg corpus.Message) []string {
	d := corp.Domains[msg.DomainIndex]
	out := make([]string, len(msg.ConceptIDs))
	for i, ci := range msg.ConceptIDs {
		out[i] = d.Canonical(ci)
	}
	return out
}
