package main

import (
	"time"

	"repro/internal/core"
)

// The deployment under test is fixed: every daemon runs with edged's
// defaults (f64 tier, no batch window, sticky selector, default cache of
// every general model plus eight individual models, buffer threshold 32,
// system seed 1). Nothing here is a workload axis; a change to it is a
// change to the benchmark.
const (
	// conns is the load generator's connection count: the 2 cores of the
	// reference machine. The roam loop is serial instead.
	conns = 2
	// pipeDepth is how many requests each closed-loop connection keeps
	// outstanding, so the daemon finds its next request waiting rather
	// than idling through every client turnaround.
	pipeDepth = 4
	// setupRepeats is how many times a crowd or personal run boots its
	// daemon from scratch; setup_s is the median.
	setupRepeats = 3
	// bufferThreshold and individualSlots restate the edged defaults the
	// workload checks reason about: an update fires every 32 buffered
	// transactions of one (user, domain) pair, and the default edge cache
	// holds eight individual models beside the pinned generals.
	bufferThreshold = 32
	individualSlots = 8
	// meshMembers is the size of the roam mesh; meshPasses how many times
	// a roam run boots it and serves the same requests, so that its
	// set-up time and rate are medians of 5.
	meshMembers = 3
	meshPasses  = 5
	// meshProbe is the mesh liveness-probe period passed to every member,
	// so a member that booted before its peers sees them alive within a
	// few probes; meshSettle waits that out before the mesh counts as up.
	meshProbe  = 100 * time.Millisecond
	meshSettle = 3 * meshProbe
	// requestTimeout bounds one client call; a call that runs out counts
	// as a failure.
	requestTimeout = 10 * time.Second
	// bootTimeout bounds one deployment boot.
	bootTimeout = 60 * time.Second
	// runBudget bounds a whole invocation; past it every child is killed
	// and the run fails.
	runBudget = 170 * time.Second
)

// daemonCoreConfig is the core.System configuration a default edged
// builds (see internal/edged: New). The traced replay runs against it.
// perUserNoise mirrors what mesh mode forces on.
func daemonCoreConfig(perUserNoise bool) core.Config {
	return core.Config{
		Selector:     core.SelectorSticky,
		SNRdB:        12,
		PinGeneral:   true,
		Seed:         1,
		Tier:         "f64",
		PerUserNoise: perUserNoise,
	}
}

// Replay constants the traced replica needs to call the layers exactly as
// core.System does with daemonCoreConfig. The replica validation fails if
// they drift from the program's.
const (
	systemSeed    = 1
	snrDB         = 12
	quantBits     = 3
	updateEpochs  = 3
	updateSeed    = systemSeed ^ 0xfade
	selectorSeed  = systemSeed ^ 0xbead
	selectorPrior = 150
	replicaNoise  = systemSeed ^ 0x5eed
)

// spec describes one workload: how its request stream is generated and
// how the load generator offers it.
type spec struct {
	name string
	// openRate is the fixed offered rate of the open-loop phase in req/s;
	// 0 measures latency with a serial loop instead.
	openRate float64
	// serialRate bounds the rate of a serial latency phase, in req/s.
	serialRate float64
	// closedRate bounds the closed-loop rate the generated stream can
	// feed, in req/s; a faster closed loop ends early.
	closedRate float64
	// passRequests is the fixed number of requests each roam pass serves.
	passRequests int
	// replay is the number of leading requests the traced run replays in
	// process.
	replay int
	// mesh selects the 3-member mesh deployment with a serial client.
	mesh bool
}

// specs lists the workloads. The crowd open-loop rate is about a third of
// the closed-loop sat_rps measured on the reference machine (2 vCPUs)
// when the benchmark was added, which leaves headroom for the host's
// steal bursts.
var specs = map[string]spec{
	"crowd":    {name: "crowd", openRate: 4000, closedRate: 16000, replay: 20000},
	"personal": {name: "personal", serialRate: 5000, closedRate: 8000, replay: 40000},
	"roam":     {name: "roam", passRequests: 6000, replay: 40000, mesh: true},
}

// workloadNames is the fixed workload order of `--workload all`.
var workloadNames = []string{"crowd", "personal", "roam"}
