// Command edged runs a semantic edge-server daemon: it boots the full
// two-edge semantic communication system (general models pretrained at
// startup) and serves transmit/stats requests over a length-prefixed JSON
// TCP protocol (see internal/rpc).
//
// Connections dispatch directly into the concurrent core.System: requests
// from different users run in parallel, bounded by the -max-inflight gate;
// requests from one user serialize inside the system. Requests that queue
// at the gate longer than -shed-after (or their own deadline hint) are
// shed with an error instead of served late.
//
// With -batch-window > 0 concurrent transmits are dynamically batched:
// in-flight requests sharing a codec run as one fused GEMM pass per
// layer, bit-identical per request to solo serving (see
// internal/core/batch.go).
//
// With -nodes N the daemon runs an N-member edge cluster inside this one
// process: the members of internal/mesh, talking over in-memory pipes.
// Users are routed to members by consistent hashing, the "move" op
// relocates a user to a radio cell (handing their complete serving state
// — individual models, pending update buffers, noise sequence — over
// when the serving member changes), members resolve cache misses from
// their neighbors before paying the cloud origin, and "stats" reports
// per-member counters.
//
// With -pprof addr a net/http/pprof endpoint runs on a side port; adding
// -profile-contention also records mutex and block profiles there
// (runtime.SetMutexProfileFraction/SetBlockProfileRate), which is how
// serve-path lock contention — e.g. the channel-stage lock the pooled
// PerUserNoise path removed — is measured under live load.
//
// With -peers a,b,c -mesh-index i this process is instead member i of a
// multi-process mesh: the same members as -nodes, one per process, that
// cooperate over TCP (plus liveness probes and graceful drain) and serve
// every user bit-identically to `edged -nodes N`. See internal/mesh.
//
// Usage:
//
//	edged [-addr :7060] [-selector sticky] [-snr 12] [-seed 1] [-max-inflight 16]
//	edged -nodes 3 ...
//	edged -addr :7060 -peers host0:7060,host1:7060,host2:7060 -mesh-index 0 ...
//
// All daemon logic lives in internal/edged; this shell parses flags and
// wires signals.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/edged"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("edged: %v", err)
	}
}

func run() error {
	cfg := edged.FromFlags(flag.CommandLine)
	flag.Parse()
	d, err := edged.New(*cfg)
	if err != nil {
		return err
	}
	if err := d.Listen(); err != nil {
		return err
	}
	// First SIGINT/SIGTERM starts a graceful drain (bounded by
	// -drain-timeout); a second one during a stuck drain forces an
	// immediate crash-stop instead of being dropped on the floor — the
	// channel holds two signals so the force path can never be missed.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	drainStarted := make(chan struct{})
	drainDone := make(chan struct{})
	go func() {
		<-sigCh
		log.Print("edged: shutting down (signal again to force)")
		close(drainStarted)
		go func() {
			defer close(drainDone)
			if err := d.Drain(); err != nil {
				log.Printf("edged: drain: %v", err)
			}
		}()
		<-sigCh
		log.Print("edged: second signal, forcing shutdown")
		d.Kill()
		os.Exit(1)
	}()
	err = d.Serve()
	// Serve returns once the listener closes, which mid-drain happens
	// before the handoff completes; wait the drain out so the process
	// exits with every owned model and user safely pushed.
	select {
	case <-drainStarted:
		<-drainDone
	default:
	}
	return err
}
