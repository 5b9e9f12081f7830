// Package edged is the semantic edge daemon behind cmd/edged: the typed
// configuration surface, the request server, and the daemon lifecycle
// (boot, listen, serve, shut down). cmd/edged is a thin flag-parsing
// shell around this package, and tests drive the same code paths the
// binary runs.
//
// A daemon serves one of three deployments:
//
//   - classic: one two-edge system (the default);
//   - in-process cluster (-nodes N): N mesh members inside one process,
//     cooperating over in-memory pipes;
//   - mesh (-peers ... -mesh-index i): this process is member i of a
//     multi-process cluster, cooperating over TCP.
//
// Both cluster shapes run the one implementation in internal/mesh.
package edged

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/rpc"
)

// ConfigError is the typed validation error: it names the offending
// field (by its flag name), the rejected value and the reason, so
// callers can switch on Field instead of parsing message strings.
type ConfigError struct {
	Field  string
	Value  interface{}
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("edged: invalid -%s %v: %s", e.Field, e.Value, e.Reason)
}

// Selector policies the daemon accepts (the oracle selector needs
// ground-truth labels no wire request carries).
var validSelectors = []string{"static", "naivebayes", "sticky", "qlearn", "ucb"}

// Serving kernel tiers the daemon accepts.
var validTiers = []string{"f64", "f32", "int8"}

// Config is the daemon configuration. The zero value is not runnable;
// start from FromFlags (which carries the documented defaults) and
// adjust.
type Config struct {
	// Addr is the TCP listen address.
	Addr string
	// Selector names the model-selection policy.
	Selector string
	// SNRdB is the channel signal-to-noise ratio.
	SNRdB float64
	// Seed is the deterministic system seed (and the mesh ring seed).
	Seed uint64
	// KBDir loads pretrained .kbm models instead of pretraining at boot.
	KBDir string
	// Nodes selects in-process cluster mode when > 1: that many mesh
	// members in this process.
	Nodes int
	// PprofAddr exposes net/http/pprof when non-empty.
	PprofAddr string
	// ProfileContention additionally enables mutex and block profiling
	// (runtime.SetMutexProfileFraction / SetBlockProfileRate) so the
	// pprof endpoint can attribute lock contention on the serve path.
	// Requires PprofAddr; the profiles have measurable overhead, so the
	// flag is opt-in.
	ProfileContention bool
	// Workers caps pretraining/kernel parallelism; 0 = GOMAXPROCS.
	Workers int
	// MaxInflight caps concurrently served transmits; 0 = 2x GOMAXPROCS,
	// negative = unlimited.
	MaxInflight int
	// IdleTimeout drops connections idle longer than this; 0 disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write; 0 disables.
	WriteTimeout time.Duration
	// BatchWindow enables cross-request batching when > 0.
	BatchWindow time.Duration
	// BatchMaxTokens flushes a collecting batch at this many tokens.
	BatchMaxTokens int
	// ShedAfter sheds transmits queued at the admission gate longer than
	// this; 0 = only shed on client deadline hints.
	ShedAfter time.Duration
	// BufferThreshold is the per-(domain,user) transaction count that
	// triggers an individual-model update; 0 = core default.
	BufferThreshold int
	// Tier names the serving kernel tier.
	Tier string

	// Peers is the full static mesh member list, comma-separated
	// host:port in ring-index order, this process included. Empty
	// disables mesh mode.
	Peers string
	// MeshIndex is this process's position in Peers.
	MeshIndex int
	// ProbeInterval is the mesh liveness-probe period.
	ProbeInterval time.Duration
	// DrainTimeout bounds the graceful drain a SIGTERM triggers: once it
	// expires the daemon falls back to crash-stop. 0 selects 30s.
	DrainTimeout time.Duration
	// Replicas keeps that many mesh ring-successors warm for hot general
	// models (proactive replica pushes); 0 disables replication.
	Replicas int
}

// FromFlags registers every daemon flag on fs with its documented
// default and returns the Config they populate; read it after
// fs.Parse.
func FromFlags(fs *flag.FlagSet) *Config {
	cfg := &Config{}
	fs.StringVar(&cfg.Addr, "addr", ":7060", "listen address")
	fs.StringVar(&cfg.Selector, "selector", "sticky", "model-selection policy ("+strings.Join(validSelectors, "|")+")")
	fs.Float64Var(&cfg.SNRdB, "snr", 12, "channel SNR in dB")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "deterministic seed")
	fs.StringVar(&cfg.KBDir, "kb", "", "directory of pretrained .kbm models (see cmd/semkb); empty pretrains at startup")
	fs.IntVar(&cfg.Nodes, "nodes", 0, "in-process cluster mode: number of mesh members in this process (0/1 = classic single sender)")
	fs.StringVar(&cfg.PprofAddr, "pprof", "", "expose net/http/pprof on this address (e.g. localhost:6060); empty disables")
	fs.BoolVar(&cfg.ProfileContention, "profile-contention", false, "also record mutex and block profiles on the -pprof endpoint (has overhead; requires -pprof)")
	fs.IntVar(&cfg.Workers, "workers", 0, "parallel workers for pretraining and codec kernels (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", 0, "max concurrently served transmits (0 = 2x GOMAXPROCS, <0 = unlimited)")
	fs.DurationVar(&cfg.IdleTimeout, "idle-timeout", 5*time.Minute, "per-connection read deadline; 0 disables")
	fs.DurationVar(&cfg.WriteTimeout, "write-timeout", 30*time.Second, "per-response write deadline; 0 disables")
	fs.DurationVar(&cfg.BatchWindow, "batch-window", 0, "cross-request batching window (e.g. 50us); 0 disables batching")
	fs.IntVar(&cfg.BatchMaxTokens, "batch-max-tokens", 0, "flush a collecting batch at this many tokens (0 = default budget)")
	fs.DurationVar(&cfg.ShedAfter, "shed-after", 0, "shed transmits queued at the -max-inflight gate longer than this; 0 = only shed on client deadlines")
	fs.IntVar(&cfg.BufferThreshold, "buffer-threshold", 0, "transactions per (domain,user) before an individual-model update fires (0 = default)")
	fs.StringVar(&cfg.Tier, "tier", "f64", "serving kernel tier ("+strings.Join(validTiers, "|")+"); f64 is bit-exact, f32/int8 trade bounded accuracy for speed")
	fs.StringVar(&cfg.Peers, "peers", "", "mesh mode: full member list, comma-separated host:port in ring-index order (this process included)")
	fs.IntVar(&cfg.MeshIndex, "mesh-index", 0, "mesh mode: this process's position in -peers")
	fs.DurationVar(&cfg.ProbeInterval, "probe-interval", time.Second, "mesh liveness-probe period")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 30*time.Second, "graceful-drain budget after SIGTERM before falling back to crash-stop")
	fs.IntVar(&cfg.Replicas, "replicas", 0, "mesh mode: keep this many ring-successors warm for hot general models (0 disables replication)")
	return cfg
}

// MeshEnabled reports whether the config selects mesh mode.
func (c *Config) MeshEnabled() bool { return c.Peers != "" }

// MeshMembers parses -peers into the static membership, self included,
// in ring-index order. Call Validate first; this assumes a valid list.
func (c *Config) MeshMembers() []rpc.PeerInfo {
	addrs := strings.Split(c.Peers, ",")
	out := make([]rpc.PeerInfo, len(addrs))
	for i, a := range addrs {
		out[i] = rpc.PeerInfo{Name: fmt.Sprintf("node-%d", i), Index: i, Addr: strings.TrimSpace(a)}
	}
	return out
}

func oneOf(value string, valid []string) bool {
	for _, v := range valid {
		if v == value {
			return true
		}
	}
	return false
}

// Validate checks every field, returning a *ConfigError naming the
// first offending flag.
func (c *Config) Validate() error {
	if c.Addr == "" {
		return &ConfigError{Field: "addr", Value: c.Addr, Reason: "listen address required"}
	}
	if !oneOf(c.Selector, validSelectors) {
		return &ConfigError{Field: "selector", Value: c.Selector, Reason: "unknown policy, want one of " + strings.Join(validSelectors, "|")}
	}
	if !oneOf(c.Tier, validTiers) {
		return &ConfigError{Field: "tier", Value: c.Tier, Reason: "unknown tier, want one of " + strings.Join(validTiers, "|")}
	}
	if c.Nodes < 0 {
		return &ConfigError{Field: "nodes", Value: c.Nodes, Reason: "must be >= 0"}
	}
	if c.ProfileContention && c.PprofAddr == "" {
		return &ConfigError{Field: "profile-contention", Value: c.ProfileContention, Reason: "contention profiles are served over -pprof, which is not set"}
	}
	for _, d := range []struct {
		field string
		v     time.Duration
	}{
		{"idle-timeout", c.IdleTimeout},
		{"write-timeout", c.WriteTimeout},
		{"batch-window", c.BatchWindow},
		{"shed-after", c.ShedAfter},
		{"probe-interval", c.ProbeInterval},
		{"drain-timeout", c.DrainTimeout},
	} {
		if d.v < 0 {
			return &ConfigError{Field: d.field, Value: d.v, Reason: "must be >= 0"}
		}
	}
	if c.BatchMaxTokens < 0 {
		return &ConfigError{Field: "batch-max-tokens", Value: c.BatchMaxTokens, Reason: "must be >= 0"}
	}
	if c.BufferThreshold < 0 {
		return &ConfigError{Field: "buffer-threshold", Value: c.BufferThreshold, Reason: "must be >= 0"}
	}
	if c.Replicas < 0 {
		return &ConfigError{Field: "replicas", Value: c.Replicas, Reason: "must be >= 0"}
	}
	if !c.MeshEnabled() {
		if c.Replicas > 0 {
			return &ConfigError{Field: "replicas", Value: c.Replicas, Reason: "replication needs mesh mode (-peers)"}
		}
		return nil
	}
	if c.Nodes > 1 {
		return &ConfigError{Field: "nodes", Value: c.Nodes, Reason: "in-process cluster and -peers mesh are mutually exclusive"}
	}
	members := strings.Split(c.Peers, ",")
	if len(members) < 2 {
		return &ConfigError{Field: "peers", Value: c.Peers, Reason: "a mesh needs at least 2 members"}
	}
	for i, a := range members {
		a = strings.TrimSpace(a)
		if a == "" || !strings.Contains(a, ":") {
			return &ConfigError{Field: "peers", Value: c.Peers, Reason: fmt.Sprintf("member %d is not a host:port address", i)}
		}
	}
	if c.MeshIndex < 0 || c.MeshIndex >= len(members) {
		return &ConfigError{Field: "mesh-index", Value: c.MeshIndex, Reason: fmt.Sprintf("must be in [0,%d)", len(members))}
	}
	if c.ProbeInterval == 0 {
		return &ConfigError{Field: "probe-interval", Value: c.ProbeInterval, Reason: "mesh mode needs a liveness-probe period"}
	}
	return nil
}
