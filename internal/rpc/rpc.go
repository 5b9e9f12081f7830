// Package rpc defines the versioned, length-prefixed JSON wire protocol
// spoken between the edged daemon and its clients: a one-byte protocol
// version, a uint32 little-endian length header, then one JSON document.
package rpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Version is the wire protocol version written by this build for the
// client-facing ops (transmit/move/stats/ping). The original unversioned
// framing is retroactively version 1.
const Version = 1

// Version2 adds the mesh ops (join/leave/peer-stats/fetch-model/
// handover-push) spoken between edged peers. A v2 frame is identical
// framing with version byte 2; readers accept both versions and report
// which one arrived, so v1 clients keep working against a v2 daemon.
// Frames with any other version byte are rejected with *VersionError.
const Version2 = 2

// headerBytes is the framed-message header size: 1 version byte + 4-byte
// little-endian payload length.
const headerBytes = 5

// MaxMessageBytes bounds a single wire message; larger frames are
// rejected to keep a malformed peer from exhausting memory.
const MaxMessageBytes = 1 << 20

// Op names the request operations.
const (
	// OpTransmit runs one message through the semantic pipeline.
	OpTransmit = "transmit"
	// OpMove attaches a user to a radio cell (cluster mode), triggering a
	// handover when the serving node changes.
	OpMove = "move"
	// OpStats returns system counters.
	OpStats = "stats"
	// OpPing checks liveness.
	OpPing = "ping"
)

// Mesh ops, spoken between edged peers over v2 frames. A daemon rejects
// these on a v1 frame (see ErrMeshOpVersion) so pre-mesh clients cannot
// accidentally drive peer-only state transitions.
const (
	// OpJoin announces a peer coming online; Request.Peer identifies it.
	OpJoin = "join"
	// OpLeave announces a graceful shutdown; Request.Peer identifies it.
	OpLeave = "leave"
	// OpPeerStats returns the responding node's own NodeStats snapshot.
	OpPeerStats = "peer-stats"
	// OpFetchModel asks a peer whether its cache holds the model named by
	// Request.Fetch, returning the serialized parameters on a hit
	// (cooperative fetch over the mesh).
	OpFetchModel = "fetch-model"
	// OpHandoverPush ships a user's serving state (individual models plus
	// the per-user noise sequence) to the node taking ownership.
	OpHandoverPush = "handover-push"
)

// IsMeshOp reports whether op is peer-to-peer only and therefore requires
// a v2 frame.
func IsMeshOp(op string) bool {
	switch op {
	case OpJoin, OpLeave, OpPeerStats, OpFetchModel, OpHandoverPush:
		return true
	}
	return false
}

// ErrMeshOpVersion reports a mesh op carried on a v1 frame.
var ErrMeshOpVersion = errors.New("rpc: mesh op requires protocol version 2")

// Request is a client-to-daemon message.
type Request struct {
	Op   string `json:"op"`
	User string `json:"user,omitempty"`
	Text string `json:"text,omitempty"`
	// Cell is the target radio cell for OpMove.
	Cell int `json:"cell,omitempty"`
	// DeadlineMs is the client's remaining patience for this call in
	// milliseconds. Zero means no deadline. The daemon sheds the request
	// with an error instead of serving it when admission queueing alone
	// would exceed the deadline.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`

	// Peer identifies the calling node for OpJoin/OpLeave.
	Peer *PeerInfo `json:"peer,omitempty"`
	// Fetch names the model wanted by OpFetchModel.
	Fetch *FetchRequest `json:"fetch,omitempty"`
	// Handoff carries the migrating user state for OpHandoverPush.
	Handoff *HandoffPayload `json:"handoff,omitempty"`
}

// PeerInfo identifies one mesh member.
type PeerInfo struct {
	// Name is the node name ("node-0", ...); Index its mesh position.
	Name  string `json:"name"`
	Index int    `json:"index"`
	// Addr is the peer's mesh listen address, host:port.
	Addr string `json:"addr,omitempty"`
}

// FetchRequest names a model for OpFetchModel. The responder answers from
// its cache with Peek semantics (no eviction-policy or hit-stat
// distortion) and reports a plain miss, never forwarding to origin — the
// caller decides when to pay the uplink.
type FetchRequest struct {
	Domain string `json:"domain"`
	User   string `json:"user,omitempty"`
	Role   string `json:"role"`
}

// ModelPayload is a serialized model shipped between peers: the
// OpFetchModel hit response and each entry of a handover push.
type ModelPayload struct {
	Domain  string `json:"domain"`
	User    string `json:"user,omitempty"`
	Version int    `json:"version"`
	// Params is the full parameter payload in nn.ParamSet wire form
	// (base64 over JSON).
	Params []byte `json:"params"`
}

// HandoffModel is one individual model inside a handover push, tagged
// with the pipeline side it personalizes.
type HandoffModel struct {
	// Side is "sender" or "receiver".
	Side  string       `json:"side"`
	Model ModelPayload `json:"model"`
}

// Handover-push reasons. The empty reason is a mobility handover (OpMove
// changed the user's serving node); drain and replica pushes reuse the
// same op with an explicit tag so receivers can pin accordingly.
const (
	// HandoffDrain marks a push from a gracefully departing member: the
	// receiver is the new consistent-hash owner and installs shipped
	// general models pinned.
	HandoffDrain = "drain"
	// HandoffReplica marks a proactive hot-model replica push: the
	// receiver installs shipped general models unpinned, as a cache hint.
	HandoffReplica = "replica"
)

// HandoffPayload is the complete user state shipped by OpHandoverPush:
// every individual model both pipeline sides hold for the user, plus the
// per-user channel-noise sequence counter so the user's noise stream
// continues bit-identically on the new owner. Drain pushes additionally
// carry the user's selection-filter posterior and buffered federated
// transactions, so the stream continues exactly where it left off, and
// may ship general models (as do replica pushes) with User empty.
type HandoffPayload struct {
	User     string         `json:"user"`
	FromNode string         `json:"from_node"`
	NoiseSeq uint64         `json:"noise_seq"`
	Models   []HandoffModel `json:"models,omitempty"`
	// Reason tags the push: "" (mobility), HandoffDrain or HandoffReplica.
	Reason string `json:"reason,omitempty"`
	// General carries general (user-independent) models pushed by drain
	// rebalancing or hot-model replication.
	General []ModelPayload `json:"general,omitempty"`
	// Belief is the user's domain-selection posterior (sticky selector).
	Belief []float64 `json:"belief,omitempty"`
	// Buffers are the user's pending federated-update transactions.
	Buffers []BufferState `json:"buffers,omitempty"`
}

// BufferState is one (user, domain) federated-update buffer in wire form.
type BufferState struct {
	Domain string    `json:"domain"`
	Txs    []TxState `json:"txs,omitempty"`
}

// TxState is one buffered transaction: the surface token ids, the concept
// ids the encoder chose, and the decoder's reconstruction.
type TxState struct {
	Surfaces []int `json:"surfaces,omitempty"`
	Concepts []int `json:"concepts,omitempty"`
	Decoded  []int `json:"decoded,omitempty"`
}

// Response is a daemon-to-client message.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// Shed marks a request rejected by admission control (queue wait
	// exceeded the deadline or the shed threshold) rather than failed.
	Shed bool `json:"shed,omitempty"`

	// Draining marks a request refused because the member is gracefully
	// leaving the mesh. The response is only written after the member has
	// handed its state off, so a client that retries against the surviving
	// membership finds the user's state already at the new owner.
	Draining bool `json:"draining,omitempty"`

	// Transmit results. Mismatch, PayloadBytes and LatencyMs always
	// serialize: a perfect zero-mismatch transmit must stay
	// distinguishable from a response that never set the field.
	Restored       string  `json:"restored,omitempty"`
	SelectedDomain string  `json:"selected_domain,omitempty"`
	Mismatch       float64 `json:"mismatch"`
	PayloadBytes   int     `json:"payload_bytes"`
	LatencyMs      float64 `json:"latency_ms"`
	CacheHit       bool    `json:"cache_hit,omitempty"`
	Individual     bool    `json:"individual_model,omitempty"`
	UpdateFired    bool    `json:"update_fired,omitempty"`

	// Move results.
	Handover *Handover `json:"handover,omitempty"`

	// Stats results.
	Stats *Stats `json:"stats,omitempty"`

	// Mesh results. Model answers an OpFetchModel hit (nil on miss, with
	// OK still true); Node answers OpPeerStats; Peers lists the
	// responder's current view of the mesh membership for OpJoin.
	Model *ModelPayload `json:"model,omitempty"`
	Node  *NodeStats    `json:"node,omitempty"`
	Peers []PeerInfo    `json:"peers,omitempty"`
}

// Handover reports one OpMove outcome.
type Handover struct {
	// From and To name the old and new serving nodes.
	From string `json:"from"`
	To   string `json:"to"`
	// Moved is false when the user was already served by the target node.
	Moved bool `json:"moved"`
	// Models and MigratedBytes count the individual models shipped over
	// the mesh; LatencyMs is the simulated migration transfer time.
	Models        int     `json:"models"`
	MigratedBytes int64   `json:"migrated_bytes"`
	LatencyMs     float64 `json:"latency_ms"`
}

// Stats reports daemon counters.
type Stats struct {
	Messages       int     `json:"messages"`
	SenderHitRate  float64 `json:"sender_hit_rate"`
	SyncBytes      int64   `json:"sync_bytes"`
	SyncCount      int     `json:"sync_count"`
	CachedModels   int     `json:"cached_models"`
	CacheUsedBytes int64   `json:"cache_used_bytes"`

	// Serve carries the daemon's serve-path metrics: admission state,
	// latency and queue-wait histograms, and cross-request batching
	// counters. Nil when the responder predates the serve path (e.g. a
	// unit-test stub).
	Serve *ServeStats `json:"serve,omitempty"`

	// Cluster-mode counters (absent in single-sender mode).
	Nodes         []NodeStats `json:"nodes,omitempty"`
	Handovers     int64       `json:"handovers,omitempty"`
	MigratedBytes int64       `json:"migrated_bytes,omitempty"`
}

// ServeStats nests the serve-path metrics: what the daemon is doing right
// now (in-flight), how fast it has been (latency percentiles), how long
// admission queueing takes (queue-wait percentiles plus sheds), and how
// well the cross-request batcher is packing work (occupancy histogram).
type ServeStats struct {
	// InFlight is the number of transmits being served right now.
	InFlight int `json:"in_flight"`
	// Latency percentiles of daemon-side transmit service time, in
	// milliseconds, from the daemon's streaming histogram.
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`

	// Queue-wait percentiles measure time spent blocked on the
	// -max-inflight admission gate before service began, in milliseconds.
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP95Ms float64 `json:"queue_wait_p95_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	// Shed counts requests rejected by admission control.
	Shed int64 `json:"shed,omitempty"`

	// Batches counts batch executions by the cross-request collector, and
	// BatchedRequests the transmits served through them. Both stay zero
	// with batching off (-batch-window 0).
	Batches         int64 `json:"batches,omitempty"`
	BatchedRequests int64 `json:"batched_requests,omitempty"`
	// BatchOccupancy histograms requests-per-executed-batch into the
	// buckets 1, 2, 3–4, 5–8, 9–16 and 17+.
	BatchOccupancy [6]int64 `json:"batch_occupancy,omitempty"`
}

// BatchOccupancyLabels names the ServeStats.BatchOccupancy buckets, for
// printers.
var BatchOccupancyLabels = [6]string{"1", "2", "3-4", "5-8", "9-16", "17+"}

// NodeStats reports one cluster member's counters (mesh.Node.Stats), in
// the same shape whether the member runs in its own process or inside
// `edged -nodes N`.
type NodeStats struct {
	Name           string  `json:"name"`
	Users          int     `json:"users"`
	HitRate        float64 `json:"hit_rate"`
	CachedModels   int     `json:"cached_models"`
	CacheUsedBytes int64   `json:"cache_used_bytes"`
	HandoversIn    int64   `json:"handovers_in"`
	HandoversOut   int64   `json:"handovers_out"`
	NeighborHits   int64   `json:"neighbor_hits"`
	NeighborBytes  int64   `json:"neighbor_bytes,omitempty"`
	NeighborServed int64   `json:"neighbor_served"`
	OriginFetches  int64   `json:"origin_fetches"`
	OriginBytes    int64   `json:"origin_bytes,omitempty"`
	FetchLatencyMs float64 `json:"fetch_latency_ms,omitempty"`

	// Generals lists the domains whose general model this node's sender
	// cache currently holds. Peers use it for coordinated eviction (never
	// evict the mesh's last copy) and to skip redundant drain pushes.
	Generals []string `json:"generals,omitempty"`
	// Hot reports per-domain transmit counts, hottest first — the
	// popularity signal replication promotes on, piggybacked on the
	// OpPeerStats probe exchange.
	Hot []DomainHeat `json:"hot,omitempty"`
	// ReplicasOut counts general-model replicas this node pushed to its
	// ring-successors; ReplicasIn counts replicas it received.
	ReplicasOut int64 `json:"replicas_out,omitempty"`
	ReplicasIn  int64 `json:"replicas_in,omitempty"`
}

// DomainHeat is one entry of NodeStats.Hot.
type DomainHeat struct {
	Domain string `json:"domain"`
	Count  int64  `json:"count"`
}

// Merge folds other's counters into s, so per-member stats — scraped
// from N mesh daemons, or collected inside `edged -nodes N` — aggregate
// to deployment totals: additive counters sum, SenderHitRate re-weights
// by Messages, and Nodes concatenates. Serve percentiles are per-process measurements
// with no meaningful cross-process merge; s keeps its own Serve snapshot
// untouched except for the additive shed/batch counters.
func (s *Stats) Merge(other *Stats) {
	if other == nil {
		return
	}
	total := s.Messages + other.Messages
	if total > 0 {
		s.SenderHitRate = (s.SenderHitRate*float64(s.Messages) +
			other.SenderHitRate*float64(other.Messages)) / float64(total)
	}
	s.Messages = total
	s.SyncBytes += other.SyncBytes
	s.SyncCount += other.SyncCount
	s.CachedModels += other.CachedModels
	s.CacheUsedBytes += other.CacheUsedBytes
	s.Handovers += other.Handovers
	s.MigratedBytes += other.MigratedBytes
	s.Nodes = append(s.Nodes, other.Nodes...)
	if other.Serve != nil {
		if s.Serve == nil {
			s.Serve = &ServeStats{}
		}
		s.Serve.InFlight += other.Serve.InFlight
		s.Serve.Shed += other.Serve.Shed
		s.Serve.Batches += other.Serve.Batches
		s.Serve.BatchedRequests += other.Serve.BatchedRequests
		for i := range s.Serve.BatchOccupancy {
			s.Serve.BatchOccupancy[i] += other.Serve.BatchOccupancy[i]
		}
	}
}

// errFrameTooLarge reports an oversized wire frame.
var errFrameTooLarge = errors.New("rpc: frame exceeds MaxMessageBytes")

// VersionError reports a frame whose version byte is not a protocol
// version this build understands (1 or 2).
type VersionError struct {
	// Got is the version byte received from the peer.
	Got byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("rpc: unsupported protocol version %d (want %d or %d)", e.Got, Version, Version2)
}

// Write marshals v and writes one framed v1 message.
func Write(w io.Writer, v interface{}) error {
	return WriteV(w, Version, v)
}

// WriteV marshals v and writes one framed message with an explicit
// protocol version byte. Mesh traffic uses Version2.
func WriteV(w io.Writer, version byte, v interface{}) error {
	if version != Version && version != Version2 {
		return &VersionError{Got: version}
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("rpc: marshal: %w", err)
	}
	if len(payload) > MaxMessageBytes {
		return errFrameTooLarge
	}
	hdr := make([]byte, headerBytes)
	hdr[0] = version
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("rpc: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("rpc: write payload: %w", err)
	}
	return nil
}

// read reads one framed payload and the version byte that carried it,
// rejecting unknown protocol versions.
func read(r io.Reader) ([]byte, byte, error) {
	hdr := make([]byte, headerBytes)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, 0, err // io.EOF passes through for clean shutdown
	}
	if hdr[0] != Version && hdr[0] != Version2 {
		return nil, 0, &VersionError{Got: hdr[0]}
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxMessageBytes {
		return nil, 0, errFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("rpc: read payload: %w", err)
	}
	return payload, hdr[0], nil
}

// ReadRequest reads one framed Request, accepting either protocol
// version. Servers that must gate mesh ops on the frame version use
// ReadRequestV.
func ReadRequest(r io.Reader) (*Request, error) {
	req, _, err := ReadRequestV(r)
	return req, err
}

// ReadRequestV reads one framed Request and reports the protocol version
// it arrived on.
func ReadRequestV(r io.Reader) (*Request, byte, error) {
	payload, version, err := read(r)
	if err != nil {
		return nil, 0, err
	}
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, 0, fmt.Errorf("rpc: unmarshal request: %w", err)
	}
	return &req, version, nil
}

// ReadResponse reads one framed Response, accepting either protocol
// version.
func ReadResponse(r io.Reader) (*Response, error) {
	resp, _, err := ReadResponseV(r)
	return resp, err
}

// ReadResponseV reads one framed Response and reports the protocol
// version it arrived on.
func ReadResponseV(r io.Reader) (*Response, byte, error) {
	payload, version, err := read(r)
	if err != nil {
		return nil, 0, err
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, 0, fmt.Errorf("rpc: unmarshal response: %w", err)
	}
	return &resp, version, nil
}
