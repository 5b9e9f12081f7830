// Package edge implements the semantic edge server of Fig. 1: it caches
// domain-specialized general models and user-specific individual models,
// fetches from the cloud origin on miss (paying transfer latency), runs
// semantic encoding/decoding with simulated compute cost, records
// transactions in per-user domain buffers via its decoder copy, and
// triggers the individual-model update process.
package edge

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/fl"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/netsim"
)

// Config parameterizes an edge server.
type Config struct {
	// Name identifies the server (e.g. "edge-a").
	Name string
	// CacheCapacity is the model cache size in bytes.
	CacheCapacity int64
	// Policy is the cache eviction policy; nil selects LRU.
	Policy cache.Policy
	// Uplink is the link to the cloud origin used for model fetches.
	Uplink netsim.Link
	// ComputePerToken is the simulated semantic encode/decode cost per
	// token; 0 selects 200µs.
	ComputePerToken time.Duration
	// PinGeneral pins domain-general models in the cache once fetched.
	PinGeneral bool
	// BufferThreshold is the per-user domain-buffer size that triggers an
	// individual-model update; 0 selects 32.
	BufferThreshold int
	// Fetcher resolves local cache misses; nil selects the origin fetcher
	// (cloud registry over Uplink). A cluster installs a cooperative
	// fetcher here that probes neighbor caches before paying the origin.
	Fetcher Fetcher
}

// Fetch is the outcome of resolving a model that missed the local cache.
type Fetch struct {
	// Model is the fetched model.
	Model *kb.Model
	// Latency is the simulated transfer time paid for the fetch.
	Latency time.Duration
	// Remote reports the model came from a peer edge cache rather than
	// the cloud origin (cooperative caching).
	Remote bool
}

// Fetcher resolves cache misses for general models.
type Fetcher interface {
	FetchModel(k kb.Key) (Fetch, error)
}

// originFetcher is the default Fetcher: straight to the cloud origin over
// the uplink.
type originFetcher struct {
	origin *kb.Registry
	uplink netsim.Link
}

// NewOriginFetcher returns the default miss resolver — straight to the
// cloud origin over uplink. Composite fetchers (e.g. the cluster's
// cooperative fetcher) delegate to it as their fallback so origin-fetch
// semantics live in one place.
func NewOriginFetcher(origin *kb.Registry, uplink netsim.Link) Fetcher {
	return originFetcher{origin: origin, uplink: uplink}
}

// FetchModel implements Fetcher.
func (f originFetcher) FetchModel(k kb.Key) (Fetch, error) {
	m, ok := f.origin.Get(k)
	if !ok {
		return Fetch{}, fmt.Errorf("origin has no model %s", k)
	}
	return Fetch{Model: m, Latency: f.uplink.TransferTime(m.SizeBytes())}, nil
}

// Server is one semantic edge server. It is safe for concurrent use.
type Server struct {
	name            string
	cache           *cache.Cache
	fetcher         Fetcher
	computePerToken time.Duration
	pinGeneral      bool
	bufferThreshold int

	mu       sync.Mutex
	buffers  map[string]*fl.Buffer
	versions map[string]int
}

// New builds an edge server backed by the given cloud origin registry.
func New(cfg Config, origin *kb.Registry) (*Server, error) {
	if origin == nil {
		return nil, errors.New("edge: nil origin registry")
	}
	if cfg.Policy == nil {
		cfg.Policy = cache.NewLRU()
	}
	if cfg.ComputePerToken == 0 {
		cfg.ComputePerToken = 200 * time.Microsecond
	}
	if cfg.BufferThreshold == 0 {
		cfg.BufferThreshold = 32
	}
	if cfg.Fetcher == nil {
		cfg.Fetcher = originFetcher{origin: origin, uplink: cfg.Uplink}
	}
	c, err := cache.New(cfg.CacheCapacity, cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("edge %s: %w", cfg.Name, err)
	}
	return &Server{
		name:            cfg.Name,
		cache:           c,
		fetcher:         cfg.Fetcher,
		computePerToken: cfg.ComputePerToken,
		pinGeneral:      cfg.PinGeneral,
		bufferThreshold: cfg.BufferThreshold,
		buffers:         make(map[string]*fl.Buffer, 16),
		versions:        make(map[string]int, 16),
	}, nil
}

// Name returns the server name.
func (s *Server) Name() string { return s.name }

// ComputePerToken returns the simulated per-token encode/decode cost.
// Batched serve paths that run codec GEMMs outside Encode/Decode use it to
// account compute latency identically to the solo path.
func (s *Server) ComputePerToken() time.Duration { return s.computePerToken }

// CacheStats returns a snapshot of the model-cache counters.
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// ResetCacheStats zeroes the cache counters.
func (s *Server) ResetCacheStats() { s.cache.ResetStats() }

// Cache exposes the underlying model cache for inspection.
func (s *Server) Cache() *cache.Cache { return s.cache }

// PinsGeneral reports whether this server pins general models in its
// cache once fetched, so a peer pushing a general model (mesh drain) can
// install it exactly as a local fetch would have.
func (s *Server) PinsGeneral() bool { return s.pinGeneral }

// bufferKey builds the buffers map key.
func bufferKey(domain, user string) string { return user + "/" + domain }

// AcquireResult reports how a codec was obtained.
type AcquireResult struct {
	// Model is the codec to use (individual if present, else general).
	Model *kb.Model
	// FetchLatency is the origin transfer time paid (0 on cache hit).
	FetchLatency time.Duration
	// CacheHit reports whether the model came from the local cache.
	CacheHit bool
	// Remote reports a miss served from a peer edge cache (cooperative
	// caching) rather than the cloud origin.
	Remote bool
	// Individual reports whether a user-specific model was used.
	Individual bool
}

// AcquireCodec returns the codec for (domain, user): the user's individual
// model when cached, otherwise the domain-general model, fetching it from
// the cloud origin on miss and paying uplink transfer latency.
func (s *Server) AcquireCodec(domain, user string) (AcquireResult, error) {
	userKey := kb.UserKey(domain, user, kb.RoleCodec)
	if user != "" && s.cache.Contains(userKey) {
		if m, ok := s.cache.Get(userKey); ok {
			return AcquireResult{Model: m, CacheHit: true, Individual: true}, nil
		}
	}
	genKey := kb.GeneralKey(domain, kb.RoleCodec)
	if m, ok := s.cache.Get(genKey); ok {
		return AcquireResult{Model: m, CacheHit: true}, nil
	}
	f, err := s.fetcher.FetchModel(genKey)
	if err != nil {
		return AcquireResult{}, fmt.Errorf("edge %s: %w", s.name, err)
	}
	if err := s.cache.Put(f.Model, s.pinGeneral); err != nil {
		return AcquireResult{}, fmt.Errorf("edge %s: cache %s: %w", s.name, genKey, err)
	}
	return AcquireResult{Model: f.Model, FetchLatency: f.Latency, Remote: f.Remote}, nil
}

// Personalize creates the user's individual codec as a clone of the
// domain-general model (Fig. 1 step 2) and caches it. If an individual
// model already exists it is returned unchanged.
func (s *Server) Personalize(domain, user string) (*kb.Model, time.Duration, error) {
	if user == "" {
		return nil, 0, errors.New("edge: Personalize requires a user")
	}
	userKey := kb.UserKey(domain, user, kb.RoleCodec)
	if s.cache.Contains(userKey) {
		if m, ok := s.cache.Get(userKey); ok {
			return m, 0, nil
		}
	}
	acq, err := s.AcquireCodec(domain, "")
	if err != nil {
		return nil, 0, err
	}
	m := &kb.Model{Key: userKey, Version: 0, Codec: acq.Model.Codec.Clone()}
	if err := s.cache.Put(m, false); err != nil {
		return nil, 0, fmt.Errorf("edge %s: cache individual model: %w", s.name, err)
	}
	return m, acq.FetchLatency, nil
}

// EncodeResult is the outcome of sender-side semantic encoding.
type EncodeResult struct {
	AcquireResult
	// Features is the len(words) x FeatureDim matrix of per-token semantic
	// feature vectors. It is backed by the scratch arena passed to Encode
	// and must be consumed before that scratch is reset or pooled.
	Features *mat.Dense
	// ComputeLatency is the simulated encoding cost.
	ComputeLatency time.Duration
}

// Encode runs semantic feature extraction for (domain, user) over words,
// reading each token's features from the codec's token table. sc must be
// non-nil: the feature matrix is allocated from it, so a warm steady-state
// call performs no heap allocation.
func (s *Server) Encode(sc *mat.Scratch, domain, user string, words []string) (EncodeResult, error) {
	acq, err := s.AcquireCodec(domain, user)
	if err != nil {
		return EncodeResult{}, err
	}
	return EncodeResult{
		AcquireResult:  acq,
		Features:       acq.Model.Codec.EncodeWordsInto(sc, words),
		ComputeLatency: time.Duration(len(words)) * s.computePerToken,
	}, nil
}

// DecodeResult is the outcome of receiver-side semantic decoding.
type DecodeResult struct {
	AcquireResult
	// Concepts are the decoded domain concepts, backed by the scratch
	// arena passed to Decode.
	Concepts []int
	// Words are the restored canonical surface forms. DecodeConcepts
	// leaves them nil; Decode fills them.
	Words []string
	// ComputeLatency is the simulated decoding cost.
	ComputeLatency time.Duration
}

// DecodeConcepts restores the concept sequence from received features for
// (domain, user) through the codec's token table and decoder kernel,
// without rendering surface words. sc must be non-nil: concepts and all
// temporaries are allocated from it, so a warm steady-state call performs
// no heap allocation.
func (s *Server) DecodeConcepts(sc *mat.Scratch, domain, user string, feats *mat.Dense) (DecodeResult, error) {
	acq, err := s.AcquireCodec(domain, user)
	if err != nil {
		return DecodeResult{}, err
	}
	concepts := sc.Ints(feats.Rows)
	acq.Model.Codec.DecodeFeaturesInto(sc, feats, concepts)
	return DecodeResult{
		AcquireResult:  acq,
		Concepts:       concepts,
		ComputeLatency: time.Duration(feats.Rows) * s.computePerToken,
	}, nil
}

// Decode restores a message from received features for (domain, user):
// DecodeConcepts plus the canonical surface rendering the daemon returns to
// clients.
func (s *Server) Decode(sc *mat.Scratch, domain, user string, feats *mat.Dense) (DecodeResult, error) {
	res, err := s.DecodeConcepts(sc, domain, user, feats)
	if err != nil {
		return DecodeResult{}, err
	}
	res.Words = res.Model.Codec.RestoreWords(res.Concepts)
	return res, nil
}

// RecordTransaction performs the §II-C decoder-copy mismatch calculation on
// the sender edge: it round-trips the message through the local codec,
// derives ground-truth concepts from the domain KB, and stores the
// transaction in the (user, domain) buffer. It returns the transaction and
// whether the buffer has reached its update threshold.
//
// sc may be nil (an internal pooled scratch is used). enc, when non-nil,
// is the EncodeResult of the same words on this server: if the acquired
// codec is the same model instance the already-computed features are
// reused and only the decoder half of the round trip runs. Encoding is
// deterministic, so the recorded transaction is bit-identical either way.
func (s *Server) RecordTransaction(sc *mat.Scratch, domain, user string, words []string, enc *EncodeResult) (fl.Transaction, bool, error) {
	acq, err := s.AcquireCodec(domain, user)
	if err != nil {
		return fl.Transaction{}, false, err
	}
	tx := newTransaction(acq.Model.Codec.Domain(), words)
	if sc == nil {
		sc = mat.GetScratch()
		defer mat.PutScratch(sc)
	}
	// Decoded is retained by the buffer until the next update fires, so it
	// lives on the heap, not in the scratch arena.
	tx.Decoded = make([]int, len(words))
	if enc != nil && enc.Model == acq.Model {
		acq.Model.Codec.DecodeFeaturesInto(sc, enc.Features, tx.Decoded)
	} else {
		acq.Model.Codec.RoundTripInto(sc, words, tx.Decoded)
	}
	return tx, s.addTransaction(domain, user, tx), nil
}

// RecordDecodedTransaction is RecordTransaction with the decoder-copy
// output already computed: decoded must be the round-trip decode of words
// through the codec this server currently serves for (domain, user). The
// batched serve path uses it after running the decoder copy inside a
// cross-request fused GEMM; callers must serialize with respect to model
// updates for the user (core holds the per-user lock across the whole
// transmit), so the precomputed decode matches what a fresh AcquireCodec
// round trip would produce. decoded is copied; the caller's backing array
// (typically a scratch arena) is not retained.
func (s *Server) RecordDecodedTransaction(domain, user string, words []string, decoded []int) (fl.Transaction, bool, error) {
	if len(decoded) != len(words) {
		return fl.Transaction{}, false, fmt.Errorf("edge %s: decoded length %d != words %d", s.name, len(decoded), len(words))
	}
	acq, err := s.AcquireCodec(domain, user)
	if err != nil {
		return fl.Transaction{}, false, err
	}
	tx := newTransaction(acq.Model.Codec.Domain(), words)
	tx.Decoded = append(make([]int, 0, len(decoded)), decoded...)
	return tx, s.addTransaction(domain, user, tx), nil
}

// newTransaction builds the ground-truth half of a transaction: surface
// IDs and KB concept IDs for words under domain d.
func newTransaction(d *corpus.Domain, words []string) fl.Transaction {
	tx := fl.Transaction{
		SurfaceIDs: make([]int, len(words)),
		ConceptIDs: make([]int, len(words)),
	}
	for i, w := range words {
		tx.SurfaceIDs[i] = d.SurfaceID(w)
		if ci, ok := d.ConceptOf(w); ok {
			tx.ConceptIDs[i] = ci
		} else {
			tx.ConceptIDs[i] = -1 // out-of-domain word: always a mismatch
		}
	}
	return tx
}

// addTransaction appends tx to the (user, domain) buffer, creating it on
// first use, and reports whether the buffer reached its update threshold.
func (s *Server) addTransaction(domain, user string, tx fl.Transaction) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := bufferKey(domain, user)
	buf, ok := s.buffers[key]
	if !ok {
		buf = fl.NewBuffer(domain, user, s.bufferThreshold)
		s.buffers[key] = buf
	}
	buf.Add(tx)
	return buf.Ready()
}

// Buffer returns the (user, domain) buffer, or nil if none exists yet.
func (s *Server) Buffer(domain, user string) *fl.Buffer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffers[bufferKey(domain, user)]
}

// BufferState is one user domain-buffer snapshot, portable across edge
// servers so a handover carries the pending federated-update transactions
// and the update fires at the same threshold crossing on the new owner.
type BufferState struct {
	Domain string
	Txs    []fl.Transaction
}

// ExportUserBuffers snapshots every non-empty transaction buffer the
// server holds for user, sorted by domain for deterministic wire shape.
func (s *Server) ExportUserBuffers(user string) []BufferState {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []BufferState
	prefix := user + "/"
	for key, buf := range s.buffers {
		if !strings.HasPrefix(key, prefix) || buf.Len() == 0 {
			continue
		}
		out = append(out, BufferState{Domain: buf.Domain, Txs: buf.Transactions()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// ImportUserBuffers replaces the user's domain buffers with the given
// snapshots (the exporter owned the user, so its view is authoritative).
func (s *Server) ImportUserBuffers(user string, states []BufferState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range states {
		key := bufferKey(st.Domain, user)
		buf := fl.NewBuffer(st.Domain, user, s.bufferThreshold)
		for _, tx := range st.Txs {
			buf.Add(tx)
		}
		s.buffers[key] = buf
	}
}

// DropUserBuffers discards every transaction buffer held for user, after
// a handover shipped them to the new owner.
func (s *Server) DropUserBuffers(user string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prefix := user + "/"
	for key := range s.buffers {
		if strings.HasPrefix(key, prefix) {
			delete(s.buffers, key)
		}
	}
}

// RunUpdate executes the §II-D update process for (domain, user): it
// ensures the individual model exists, fine-tunes it on the buffered
// transactions, resets the buffer, and returns the decoder update to ship
// to the receiver edge.
func (s *Server) RunUpdate(domain, user string, cfg fl.UpdateConfig) (*fl.Update, error) {
	s.mu.Lock()
	buf := s.buffers[bufferKey(domain, user)]
	s.mu.Unlock()
	if buf == nil || buf.Len() == 0 {
		return nil, fmt.Errorf("edge %s: no buffered data for %s/%s", s.name, user, domain)
	}
	model, _, err := s.Personalize(domain, user)
	if err != nil {
		return nil, err
	}
	upd, err := fl.RunUpdate(model.Codec, buf, model.Version, cfg)
	if err != nil {
		return nil, err
	}
	model.Version = upd.Version
	s.mu.Lock()
	s.versions[bufferKey(domain, user)] = upd.Version
	s.mu.Unlock()
	buf.Reset()
	return upd, nil
}

// ApplyRemoteUpdate applies a decoder update received from a peer edge to
// the local copy of the user's individual model, creating it from the
// general model if needed.
func (s *Server) ApplyRemoteUpdate(upd *fl.Update) error {
	model, _, err := s.Personalize(upd.Domain, upd.User)
	if err != nil {
		return err
	}
	if err := fl.ApplyUpdate(model.Codec, upd); err != nil {
		return err
	}
	model.Version = upd.Version
	return nil
}

// Prefetch pulls the general models for the given domains into the cache,
// returning the total transfer latency. Experiments use it for warm-start
// conditions.
func (s *Server) Prefetch(domains []string) (time.Duration, error) {
	var total time.Duration
	for _, d := range domains {
		acq, err := s.AcquireCodec(d, "")
		if err != nil {
			return total, err
		}
		total += acq.FetchLatency
	}
	return total, nil
}
