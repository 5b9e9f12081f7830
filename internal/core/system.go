// Package core wires every substrate into the paper's complete semantic
// edge computing and caching system (Fig. 1):
//
//  1. the sender edge selects a domain-specialized model for each message
//     (§III-A), caching general encoders AND decoders locally (§II-C);
//  2. per-user individual models are cloned from the general models and
//     cached separately (§II-B);
//  3. semantic features cross the physical channel to the receiver edge,
//     which restores the message with its decoder (§I);
//  4. the sender computes semantic mismatch locally via its decoder copy
//     and buffers transactions (§II-C);
//  5. full buffers trigger individual-model fine-tuning, and the decoder
//     update is shipped to the receiver edge, federated-learning style
//     (§II-D).
//
// A System is deterministic given its Config.Seed and is safe for
// concurrent use: requests from different users proceed in parallel,
// while requests from the same user are serialized in arrival order (a
// user's selector context, transaction buffer and individual models form
// one causal stream). On an otherwise idle system a user observes the
// exact result sequence the fully serialized system would produce; under
// concurrent traffic per-user state still evolves identically.
//
// Channel noise comes in two schemes. The classic mode draws from one
// shared RNG in global arrival order, so individual noise realizations
// depend on the interleaving (historical behavior, pinned by golden
// digests) and every transmission serializes through one mutex-guarded
// channel. A system with Config.PerUserNoise set — every member of a
// multi-node deployment (internal/mesh) — instead derives an independent
// noise stream per (user, message-sequence) pair, making every user's
// noise independent of interleaving AND of which member serves them, so
// a user keeps their noise stream across handovers. Because those derived
// seeds depend on nothing shared, the PerUserNoise channel stage runs
// lock-free on a pool of per-request channel instances — transmissions
// cross the physical layer fully in parallel, with outputs bit-identical
// to the serialized draws at any worker count.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/selection"
	"repro/internal/semantic"
	"repro/internal/trace"
)

// Selector policy names accepted by Config.Selector.
const (
	SelectorOracle     = "oracle"
	SelectorStatic     = "static"
	SelectorNaiveBayes = "naivebayes"
	SelectorSticky     = "sticky"
	SelectorQLearn     = "qlearn"
	SelectorUCB        = "ucb"
)

// Config parameterizes a System. Zero fields select documented defaults.
type Config struct {
	// Codec sets codec hyper-parameters for all general models.
	Codec semantic.Config

	// PerUserNoise derives an independent channel-noise stream per
	// (user, message-sequence) pair instead of drawing from one shared
	// RNG in global arrival order. Every mesh member sets it: the stream
	// then survives a handover to another member, which is what makes
	// every deployment shape serve a user bit-identically. Off by default,
	// where the shared stream is pinned by golden digests.
	PerUserNoise bool

	// SenderName overrides the sender edge server's name (default
	// "edge-sender"). Mesh member i names its sender "node-i".
	SenderName string

	// SenderFetcher overrides the sender edge's model-miss resolver (nil
	// selects the standard origin fetcher). A mesh member injects its
	// cooperative fetcher here, which probes peer caches first.
	SenderFetcher edge.Fetcher

	// SenderCacheBytes / ReceiverCacheBytes size the edge model caches;
	// 0 sizes each cache to hold every general model plus eight
	// individual models.
	SenderCacheBytes   int64
	ReceiverCacheBytes int64
	// Policy names the cache eviction policy ("lru", "fifo", "lfu",
	// "gdsf"; default "lru").
	Policy string
	// PinGeneral pins general models in the edge caches once fetched.
	PinGeneral bool
	// CloudLink is the edge-to-cloud link for model fetches (default
	// 40 ms, 200 Mbps).
	CloudLink netsim.Link
	// EdgeLink is the edge-to-edge link carrying decoder updates
	// (default 10 ms, 100 Mbps).
	EdgeLink netsim.Link
	// ComputePerToken is the per-token semantic compute cost (default
	// 200 µs).
	ComputePerToken time.Duration

	// SNRdB is the physical channel signal-to-noise ratio (default 12).
	SNRdB float64
	// Rayleigh selects Rayleigh fading instead of pure AWGN.
	Rayleigh bool
	// QuantBits is the feature quantization width (default 3).
	QuantBits int
	// CodeName names the channel code ("hamming74", "rep3", "rep5",
	// "none"; default "hamming74").
	CodeName string
	// ModName names the modulation ("bpsk", "qpsk", "16qam"; default
	// "bpsk").
	ModName string
	// InterleaveDepth enables block interleaving of coded bits when > 1;
	// useful against burst errors under Rayleigh fading.
	InterleaveDepth int
	// SymbolRateHz converts channel symbols to air time (default 1e6).
	SymbolRateHz float64

	// Tier names the serving kernel tier for every codec in the system
	// ("f64", "f32", "int8"; default "f64", the bit-exact reference).
	// Pretraining always runs in f64; the tier is applied to the trained
	// (or supplied) general models, and individual models inherit it when
	// they are cloned from a general.
	Tier string

	// Selector names the model-selection policy (default "naivebayes").
	Selector string
	// StaticDomain is the fixed choice for the "static" selector.
	StaticDomain int

	// BufferThreshold triggers individual-model updates (default 32).
	BufferThreshold int
	// UpdateEpochs is the fine-tuning pass count per update (default 3).
	UpdateEpochs int
	// Compress selects decoder-update compression (default lossless).
	Compress nn.CompressOptions
	// DisableAutoUpdate turns off automatic update processing inside
	// Transmit; callers then invoke ProcessUpdate explicitly.
	DisableAutoUpdate bool

	// BatchWindow enables cross-request dynamic batching when > 0: an
	// in-flight transmit waits up to this long for others to share one
	// fused encode/decode GEMM pass with (see internal/core/batch.go).
	// Zero keeps the solo per-request path. Per-request outputs are
	// bit-identical either way.
	BatchWindow time.Duration
	// BatchMaxTokens flushes a collecting batch early once its total
	// token count reaches this budget; 0 selects DefaultBatchMaxTokens.
	// Only meaningful with BatchWindow > 0.
	BatchMaxTokens int

	// Seed drives every random component (default 1).
	Seed uint64

	// Pretrained supplies ready general codecs (one per corpus domain, in
	// domain order), skipping pretraining. The experiment harness uses it
	// to share one training run across many system instances. Codecs are
	// cloned per system so instances stay independent.
	Pretrained []*semantic.Codec
}

// withDefaults returns cfg with zero fields replaced.
func (cfg Config) withDefaults() Config {
	if cfg.Policy == "" {
		cfg.Policy = "lru"
	}
	if cfg.CloudLink == (netsim.Link{}) {
		cfg.CloudLink = netsim.Link{Latency: 40 * time.Millisecond, BandwidthBps: 200e6}
	}
	if cfg.EdgeLink == (netsim.Link{}) {
		cfg.EdgeLink = netsim.Link{Latency: 10 * time.Millisecond, BandwidthBps: 100e6}
	}
	if cfg.SNRdB == 0 {
		cfg.SNRdB = 12
	}
	if cfg.QuantBits == 0 {
		cfg.QuantBits = 3
	}
	if cfg.CodeName == "" {
		cfg.CodeName = "hamming74"
	}
	if cfg.ModName == "" {
		cfg.ModName = "bpsk"
	}
	if cfg.SymbolRateHz == 0 {
		cfg.SymbolRateHz = 1e6
	}
	if cfg.Selector == "" {
		cfg.Selector = SelectorNaiveBayes
	}
	if cfg.BufferThreshold == 0 {
		cfg.BufferThreshold = 32
	}
	if cfg.UpdateEpochs == 0 {
		cfg.UpdateEpochs = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SenderName == "" {
		cfg.SenderName = "edge-sender"
	}
	return cfg
}

// Pretrain trains the general codecs NewSystem would train for cfg, one
// per corpus domain. A deployment of several systems trains once and
// passes the result to each as Config.Pretrained.
func Pretrain(cfg Config) []*semantic.Codec {
	cfg = cfg.withDefaults()
	codecCfg := cfg.Codec
	if codecCfg.Seed == 0 {
		codecCfg.Seed = cfg.Seed
	}
	return semantic.PretrainAll(corpus.Build(), codecCfg)
}

// newCode builds a channel code by name.
func newCode(name string) (channel.Code, error) {
	switch name {
	case "hamming74":
		return channel.Hamming74{}, nil
	case "rep3":
		return channel.Repetition{N: 3}, nil
	case "rep5":
		return channel.Repetition{N: 5}, nil
	case "none":
		return channel.Identity{}, nil
	default:
		return nil, fmt.Errorf("core: unknown channel code %q", name)
	}
}

// newModulation builds a modulation by name.
func newModulation(name string) (channel.Modulation, error) {
	switch name {
	case "bpsk":
		return channel.BPSK{}, nil
	case "qpsk":
		return channel.QPSK{}, nil
	case "16qam":
		return channel.QAM16{}, nil
	default:
		return nil, fmt.Errorf("core: unknown modulation %q", name)
	}
}

// System is a running semantic communication deployment: a sender edge
// and a receiver edge in the two-edge configuration. A multi-node
// deployment runs one System per member (see internal/mesh).
type System struct {
	cfg Config

	Corpus   *corpus.Corpus
	Cloud    *kb.Registry
	Sender   *edge.Server
	Receiver *edge.Server
	Generals []*semantic.Codec

	nb         *selection.NaiveBayes
	selFactory func() selection.Selector
	oracle     bool

	// users shards per-user mutable state; usersMu guards the map only.
	// Each userState carries its own mutex so independent users transmit
	// in parallel while one user's requests stay serialized.
	usersMu sync.RWMutex
	users   map[string]*userState

	// The physical channel comes in two implementations, selected once at
	// NewSystem. Classic shared-RNG mode keeps linkMu: the noise RNG is
	// the one stateful component every transmission crosses, and its
	// draws advance in strict global arrival order (pinned by golden
	// digests), so transmits serialize here — the critical section is
	// small next to the encode/decode compute, which runs outside it.
	// linkScratch holds the reusable channel stage buffers, guarded by
	// the same mutex.
	linkMu       sync.Mutex
	link         channel.FeatureLink
	linkScratch  channel.TxScratch
	symbolRateHz float64
	edgeLink     netsim.Link

	// userNoise selects per-user derived noise streams. Every draw's seed
	// is then a pure function of (user, seq), independent of arrival
	// order and serving process, so the channel stage needs no lock:
	// linkPool hands each transmission its own channel instance (private
	// RNG + stage scratch), reseeded per message. Outputs are
	// bit-identical to serializing the draws under linkMu at any worker
	// count and interleaving. serialLink is a test-only override that
	// routes PerUserNoise transmits back through the pre-pool serialized
	// path (reseed the shared RNG under linkMu), preserved as the
	// bit-identity reference; it must be set before any traffic.
	userNoise  bool
	noiseRng   *mat.RNG
	linkPool   *channel.LinkPool
	serialLink bool

	// batcher is the cross-request dynamic batching collector, nil when
	// Config.BatchWindow is zero (solo per-request path).
	batcher *batcher

	// Aggregate counters (atomic: updated from concurrent transmits).
	syncBytes   atomic.Int64
	syncCount   atomic.Int64
	syncLatency atomic.Int64 // nanoseconds
}

// userState is one user's shard of mutable system state. Its mutex spans
// the whole transmit so the selector context, buffer arithmetic and
// individual-model updates of one user form a serial stream.
type userState struct {
	mu  sync.Mutex
	sel selection.Selector // nil under the oracle policy
	// noiseSeq counts the user's messages for per-user noise derivation
	// (PerUserNoise mode). It migrates with the user on a mesh handover so
	// the noise stream continues bit-identically on the new serving node.
	noiseSeq uint64
}

// userState returns the state shard for user, creating it on first use.
// Selector construction happens under the map write lock: factories may
// split a shared RNG, which must not race.
func (s *System) userState(user string) *userState {
	s.usersMu.RLock()
	st := s.users[user]
	s.usersMu.RUnlock()
	if st != nil {
		return st
	}
	s.usersMu.Lock()
	defer s.usersMu.Unlock()
	if st = s.users[user]; st == nil {
		st = &userState{}
		if !s.oracle {
			st.sel = s.selFactory()
		}
		s.users[user] = st
	}
	return st
}

// selectorFactories maps each non-oracle selector name to a builder of
// per-user selector constructors. Together with the SelectorOracle special
// case it is the single source of truth for selector names: validSelector
// and initSelectors both read it, so a new policy registers in one place.
var selectorFactories = map[string]func(s *System, rng *mat.RNG) func() selection.Selector{
	SelectorStatic: func(s *System, _ *mat.RNG) func() selection.Selector {
		return func() selection.Selector { return &selection.Static{DomainIndex: s.cfg.StaticDomain} }
	},
	SelectorNaiveBayes: func(s *System, _ *mat.RNG) func() selection.Selector {
		return func() selection.Selector { return s.nb }
	},
	SelectorSticky: func(s *System, _ *mat.RNG) func() selection.Selector {
		return func() selection.Selector { return selection.NewSticky(s.nb, 0) }
	},
	SelectorQLearn: func(s *System, rng *mat.RNG) func() selection.Selector {
		return func() selection.Selector {
			return selection.NewQLearn(s.nb, len(s.Corpus.Domains), rng.Split())
		}
	},
	SelectorUCB: func(s *System, _ *mat.RNG) func() selection.Selector {
		return func() selection.Selector { return selection.NewUCB(s.nb, len(s.Corpus.Domains)) }
	},
}

// validSelector reports whether name is a known selection policy.
func validSelector(name string) bool {
	if name == SelectorOracle {
		return true
	}
	_, ok := selectorFactories[name]
	return ok
}

// NewSystem pretrains the general models, registers them in the cloud,
// boots both edge servers and the selection policy, and returns the ready
// system. Every name-keyed configuration choice is validated before the
// expensive pretraining so misconfiguration fails fast.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if _, ok := newPolicy(cfg.Policy); !ok {
		return nil, fmt.Errorf("core: unknown cache policy %q", cfg.Policy)
	}
	code, err := newCode(cfg.CodeName)
	if err != nil {
		return nil, err
	}
	mod, err := newModulation(cfg.ModName)
	if err != nil {
		return nil, err
	}
	if !validSelector(cfg.Selector) {
		return nil, fmt.Errorf("core: unknown selector %q", cfg.Selector)
	}
	tier, err := semantic.ParseTier(cfg.Tier)
	if err != nil {
		return nil, err
	}
	corp := corpus.Build()
	var generals []*semantic.Codec
	if len(cfg.Pretrained) == len(corp.Domains) {
		// Clones are independent deep copies of read-only sources, so they
		// shard across the mat worker pool.
		generals = make([]*semantic.Codec, len(cfg.Pretrained))
		mat.ParallelFor(len(cfg.Pretrained), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				generals[i] = cfg.Pretrained[i].Clone()
			}
		})
	} else {
		generals = Pretrain(cfg)
	}
	if tier != semantic.TierF64 {
		// Serving tier on the trained generals; individual models inherit
		// it when cloned. Applied post-training so pretraining itself stays
		// on the bit-exact f64 path regardless of tier.
		for _, g := range generals {
			if err := g.SetTier(tier); err != nil {
				return nil, err
			}
		}
	}

	cloud := kb.NewRegistry()
	var generalBytes int64
	for i, d := range corp.Domains {
		m := &kb.Model{Key: kb.GeneralKey(d.Name, kb.RoleCodec), Version: 1, Codec: generals[i]}
		cloud.Put(m)
		generalBytes += m.SizeBytes()
	}
	perModel := generalBytes / int64(len(corp.Domains))
	defaultCache := generalBytes + 8*perModel
	if cfg.SenderCacheBytes == 0 {
		cfg.SenderCacheBytes = defaultCache
	}
	if cfg.ReceiverCacheBytes == 0 {
		cfg.ReceiverCacheBytes = defaultCache
	}

	mkEdge := func(name string, capacity int64, fetcher edge.Fetcher) (*edge.Server, error) {
		policy, ok := newPolicy(cfg.Policy)
		if !ok {
			return nil, fmt.Errorf("core: unknown cache policy %q", cfg.Policy)
		}
		return edge.New(edge.Config{
			Name:            name,
			CacheCapacity:   capacity,
			Policy:          policy,
			Uplink:          cfg.CloudLink,
			ComputePerToken: cfg.ComputePerToken,
			PinGeneral:      cfg.PinGeneral,
			BufferThreshold: cfg.BufferThreshold,
			Fetcher:         fetcher,
		}, cloud)
	}
	sender, err := mkEdge(cfg.SenderName, cfg.SenderCacheBytes, cfg.SenderFetcher)
	if err != nil {
		return nil, err
	}
	receiver, err := mkEdge("edge-receiver", cfg.ReceiverCacheBytes, nil)
	if err != nil {
		return nil, err
	}

	if cfg.InterleaveDepth > 1 {
		code = channel.InterleavedCode{Inner: code, IV: channel.Interleaver{Depth: cfg.InterleaveDepth}}
	}
	rng := mat.NewRNG(cfg.Seed ^ 0x5eed)
	noiseRng := rng.Split()
	// mkChannel builds one stochastic channel instance around its own RNG;
	// the shared link uses noiseRng, and in PerUserNoise mode the link
	// pool constructs additional instances whose RNGs are reseeded from
	// the (user, seq) derivation before every message.
	mkChannel := func(r *mat.RNG) channel.Channel {
		if cfg.Rayleigh {
			return &channel.Rayleigh{SNRdB: cfg.SNRdB, Rng: r}
		}
		return &channel.AWGN{SNRdB: cfg.SNRdB, Rng: r}
	}
	link := channel.FeatureLink{
		Quant: channel.Quantizer{Bits: cfg.QuantBits, Lo: -1, Hi: 1},
		Code:  code,
		Mod:   mod,
		Ch:    mkChannel(noiseRng),
	}

	s := &System{
		cfg:          cfg,
		Corpus:       corp,
		Cloud:        cloud,
		Sender:       sender,
		Receiver:     receiver,
		Generals:     generals,
		link:         link,
		symbolRateHz: cfg.SymbolRateHz,
		edgeLink:     cfg.EdgeLink,
		userNoise:    cfg.PerUserNoise,
		noiseRng:     noiseRng,
		users:        make(map[string]*userState, 16),
	}
	if cfg.PerUserNoise {
		// Lock-free channel stage: the pool's instances share the
		// stateless quantizer/code/modulation values with the main link
		// but each own a private channel + RNG, seeded per message. The
		// placeholder seed is never drawn from — SendSeeded reseeds first.
		s.linkPool = channel.NewLinkPool(func() channel.FeatureLink {
			l := link
			l.Ch = mkChannel(mat.NewRNG(0))
			return l
		})
	}
	if cfg.BatchWindow > 0 {
		s.batcher = newBatcher(s, cfg.BatchWindow, cfg.BatchMaxTokens)
	}
	if err := s.initSelectors(rng); err != nil {
		return nil, err
	}
	return s, nil
}

// newPolicy mirrors cache.NewPolicy without exporting the dependency to
// callers of this package.
func newPolicy(name string) (edgePolicy, bool) {
	return cachePolicyByName(name)
}

// initSelectors trains the shared classifier and builds the per-user
// selector family.
func (s *System) initSelectors(rng *mat.RNG) error {
	cfg := s.cfg
	if cfg.Selector == SelectorOracle {
		s.oracle = true
		return nil
	}
	build, ok := selectorFactories[cfg.Selector]
	if !ok {
		return fmt.Errorf("core: unknown selector %q", cfg.Selector)
	}
	s.nb = selection.TrainNaiveBayes(s.Corpus, 150, cfg.Seed^0xbead)
	s.selFactory = build(s, rng)
	// Probe once, exactly as selection.NewPerUser did before per-user
	// sharding: factories that split an RNG per instance keep the same
	// split sequence, so per-user selector streams stay bit-identical.
	s.selFactory()
	return nil
}

// Result reports one end-to-end semantic transmission.
type Result struct {
	// Req is the originating request.
	Req trace.Request
	// SelectedDomain is the model-selection outcome.
	SelectedDomain int
	// CorrectSelection reports SelectedDomain == true domain.
	CorrectSelection bool
	// RestoredWords is the receiver's restored message.
	RestoredWords []string
	// CanonicalWords renders the ground-truth meaning.
	CanonicalWords []string
	// WordAccuracy compares restored to canonical words.
	WordAccuracy float64
	// Similarity is the graded semantic fidelity in [0,1].
	Similarity float64
	// Mismatch is the sender-side decoder-copy estimate.
	Mismatch float64
	// PayloadBytes is the semantic payload size on the air.
	PayloadBytes int
	// Symbols is the channel symbol count.
	Symbols int
	// Latency is the end-to-end message latency (fetch + compute + air
	// time + propagation).
	Latency time.Duration
	// EncCacheHit / DecCacheHit report model-cache hits on each edge.
	EncCacheHit bool
	DecCacheHit bool
	// UsedIndividual reports whether the sender used a user-specific
	// model.
	UsedIndividual bool
	// UpdateFired reports that this transmission triggered an
	// individual-model update; UpdateBytes is its wire cost.
	UpdateFired bool
	UpdateBytes int
}

// mix64 is the SplitMix64 finalizer: a cheap, high-avalanche mixer for
// combining seed material.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// noiseSeed derives the channel-noise seed for one message in PerUserNoise
// mode from the system seed, the user's stable hash and the user's
// message sequence number. The derivation depends on nothing else — not
// the serving node, not the arrival interleaving — which is the whole
// point: any deployment shape serving the same (user, seq) message draws
// the same noise.
func noiseSeed(systemSeed, userHash, seq uint64) uint64 {
	return mix64(mix64(systemSeed^0x6e6f697365) ^ userHash ^ (seq * 0x9e3779b97f4a7c15))
}

// nextNoiseSeed advances the user's message sequence and returns the
// derived seed for this message. Caller must hold st.mu.
func (s *System) nextNoiseSeed(st *userState, user string) uint64 {
	seq := st.noiseSeq
	st.noiseSeq++
	return noiseSeed(s.cfg.Seed, cluster.Hash64(user), seq)
}

// sendOverChannel runs one message's physical-channel crossing using the
// scheme selected at NewSystem. In PerUserNoise mode the crossing is
// lock-free: a pooled channel instance is checked out, reseeded to the
// message's derived seed and returned — bit-identical to reseeding one
// shared serialized channel, because the draw depends only on seed. In
// classic shared-RNG mode (seed is then ignored) every crossing
// serializes under linkMu so the shared noise stream advances in strict
// global arrival order. The serialLink test hook routes PerUserNoise
// crossings through the serialized path as the bit-identity reference.
func (s *System) sendOverChannel(seed uint64, dst, src []float64) channel.LinkStats {
	if s.userNoise && !s.serialLink {
		inst := s.linkPool.Get()
		stats := inst.SendSeeded(seed, dst, src)
		s.linkPool.Put(inst)
		return stats
	}
	s.linkMu.Lock()
	if s.userNoise {
		s.noiseRng.Reseed(seed)
	}
	stats := s.link.SendFlatScratch(&s.linkScratch, dst, src)
	s.linkMu.Unlock()
	return stats
}

// Transmit runs one message through the full pipeline. Transmissions for
// different users run concurrently; same-user calls serialize.
func (s *System) Transmit(req trace.Request) (*Result, error) {
	msg := req.Msg
	st := s.userState(req.User)
	st.mu.Lock()
	defer st.mu.Unlock()
	// One pooled scratch arena backs the whole codec path of this request;
	// everything it hands out is consumed before the arena is pooled again.
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	// Step 1: model selection on the sender edge.
	var selected int
	if s.oracle {
		selected = msg.DomainIndex
	} else {
		selected = st.sel.Select(msg.Words)
	}
	res, decoded, err := s.transmitSelected(sc, st, req.User, msg.Words, selected, st.sel)
	if err != nil {
		return nil, err
	}
	res.Req = req
	res.CorrectSelection = selected == msg.DomainIndex
	s.scoreResult(res, decoded)
	return res, nil
}

// TransmitText runs live text (no ground truth) through the pipeline: the
// daemon's entry point. Fidelity fields that require ground truth stay
// zero; the sender-side Mismatch estimate is still populated. The oracle
// selector cannot serve live text.
func (s *System) TransmitText(user string, words []string) (*Result, error) {
	if s.oracle {
		return nil, errors.New("core: oracle selector requires ground-truth requests")
	}
	st := s.userState(user)
	st.mu.Lock()
	defer st.mu.Unlock()
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	selected := st.sel.Select(words)
	res, _, err := s.transmitSelected(sc, st, user, words, selected, st.sel)
	if err != nil {
		return nil, err
	}
	res.Req = trace.Request{User: user, Msg: corpus.Message{
		DomainIndex: selected,
		DomainName:  s.Corpus.Domains[selected].Name,
		Words:       words,
	}}
	return res, nil
}

// transmitSelected runs pipeline steps 2-6 for an already-selected domain.
// It returns the partially scored result and the decoded concepts. All
// codec-path temporaries (feature matrices, received features, concept
// buffers) come from sc, so the steady-state codec path allocates nothing;
// the returned concepts are backed by sc and must be consumed before the
// scratch is released.
func (s *System) transmitSelected(sc *mat.Scratch, st *userState, user string, words []string, selected int, sel selection.Selector) (*Result, []int, error) {
	if s.batcher != nil {
		return s.transmitBatched(sc, st, user, words, selected, sel)
	}
	domain := s.Corpus.Domains[selected].Name
	sender := s.Sender

	// Step 2: sender-side semantic encoding (one batched GEMM).
	enc, err := sender.Encode(sc, domain, user, words)
	if err != nil {
		return nil, nil, err
	}

	// Step 3: physical channel. In PerUserNoise mode the crossing is
	// lock-free on a pooled channel instance seeded from (user, seq), so
	// the draw is independent of arrival interleaving, serving process
	// AND of every other in-flight transmission; classic mode serializes
	// the shared noise RNG under linkMu in global arrival order.
	var seed uint64
	if s.userNoise {
		seed = s.nextNoiseSeed(st, user)
	}
	rx := sc.Mat(enc.Features.Rows, enc.Model.Codec.FeatureDim())
	stats := s.sendOverChannel(seed, rx.Data, enc.Features.Data)
	airTime := time.Duration(float64(stats.Symbols) / s.symbolRateHz * float64(time.Second))
	airTime += s.edgeLink.Latency

	// Step 4: receiver-side semantic decoding (batched GEMMs).
	dec, err := s.Receiver.Decode(sc, domain, user, rx)
	if err != nil {
		return nil, nil, err
	}

	// Step 5: sender-side mismatch via decoder copy, buffered. The encode
	// result rides along so the round trip reuses the already-computed
	// features when the decoder copy is the same model instance.
	tx, ready, err := sender.RecordTransaction(sc, domain, user, words, &enc)
	if err != nil {
		return nil, nil, err
	}
	if sel != nil {
		sel.Feedback(1 - tx.Mismatch())
	}

	res := &Result{
		SelectedDomain: selected,
		RestoredWords:  dec.Words,
		Mismatch:       tx.Mismatch(),
		PayloadBytes:   stats.PayloadBytes(),
		Symbols:        stats.Symbols,
		Latency:        enc.FetchLatency + enc.ComputeLatency + airTime + dec.FetchLatency + dec.ComputeLatency,
		EncCacheHit:    enc.CacheHit,
		DecCacheHit:    dec.CacheHit,
		UsedIndividual: enc.Individual,
	}

	// Step 6: update process when the buffer is full.
	if ready && !s.cfg.DisableAutoUpdate {
		bytes, err := s.ProcessUpdate(domain, user)
		if err == nil {
			res.UpdateFired = true
			res.UpdateBytes = bytes
		}
	}
	return res, dec.Concepts, nil
}

// scoreResult fills the fidelity metrics against ground truth.
func (s *System) scoreResult(res *Result, decoded []int) {
	msg := res.Req.Msg
	trueDomain := s.Corpus.Domains[msg.DomainIndex]
	canonical := make([]string, len(msg.ConceptIDs))
	for i, ci := range msg.ConceptIDs {
		canonical[i] = trueDomain.Canonical(ci)
	}
	res.CanonicalWords = canonical
	res.WordAccuracy = semantic.WordAccuracy(res.RestoredWords, canonical)
	if res.CorrectSelection {
		res.Similarity = semantic.Similarity(s.Generals[msg.DomainIndex], decoded, msg.ConceptIDs)
	} else {
		// Cross-domain decoding has no shared concept space; fall back to
		// surface-level fidelity.
		res.Similarity = res.WordAccuracy
	}
}

// ProcessUpdate runs the update process for (domain, user) on the sender
// edge and ships the decoder update across the edge link, returning the
// payload size.
func (s *System) ProcessUpdate(domain, user string) (int, error) {
	upd, err := s.Sender.RunUpdate(domain, user, fl.UpdateConfig{
		Epochs:   s.cfg.UpdateEpochs,
		Compress: s.cfg.Compress,
		Seed:     s.cfg.Seed ^ 0xfade,
	})
	if err != nil {
		return 0, err
	}
	if err := s.Receiver.ApplyRemoteUpdate(upd); err != nil {
		return 0, err
	}
	s.syncBytes.Add(int64(upd.Stats.PayloadBytes))
	s.syncCount.Add(1)
	s.syncLatency.Add(int64(s.edgeLink.TransferTime(int64(upd.Stats.PayloadBytes))))
	return upd.Stats.PayloadBytes, nil
}

// SyncBytes returns the cumulative decoder-update traffic.
func (s *System) SyncBytes() int64 { return s.syncBytes.Load() }

// SyncCount returns the number of decoder updates shipped.
func (s *System) SyncCount() int { return int(s.syncCount.Load()) }

// SyncLatency returns the cumulative simulated edge-link transfer time of
// all shipped decoder updates.
func (s *System) SyncLatency() time.Duration { return time.Duration(s.syncLatency.Load()) }

// CloudLink returns the (defaulted) edge-to-cloud link the system
// charges for origin model fetches — what an external fetcher (e.g. the
// mesh's origin fallback) must charge to match in-process accounting.
func (s *System) CloudLink() netsim.Link { return s.cfg.CloudLink }

// RunWorkload transmits every request in w, returning per-message
// results. Mobility events do not apply to one System; a multi-node
// deployment (internal/mesh) applies them between transmits.
func (s *System) RunWorkload(w *trace.Workload) ([]Result, error) {
	out := make([]Result, 0, len(w.Requests))
	for _, req := range w.Requests {
		res, err := s.Transmit(req)
		if err != nil {
			return out, fmt.Errorf("core: request %d: %w", req.Seq, err)
		}
		out = append(out, *res)
	}
	return out, nil
}

// errNoResults reports summarizing an empty result set.
var errNoResults = errors.New("core: no results to summarize")

// Summary aggregates a result set.
type Summary struct {
	Messages          int
	MeanWordAccuracy  float64
	MeanSimilarity    float64
	MeanMismatch      float64
	SelectionAccuracy float64
	MeanPayloadBytes  float64
	MeanLatency       time.Duration
	P95Latency        time.Duration
	IndividualShare   float64
	Updates           int
	UpdateBytes       int64
}

// Summarize reduces results to aggregate metrics.
func Summarize(results []Result) (Summary, error) {
	if len(results) == 0 {
		return Summary{}, errNoResults
	}
	var sum Summary
	latencies := make([]float64, 0, len(results))
	for i := range results {
		r := &results[i]
		sum.MeanWordAccuracy += r.WordAccuracy
		sum.MeanSimilarity += r.Similarity
		sum.MeanMismatch += r.Mismatch
		if r.CorrectSelection {
			sum.SelectionAccuracy++
		}
		sum.MeanPayloadBytes += float64(r.PayloadBytes)
		sum.MeanLatency += r.Latency
		latencies = append(latencies, float64(r.Latency))
		if r.UsedIndividual {
			sum.IndividualShare++
		}
		if r.UpdateFired {
			sum.Updates++
			sum.UpdateBytes += int64(r.UpdateBytes)
		}
	}
	n := float64(len(results))
	sum.Messages = len(results)
	sum.MeanWordAccuracy /= n
	sum.MeanSimilarity /= n
	sum.MeanMismatch /= n
	sum.SelectionAccuracy /= n
	sum.MeanPayloadBytes /= n
	sum.MeanLatency /= time.Duration(len(results))
	sum.IndividualShare /= n
	sum.P95Latency = percentileDuration(latencies, 95)
	return sum, nil
}
