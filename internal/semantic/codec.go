// Package semantic implements the knowledge-base (KB) encoder/decoder pair
// at the core of the semantic communication workflow: semantic encoding
// extracts per-token feature vectors from a message; semantic decoding
// restores the meaning (domain concepts) from possibly noise-corrupted
// features.
//
// A Codec is a domain-specialized bottleneck network:
//
//	surface id -> Embedding -> Linear -> tanh  = feature vector  (encoder)
//	feature    -> Linear -> tanh -> Linear -> softmax over concepts (decoder)
//
// Features are bounded in (-1,1) by the tanh, which lets the channel layer
// quantize them uniformly. Training is denoising: Gaussian noise is added
// to features so decoding stays robust under channel corruption, mirroring
// how DeepSC-style systems train through the channel.
package semantic

import (
	"fmt"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
)

// Config sets codec hyper-parameters. The zero value selects the defaults
// used throughout the experiments.
type Config struct {
	EmbedDim   int     // token embedding width (default 16)
	FeatureDim int     // transmitted feature width (default 8)
	HiddenDim  int     // decoder hidden width (default 24)
	NoiseStd   float64 // training-time feature noise (default 0.20)
	LR         float64 // optimizer learning rate (default 0.03)
	Epochs     int     // pretraining epochs (default 5)
	Sentences  int     // pretraining sentences (default 1000)
	Seed       uint64  // weight-init / training seed (default 1)
	Tier       Tier    // serving kernel tier (default TierF64, bit-exact); runtime-only, not serialized
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (cfg Config) withDefaults() Config {
	if cfg.EmbedDim == 0 {
		cfg.EmbedDim = 16
	}
	if cfg.FeatureDim == 0 {
		cfg.FeatureDim = 8
	}
	if cfg.HiddenDim == 0 {
		cfg.HiddenDim = 24
	}
	if cfg.NoiseStd == 0 {
		cfg.NoiseStd = 0.20
	}
	if cfg.LR == 0 {
		cfg.LR = 0.03
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 5
	}
	if cfg.Sentences == 0 {
		cfg.Sentences = 1000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Parameter tensor names. The decoder names are what the federated-style
// update process ships between edge servers.
const (
	ParamEncEmb = "enc.emb"
	ParamEncW   = "enc.w"
	ParamEncB   = "enc.b"
	ParamDecW   = "dec.w"
	ParamDecB   = "dec.b"
	ParamOutW   = "out.w"
	ParamOutB   = "out.b"
)

// Codec is a domain-specialized semantic encoder/decoder pair.
type Codec struct {
	domain *corpus.Domain
	cfg    Config

	emb *nn.Embedding // vocab x E
	enc *nn.Linear    // E -> F
	dec *nn.Linear    // F -> H
	out *nn.Linear    // H -> concepts

	// tiers caches the reduced-precision weight shadows for the current
	// serving tier (nil when cold or invalidated; always nil at TierF64).
	tiers atomic.Pointer[tierState]
}

// NewCodec builds an untrained codec for domain d.
func NewCodec(d *corpus.Domain, cfg Config) *Codec {
	cfg = cfg.withDefaults()
	rng := mat.NewRNG(cfg.Seed)
	return &Codec{
		domain: d,
		cfg:    cfg,
		emb:    nn.NewEmbedding(rng, d.VocabSize(), cfg.EmbedDim),
		enc:    nn.NewLinear(rng, cfg.EmbedDim, cfg.FeatureDim),
		dec:    nn.NewLinear(rng, cfg.FeatureDim, cfg.HiddenDim),
		out:    nn.NewLinear(rng, cfg.HiddenDim, d.NumConcepts()),
	}
}

// Domain returns the domain the codec specializes in.
func (c *Codec) Domain() *corpus.Domain { return c.domain }

// Config returns the effective configuration.
func (c *Codec) Config() Config { return c.cfg }

// FeatureDim returns the width of transmitted feature vectors.
func (c *Codec) FeatureDim() int { return c.cfg.FeatureDim }

// Params returns the full parameter set (shared storage, not a copy).
func (c *Codec) Params() *nn.ParamSet {
	ps := &nn.ParamSet{}
	ps.Add(ParamEncEmb, c.emb.Table)
	ps.Add(ParamEncW, c.enc.W)
	ps.Add(ParamEncB, c.enc.B)
	ps.Add(ParamDecW, c.dec.W)
	ps.Add(ParamDecB, c.dec.B)
	ps.Add(ParamOutW, c.out.W)
	ps.Add(ParamOutB, c.out.B)
	return ps
}

// EncoderParams returns the encoder-side tensors (shared storage).
func (c *Codec) EncoderParams() *nn.ParamSet {
	ps := &nn.ParamSet{}
	ps.Add(ParamEncEmb, c.emb.Table)
	ps.Add(ParamEncW, c.enc.W)
	ps.Add(ParamEncB, c.enc.B)
	return ps
}

// DecoderParams returns the decoder-side tensors (shared storage). These
// are the tensors synchronized to the receiver edge in the update process.
func (c *Codec) DecoderParams() *nn.ParamSet {
	ps := &nn.ParamSet{}
	ps.Add(ParamDecW, c.dec.W)
	ps.Add(ParamDecB, c.dec.B)
	ps.Add(ParamOutW, c.out.W)
	ps.Add(ParamOutB, c.out.B)
	return ps
}

// Clone returns a deep copy of the codec. Individual (user-specific) models
// start as clones of the domain's general model, exactly as in the paper's
// Fig. 1 step 2.
func (c *Codec) Clone() *Codec {
	return &Codec{
		domain: c.domain,
		cfg:    c.cfg,
		emb:    &nn.Embedding{Table: c.emb.Table.Clone()},
		enc:    &nn.Linear{W: c.enc.W.Clone(), B: c.enc.B.Clone()},
		dec:    &nn.Linear{W: c.dec.W.Clone(), B: c.dec.B.Clone()},
		out:    &nn.Linear{W: c.out.W.Clone(), B: c.out.B.Clone()},
	}
}

// SizeBytes returns the serialized size of all parameters: the footprint
// the codec occupies in an edge cache.
func (c *Codec) SizeBytes() int64 { return c.Params().SizeBytes() }

// EncoderSizeBytes returns the serialized size of the encoder tensors.
func (c *Codec) EncoderSizeBytes() int64 { return c.EncoderParams().SizeBytes() }

// DecoderSizeBytes returns the serialized size of the decoder tensors.
func (c *Codec) DecoderSizeBytes() int64 { return c.DecoderParams().SizeBytes() }

// EncodeSurfaceID computes the feature vector for one local surface ID.
func (c *Codec) EncodeSurfaceID(id int, dst []float64) {
	if len(dst) != c.cfg.FeatureDim {
		panic("semantic: EncodeSurfaceID dst length mismatch")
	}
	c.enc.Forward(dst, c.embeddingRow(id))
	nn.TanhForward(dst, dst)
}

// embeddingRow returns the embedding for id, clamping out-of-lexicon IDs to
// the unknown surface.
func (c *Codec) embeddingRow(id int) []float64 {
	if id < 0 || id >= c.emb.Vocab() {
		id = corpus.UnknownSurfaceID
	}
	return c.emb.Lookup(id)
}

// packSurfaceEmbeddings gathers the embeddings of the given surface IDs
// into an n x EmbedDim scratch matrix (row order = id order).
func (c *Codec) packSurfaceEmbeddings(sc *mat.Scratch, ids []int) *mat.Dense {
	x := sc.Mat(len(ids), c.cfg.EmbedDim)
	for i, id := range ids {
		copy(x.Row(i), c.embeddingRow(id))
	}
	return x
}

// encodeWordsTo runs the batched encoder over words, writing the per-token
// features into dst (len(words) x FeatureDim): one gather of the token
// embeddings, one GEMM, one tanh sweep. Temporaries come from sc.
func (c *Codec) encodeWordsTo(sc *mat.Scratch, dst *mat.Dense, words []string) {
	if c.cfg.Tier != TierF64 {
		c.encodeWordsToTiered(sc, dst, words)
		return
	}
	x := sc.Mat(len(words), c.cfg.EmbedDim)
	for i, w := range words {
		copy(x.Row(i), c.embeddingRow(c.domain.SurfaceID(w)))
	}
	c.enc.ForwardBatch(dst, x)
	nn.TanhForward(dst.Data, dst.Data)
}

// EncodeWordsInto encodes a token sequence into a len(words) x FeatureDim
// feature matrix allocated from sc: the zero-allocation batched encode used
// by the steady-state serving path. Words outside the domain lexicon encode
// as the unknown surface. The result is bit-identical to per-token
// EncodeSurfaceID calls at any worker count; it is owned by sc and must be
// consumed before the scratch is reset or returned to the pool.
func (c *Codec) EncodeWordsInto(sc *mat.Scratch, words []string) *mat.Dense {
	dst := sc.Mat(len(words), c.cfg.FeatureDim)
	c.encodeWordsTo(sc, dst, words)
	return dst
}

// EncodeBatchInto encodes a batch of messages in one fused pass: every
// token of every message is gathered into a single embedding matrix and
// pushed through one encoder GEMM and one tanh sweep. The result matrix
// (sum(len(msgs[i])) x FeatureDim, allocated from sc) holds the messages'
// feature rows concatenated in msgs order.
//
// Because each output row of the batched GEMM depends only on its own
// input row and keeps the exact serial accumulation order per element,
// rows [start_i, start_i+len(msgs[i])) are bit-identical to a solo
// EncodeWordsInto(sc, msgs[i]) call at any worker count and any batch
// composition. This is what makes cross-request batching transparent: a
// request cannot tell which batch it landed in.
func (c *Codec) EncodeBatchInto(sc *mat.Scratch, msgs [][]string) *mat.Dense {
	total := 0
	for _, m := range msgs {
		total += len(m)
	}
	if c.cfg.Tier != TierF64 {
		return c.encodeBatchIntoTiered(sc, msgs, total)
	}
	x := sc.Mat(total, c.cfg.EmbedDim)
	row := 0
	for _, m := range msgs {
		for _, w := range m {
			copy(x.Row(row), c.embeddingRow(c.domain.SurfaceID(w)))
			row++
		}
	}
	dst := sc.Mat(total, c.cfg.FeatureDim)
	c.enc.ForwardBatch(dst, x)
	nn.TanhForward(dst.Data, dst.Data)
	return dst
}

// EncodeWords encodes a token sequence into per-token feature vectors.
// Words outside the domain lexicon encode as the unknown surface. Encoding
// only reads the codec, so it is safe to call concurrently. The returned
// vectors are rows of one batched GEMM result, bit-identical to per-token
// encoding.
func (c *Codec) EncodeWords(words []string) [][]float64 {
	feats := make([][]float64, len(words))
	if len(words) == 0 {
		return feats
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	dst := mat.NewDense(len(words), c.cfg.FeatureDim)
	c.encodeWordsTo(sc, dst, words)
	for i := range feats {
		feats[i] = dst.Row(i)
	}
	return feats
}

// DecodeFeature returns the most likely concept index for one feature
// vector. Scratch comes from the package pool, so steady-state calls are
// allocation-free.
func (c *Codec) DecodeFeature(feat []float64) int {
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	var dst [1]int
	c.DecodeFeaturesInto(sc, sc.Wrap(1, len(feat), feat), dst[:])
	return dst[0]
}

// DecodeFeaturesInto decodes a feats.Rows x FeatureDim feature matrix into
// concept indices written to dst (length feats.Rows): two batched GEMMs
// (hidden, logits) and an argmax sweep, with all temporaries drawn from sc.
// It is the zero-allocation batched decode used by the steady-state serving
// path and is bit-identical to per-token DecodeFeature calls at any worker
// count.
func (c *Codec) DecodeFeaturesInto(sc *mat.Scratch, feats *mat.Dense, dst []int) {
	if len(dst) != feats.Rows {
		panic("semantic: DecodeFeaturesInto dst length mismatch")
	}
	if c.cfg.Tier != TierF64 {
		c.decodeFeaturesIntoTiered(sc, feats, dst)
		return
	}
	h := sc.Mat(feats.Rows, c.cfg.HiddenDim)
	c.dec.ForwardBatch(h, feats)
	nn.TanhForward(h.Data, h.Data)
	logits := sc.Mat(feats.Rows, c.domain.NumConcepts())
	c.out.ForwardBatch(logits, h)
	for i := 0; i < feats.Rows; i++ {
		dst[i] = mat.Argmax(logits.Row(i))
	}
}

// DecodeFeatures decodes a feature sequence into concept indices. Decoding
// only reads the codec, so it is safe to call concurrently. The sequence is
// packed into one matrix and decoded with batched GEMMs, bit-identical to
// per-token decoding.
func (c *Codec) DecodeFeatures(feats [][]float64) []int {
	out := make([]int, len(feats))
	if len(feats) == 0 {
		return out
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	d := sc.Mat(len(feats), c.cfg.FeatureDim)
	for i, f := range feats {
		if len(f) != c.cfg.FeatureDim {
			panic("semantic: DecodeFeatures feature length mismatch")
		}
		copy(d.Row(i), f)
	}
	c.DecodeFeaturesInto(sc, d, out)
	return out
}

// RestoreWords renders concept indices as canonical surface forms: the
// restored message shown to the receiving user.
func (c *Codec) RestoreWords(concepts []int) []string {
	out := make([]string, len(concepts))
	for i, ci := range concepts {
		out[i] = c.domain.Canonical(ci)
	}
	return out
}

// RoundTripInto encodes then decodes words with no channel in between,
// writing the decoded concepts into dst (length len(words)). All
// temporaries come from sc, so steady-state calls allocate nothing.
func (c *Codec) RoundTripInto(sc *mat.Scratch, words []string, dst []int) {
	c.DecodeFeaturesInto(sc, c.EncodeWordsInto(sc, words), dst)
}

// RoundTrip encodes then decodes words with no channel in between; it is
// the sender-edge "decoder copy" computation from the paper's §II-C used
// for mismatch calculation. One scratch arena from the package pool backs
// the whole round trip instead of per-token buffers.
func (c *Codec) RoundTrip(words []string) []int {
	out := make([]int, len(words))
	if len(words) == 0 {
		return out
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	c.RoundTripInto(sc, words, out)
	return out
}

// Validate performs internal shape consistency checks, returning an error
// describing the first violation. It is cheap and intended for use after
// deserialization.
func (c *Codec) Validate() error {
	if c.emb.Dim() != c.enc.In() {
		return fmt.Errorf("semantic: embedding dim %d != encoder in %d", c.emb.Dim(), c.enc.In())
	}
	if c.enc.Out() != c.dec.In() {
		return fmt.Errorf("semantic: encoder out %d != decoder in %d", c.enc.Out(), c.dec.In())
	}
	if c.dec.Out() != c.out.In() {
		return fmt.Errorf("semantic: decoder hidden %d != output in %d", c.dec.Out(), c.out.In())
	}
	if c.out.Out() != c.domain.NumConcepts() {
		return fmt.Errorf("semantic: output dim %d != concepts %d", c.out.Out(), c.domain.NumConcepts())
	}
	return nil
}
