package semantic

import (
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
)

// Example is one supervised training pair: a surface ID observed on the
// sender side and the concept it expresses according to the domain KB.
type Example struct {
	SurfaceID int
	ConceptID int
}

// ExamplesFromMessage expands a generated message into per-token training
// examples for the codec of its domain.
func ExamplesFromMessage(d *corpus.Domain, m corpus.Message) []Example {
	out := make([]Example, 0, len(m.Words))
	for i, w := range m.Words {
		out = append(out, Example{SurfaceID: d.SurfaceID(w), ConceptID: m.ConceptIDs[i]})
	}
	return out
}

// TrainResult summarizes one training epoch.
type TrainResult struct {
	MeanLoss float64
	Accuracy float64
}

// trainBatch is the minibatch size: the optimizer steps once per
// trainBatch examples, with the trailing partial batch stepped on its own
// (matching the historical per-example loop's boundaries exactly).
const trainBatch = 8

// TrainEpoch runs one stochastic epoch over examples, updating the codec's
// parameters in place through opt. rng drives example shuffling and the
// denoising feature noise; noiseStd <= 0 disables noise injection.
//
// Each minibatch runs as batched matrix-matrix products (embedding gather,
// encoder GEMM, decoder GEMMs, batched backward). Every gradient element
// accumulates examples in ascending minibatch order and the noise RNG is
// consumed in the same example-major order as the per-example loop, so the
// parameter stream is bit-identical to the historical implementation at any
// worker count.
func (c *Codec) TrainEpoch(examples []Example, opt nn.Optimizer, rng *mat.RNG, noiseStd float64) TrainResult {
	params := c.Params()
	grads := params.ZeroClone()
	gEmb := grads.ByName(ParamEncEmb)
	gEncW := grads.ByName(ParamEncW)
	gEncB := grads.ByName(ParamEncB)
	gDecW := grads.ByName(ParamDecW)
	gDecB := grads.ByName(ParamDecB)
	gOutW := grads.ByName(ParamOutW)
	gOutB := grads.ByName(ParamOutB)

	E, F, H := c.cfg.EmbedDim, c.cfg.FeatureDim, c.cfg.HiddenDim
	V := c.domain.NumConcepts()
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	// Full-size minibatch buffers; the trailing partial batch reuses their
	// storage through row-limited views.
	x := sc.Mat(trainBatch, E)       // gathered token embeddings
	pre := sc.Mat(trainBatch, F)     // encoder pre-activation
	feat := sc.Mat(trainBatch, F)    // tanh feature
	noisy := sc.Mat(trainBatch, F)   // channel-noised feature
	hPre := sc.Mat(trainBatch, H)    // decoder pre-activation
	h := sc.Mat(trainBatch, H)       // decoder hidden
	logits := sc.Mat(trainBatch, V)  // concept logits
	dLogits := sc.Mat(trainBatch, V) // CE gradient
	dH := sc.Mat(trainBatch, H)
	dFeat := sc.Mat(trainBatch, F)
	dX := sc.Mat(trainBatch, E)
	sids := sc.Ints(trainBatch)

	order := rng.Perm(len(examples))
	totalLoss := 0.0
	correct := 0
	for start := 0; start < len(order); start += trainBatch {
		n := min(trainBatch, len(order)-start)
		xB, preB, featB, noisyB := x, pre, feat, noisy
		hPreB, hB, logitsB, dLogitsB := hPre, h, logits, dLogits
		dHB, dFeatB, dXB := dH, dFeat, dX
		if n < trainBatch {
			xB = sc.Wrap(n, E, x.Data[:n*E])
			preB = sc.Wrap(n, F, pre.Data[:n*F])
			featB = sc.Wrap(n, F, feat.Data[:n*F])
			noisyB = sc.Wrap(n, F, noisy.Data[:n*F])
			hPreB = sc.Wrap(n, H, hPre.Data[:n*H])
			hB = sc.Wrap(n, H, h.Data[:n*H])
			logitsB = sc.Wrap(n, V, logits.Data[:n*V])
			dLogitsB = sc.Wrap(n, V, dLogits.Data[:n*V])
			dHB = sc.Wrap(n, H, dH.Data[:n*H])
			dFeatB = sc.Wrap(n, F, dFeat.Data[:n*F])
			dXB = sc.Wrap(n, E, dX.Data[:n*E])
		}
		// Forward: encoder over the gathered minibatch.
		for t := 0; t < n; t++ {
			ex := examples[order[start+t]]
			sids[t] = ex.SurfaceID
			copy(xB.Row(t), c.emb.Lookup(ex.SurfaceID))
		}
		c.enc.ForwardBatch(preB, xB)
		nn.TanhForward(featB.Data, preB.Data)
		// Channel-noise injection (denoising training), drawn in
		// example-major order: the exact RNG stream of the serial loop.
		copy(noisyB.Data, featB.Data)
		if noiseStd > 0 {
			for i := range noisyB.Data {
				noisyB.Data[i] += noiseStd * rng.NormFloat64()
			}
		}
		// Forward: decoder.
		c.dec.ForwardBatch(hPreB, noisyB)
		nn.TanhForward(hB.Data, hPreB.Data)
		c.out.ForwardBatch(logitsB, hB)
		for t := 0; t < n; t++ {
			ex := examples[order[start+t]]
			if mat.Argmax(logitsB.Row(t)) == ex.ConceptID {
				correct++
			}
			totalLoss += nn.SoftmaxCrossEntropy(dLogitsB.Row(t), logitsB.Row(t), ex.ConceptID)
		}
		// Backward: decoder.
		c.out.BackwardBatch(hB, dLogitsB, gOutW, gOutB, dHB)
		nn.TanhBackward(dHB.Data, hB.Data, dHB.Data)
		c.dec.BackwardBatch(noisyB, dHB, gDecW, gDecB, dFeatB)
		// Backward through the (noise-free) tanh feature into the encoder.
		nn.TanhBackward(dFeatB.Data, featB.Data, dFeatB.Data)
		c.enc.BackwardBatch(xB, dFeatB, gEncW, gEncB, dXB)
		for t := 0; t < n; t++ {
			c.emb.AccumulateGrad(gEmb, sids[t], dXB.Row(t))
		}
		scaleGrads(grads, 1/float64(n))
		opt.Step(params, grads)
		grads.Zero()
		// Weights changed: the tier shadows and token table are stale.
		c.dropDerived()
	}
	nEx := float64(len(examples))
	if nEx == 0 {
		return TrainResult{}
	}
	return TrainResult{MeanLoss: totalLoss / nEx, Accuracy: float64(correct) / nEx}
}

// scaleGrads multiplies every gradient tensor by s.
func scaleGrads(grads *nn.ParamSet, s float64) {
	for _, p := range grads.Params {
		mat.Scale(p.M.Data, s)
	}
}

// evalChunk bounds the scratch footprint of Evaluate: examples stream
// through the batched encode/decode pipeline this many at a time.
const evalChunk = 256

// Evaluate measures reconstruction concept accuracy over examples without
// updating parameters and without noise. Examples run through the batched
// GEMM pipeline in fixed-size chunks over one reused scratch arena instead
// of allocating per-example feature/hidden/logit buffers; the decoded
// concepts (and therefore the accuracy) are bit-identical to the
// per-example path. The decode runs the serving tier's kernel directly,
// not the token table (whose output is the kernel's): Evaluate brackets
// the fine-tuning writes of an update, which discard most entries it
// would fill, and its 256-row chunks through the table's miss path grow
// the pooled scratch arenas.
func (c *Codec) Evaluate(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	correct := 0
	for start := 0; start < len(examples); start += evalChunk {
		sc.Reset()
		n := min(evalChunk, len(examples)-start)
		chunk := examples[start : start+n]
		ids := sc.Ints(n)
		for t, ex := range chunk {
			ids[t] = ex.SurfaceID
		}
		feats := sc.Mat(n, c.cfg.FeatureDim)
		c.enc.ForwardBatch(feats, c.packSurfaceEmbeddings(sc, ids))
		nn.TanhForward(feats.Data, feats.Data)
		decoded := sc.Ints(n)
		c.decodeKernel(sc, feats, decoded)
		for t, ex := range chunk {
			if decoded[t] == ex.ConceptID {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(examples))
}

// Pretrain trains a fresh general codec for domain d on generated traffic
// with no idiolect. It is deterministic given cfg.Seed.
func Pretrain(d *corpus.Domain, corp *corpus.Corpus, cfg Config) *Codec {
	cfg = cfg.withDefaults()
	c := NewCodec(d, cfg)
	rng := mat.NewRNG(cfg.Seed + uint64(d.Index)*1009)
	gen := corpus.NewGenerator(corp, rng.Split())
	gen.Balanced = true // KBs pretrain on broad, balanced domain corpora
	// General corpora do not cover personal rare-synonym vocabulary: tail
	// surfaces stay untrained in the general model. The resulting mismatch
	// on idiolect-bearing traffic is exactly what §II-B's user-specific
	// individual models exist to fix.
	gen.TailProb = 0
	msgs := gen.Batch(d.Index, cfg.Sentences, nil)
	var examples []Example
	for _, m := range msgs {
		examples = append(examples, ExamplesFromMessage(d, m)...)
	}
	opt := &nn.Adam{LR: cfg.LR, Clip: 5}
	trainRNG := rng.Split()
	for e := 0; e < cfg.Epochs; e++ {
		c.TrainEpoch(examples, opt, trainRNG, cfg.NoiseStd)
	}
	return c
}

// PretrainAll builds one general codec per domain, in domain order. The
// domains train concurrently on the mat worker pool: each Pretrain derives
// its RNG purely from cfg.Seed and the domain index, so the result is
// bit-identical to the serial loop at any parallelism.
func PretrainAll(corp *corpus.Corpus, cfg Config) []*Codec {
	out := make([]*Codec, len(corp.Domains))
	mat.ParallelFor(len(corp.Domains), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = Pretrain(corp.Domains[i], corp, cfg)
		}
	})
	return out
}

// FineTune adapts a codec (typically a Clone of the general model) on a
// user's buffered traffic for the given number of epochs, returning the
// final epoch's result. This is the individual-model update step of the
// paper's §II-D.
func (c *Codec) FineTune(examples []Example, epochs int, lr float64, rng *mat.RNG) TrainResult {
	if lr <= 0 {
		lr = c.cfg.LR / 2
	}
	opt := &nn.SGD{LR: lr, Momentum: 0.5, Clip: 5}
	var res TrainResult
	for e := 0; e < epochs; e++ {
		res = c.TrainEpoch(examples, opt, rng, c.cfg.NoiseStd/2)
	}
	return res
}
