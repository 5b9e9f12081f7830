package semantic

import (
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
)

const eps32 = 1.1920928955078125e-07 // float32 machine epsilon

// tierTrialCodec builds an untrained codec with randomized layer shapes —
// the kernels' correctness properties must hold at any dimensions, not just
// the tuned defaults (which have k a multiple of the SIMD widths).
func tierTrialCodec(corp *corpus.Corpus, trial int, rng *mat.RNG) *Codec {
	d := corp.Domains[trial%len(corp.Domains)]
	return NewCodec(d, Config{
		EmbedDim:   4 + rng.Intn(29),
		FeatureDim: 2 + rng.Intn(23),
		HiddenDim:  4 + rng.Intn(37),
		Seed:       uint64(1000 + trial),
	})
}

// trialWords samples one generated message from the codec's domain.
func trialWords(corp *corpus.Corpus, c *Codec, rng *mat.RNG) []string {
	gen := corpus.NewGenerator(corp, rng)
	words := gen.Message(c.domain.Index, nil).Words
	if len(words) == 0 {
		words = []string{"?"}
	}
	return words
}

// maxAbs64 returns max|v| over a float64 slice.
func maxAbs64(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// TestTierF32EncodeDriftWithinBudget is the f32-tier accuracy property:
// across random codec shapes, every encoded feature stays within the
// floating-point drift budget of the f64 reference — narrowing error on
// weights and embeddings plus f32 accumulation over the fan-in, passed
// through the 1-Lipschitz tanh, plus a few ulps for the polynomial tanh.
func TestTierF32EncodeDriftWithinBudget(t *testing.T) {
	corp := corpus.Build()
	rng := mat.NewRNG(42)
	for trial := 0; trial < 6; trial++ {
		c := tierTrialCodec(corp, trial, rng)
		words := trialWords(corp, c, rng)
		sc := mat.GetScratch()
		ref := c.EncodeWordsInto(sc, words)
		refData := append([]float64(nil), ref.Data...)
		if err := c.SetTier(TierF32); err != nil {
			t.Fatal(err)
		}
		got := c.EncodeWordsInto(sc, words)
		k := float64(c.cfg.EmbedDim)
		wmax := maxAbs64(c.enc.W.Data)
		xmax := maxAbs64(c.emb.Table.Data)
		budget := 1e-6 + 4*k*eps32*math.Max(wmax*xmax, 1)
		for i, g := range got.Data {
			if diff := math.Abs(g - refData[i]); diff > budget {
				t.Fatalf("trial %d elem %d: f32 %v vs f64 %v (diff %v > budget %v, shape E=%d F=%d)",
					trial, i, g, refData[i], diff, budget, c.cfg.EmbedDim, c.cfg.FeatureDim)
			}
		}
		mat.PutScratch(sc)
	}
}

// q8LayerBudget bounds the per-element output error the int8 tier may add
// at one linear layer with inputs in [-1, 1]: one truncating 256-level grid
// step per factor, summed over the fan-in (see the derivation in the
// nn-level budget test).
func q8LayerBudget(l *nn.Linear) float64 {
	wmax := maxAbs64(l.W.Data)
	return float64(l.In()) * (2*wmax/255 + 2*(wmax+2.0/255)/255)
}

// decodeLogits64 reproduces the f64 decode body up to (and excluding) the
// argmax, returning the logits.
func decodeLogits64(c *Codec, sc *mat.Scratch, feats *mat.Dense) *mat.Dense {
	h := sc.Mat(feats.Rows, c.cfg.HiddenDim)
	c.dec.ForwardBatch(h, feats)
	nn.TanhForward(h.Data, h.Data)
	logits := sc.Mat(feats.Rows, c.domain.NumConcepts())
	c.out.ForwardBatch(logits, h)
	return logits
}

// decodeLogitsQ8 reproduces the int8 decode body up to the argmax.
func decodeLogitsQ8(c *Codec, sc *mat.Scratch, feats *mat.Dense) *mat.Dense32 {
	ts := c.tierShadow()
	f := sc.Mat32(feats.Rows, feats.Cols)
	mat.Narrow(f.Data, feats.Data)
	h := sc.Mat32(feats.Rows, c.cfg.HiddenDim)
	ts.decQ8.ForwardBatch(sc, h, f)
	mat.Tanh32(h.Data, h.Data)
	logits := sc.Mat32(feats.Rows, c.domain.NumConcepts())
	ts.outQ8.ForwardBatch(sc, logits, h)
	return logits
}

// TestTierInt8MismatchWithinBudget is the int8-tier accuracy property,
// across random codec shapes:
//
//  1. every decoded logit stays within the composed two-layer quantization
//     budget of the f64 reference, and
//  2. the int8 argmax may disagree with f64 ONLY on near-ties — tokens
//     whose f64 top-two logit margin is inside twice the logit budget.
//
// Property 2 is the serving guarantee E12 measures as mismatch_delta: a
// confidently-decoded concept can never flip tiers.
func TestTierInt8MismatchWithinBudget(t *testing.T) {
	corp := corpus.Build()
	rng := mat.NewRNG(99)
	for trial := 0; trial < 6; trial++ {
		c := tierTrialCodec(corp, trial, rng)
		words := trialWords(corp, c, rng)
		sc := mat.GetScratch()
		feats := c.EncodeWordsInto(sc, words) // f64 features feed both decoders
		ref := decodeLogits64(c, sc, feats)
		if err := c.SetTier(TierInt8); err != nil {
			t.Fatal(err)
		}
		got := decodeLogitsQ8(c, sc, feats)

		// Compose the per-layer budgets: the out-layer adds its own budget
		// and amplifies the hidden drift by at most its row's |W| sum (tanh
		// between the layers is 1-Lipschitz). 5% + 1e-4 headroom covers the
		// f32 arithmetic the bound's exact algebra ignores.
		bd := q8LayerBudget(c.dec)
		bo := q8LayerBudget(c.out)
		n := c.domain.NumConcepts()
		bound := make([]float64, n)
		var maxBound float64
		for j := 0; j < n; j++ {
			var rowsum float64
			for _, w := range c.out.W.Row(j) {
				rowsum += math.Abs(w)
			}
			bound[j] = (bo+rowsum*bd)*1.05 + 1e-4
			maxBound = math.Max(maxBound, bound[j])
		}
		for i := 0; i < ref.Rows; i++ {
			rr, gr := ref.Row(i), got.Row(i)
			for j := 0; j < n; j++ {
				if diff := math.Abs(float64(gr[j]) - rr[j]); diff > bound[j] {
					t.Fatalf("trial %d token %d logit %d: int8 %v vs f64 %v (diff %v > budget %v)",
						trial, i, j, gr[j], rr[j], diff, bound[j])
				}
			}
			top, top32 := mat.Argmax(rr), mat.Argmax32(gr)
			if top == top32 {
				continue
			}
			margin := rr[top]
			second := math.Inf(-1)
			for j, v := range rr {
				if j != top && v > second {
					second = v
				}
			}
			margin -= second
			if margin >= 2*maxBound {
				t.Fatalf("trial %d token %d: int8 flipped argmax %d→%d at f64 margin %v >= 2*budget %v",
					trial, i, top, top32, margin, 2*maxBound)
			}
		}
		mat.PutScratch(sc)
	}
}

// TestTierServingIsDeterministic pins that repeated tiered serving calls —
// including a cache invalidation between them — produce identical bits:
// the reduced-precision shadows are pure functions of the weights.
func TestTierServingIsDeterministic(t *testing.T) {
	corp := corpus.Build()
	rng := mat.NewRNG(7)
	c := tierTrialCodec(corp, 1, rng)
	words := trialWords(corp, c, rng)
	for _, tier := range []Tier{TierF32, TierInt8} {
		if err := c.SetTier(tier); err != nil {
			t.Fatal(err)
		}
		sc := mat.GetScratch()
		first := append([]float64(nil), c.EncodeWordsInto(sc, words).Data...)
		if err := c.WriteWeights(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		again := c.EncodeWordsInto(sc, words)
		for i, v := range again.Data {
			if v != first[i] {
				t.Fatalf("tier %v elem %d: %v then %v after cache invalidation", tier, i, v, first[i])
			}
		}
		mat.PutScratch(sc)
	}
}
