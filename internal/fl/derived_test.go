package fl

import (
	"bytes"
	"testing"

	"repro/internal/channel"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/semantic"
)

// wireImage is the flip-free image of the default feature link.
var wireImage = channel.DefaultQuantizer().RoundTrip

// servingCodec clones gen at tier with the wire image installed, and
// serves its whole vocabulary once so the token table and tier shadows
// are warm before the write under test.
func servingCodec(t *testing.T, gen *semantic.Codec, tier semantic.Tier) *semantic.Codec {
	t.Helper()
	c := gen.Clone()
	if err := c.SetTier(tier); err != nil {
		t.Fatal(err)
	}
	c.SetFeatureImage(wireImage)
	c.DecodeFeatures(c.EncodeWords(vocabOf(c)))
	return c
}

// vocabOf returns every surface of c's domain in ID order.
func vocabOf(c *semantic.Codec) []string {
	d := c.Domain()
	words := make([]string, d.VocabSize())
	for id := range words {
		words[id] = d.Surface(id)
	}
	return words
}

// assertFresh fails t unless c serves exactly like a codec rebuilt from
// its serialized weights at the same tier: encode, decoder-copy round
// trip, and decode of the flip-free received rows.
func assertFresh(t *testing.T, what string, c *semantic.Codec) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := semantic.ReadCodec(&buf, corpus.Build())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetTier(c.Tier()); err != nil {
		t.Fatal(err)
	}
	fresh.SetFeatureImage(wireImage)
	words := vocabOf(c)
	got, want := c.EncodeWords(words), fresh.EncodeWords(words)
	rx := make([][]float64, len(want))
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: encode %q differs from a fresh copy of the weights", what, words[i])
			}
		}
		rx[i] = make([]float64, len(want[i]))
		wireImage(rx[i], want[i])
	}
	for _, pair := range [][2][]int{
		{c.RoundTrip(words), fresh.RoundTrip(words)},
		{c.DecodeFeatures(rx), fresh.DecodeFeatures(rx)},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s: decode of %q differs from a fresh copy of the weights", what, words[i])
			}
		}
	}
}

// TestWeightWritesRetireServingState checks that the federated weight
// writes retire a warm codec's token table and tier shadows: afterwards
// it serves exactly like a fresh copy of its new weights.
func TestWeightWritesRetireServingState(t *testing.T) {
	corp, gen := fixtures(t)
	idio := corpus.NewIdiolect(corp, mat.NewRNG(81), 0.5)
	for _, tier := range semantic.Tiers() {
		t.Run(tier.String(), func(t *testing.T) {
			sender := gen.Clone()
			buf := fillBuffer(corp, sender, idio, 16, 82)
			upd, err := RunUpdate(sender, buf, 0, UpdateConfig{Epochs: 2, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			receiver := servingCodec(t, gen, tier)
			if err := ApplyUpdate(receiver, upd); err != nil {
				t.Fatal(err)
			}
			assertFresh(t, "ApplyUpdate", receiver)

			avg := servingCodec(t, gen, tier)
			delta := CodecDelta(sender, gen)
			if err := ApplyAverageDelta(avg, []*nn.ParamSet{delta, delta.ZeroClone()}, 1); err != nil {
				t.Fatal(err)
			}
			assertFresh(t, "ApplyAverageDelta", avg)
		})
	}
	global, err := RunFederated(servingCodec(t, gen, semantic.TierF32), donorSets(corp, gen.Domain(), 2, 20, 83),
		FederatedConfig{Rounds: 2, LocalEpochs: 1, DP: DPConfig{ClipNorm: 1, NoiseMultiplier: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	assertFresh(t, "RunFederated with DP noise", global)
}
