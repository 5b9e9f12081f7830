package semantic

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
)

// grid3 is a 3-bit quantize-dequantize image on [-1, 1], the shape of the
// channel layer's default feature quantizer.
func grid3(dst, src []float64) {
	for i, v := range src {
		v = min(max(v, -1), 1)
		dst[i] = -1 + float64(int((v+1)/2*7))/7*2
	}
}

// vocabWords returns every surface of the codec's domain, in ID order,
// plus one word outside the lexicon.
func vocabWords(c *Codec) []string {
	d := c.Domain()
	words := make([]string, 0, d.VocabSize()+1)
	for id := 0; id < d.VocabSize(); id++ {
		words = append(words, d.Surface(id))
	}
	return append(words, "notaword12345")
}

// equalRows fails the test unless a and b hold the same bits.
func equalRows(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if !sameBits(a, b) {
		t.Fatalf("%s: table %v, kernel %v", what, a, b)
	}
}

// checkDecode fails the test unless the table-backed decode of feats
// equals the kernel decode of every row.
func checkDecode(t *testing.T, what string, c *Codec, sc *mat.Scratch, feats *mat.Dense) {
	t.Helper()
	got := make([]int, feats.Rows)
	want := make([]int, feats.Rows)
	c.DecodeFeaturesInto(sc, feats, got)
	c.DecodeFeaturesKernel(sc, feats, want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s row %d: table decodes %d, kernel %d", what, i, got[i], want[i])
		}
	}
}

// TestTokenTableMatchesKernels is the table's bit-identity property:
// across random codec shapes and every tier, serving from the token table
// equals the tier kernels on surface rows, on their quantized images, on
// noisy and random rows (memo misses), and on batches mixing hits and
// misses — and the memo does not grow from the rows it was asked about.
func TestTokenTableMatchesKernels(t *testing.T) {
	corp := corpus.Build()
	rng := mat.NewRNG(99)
	for trial := 0; trial < 6; trial++ {
		base := tierTrialCodec(corp, trial, rng)
		base.SetFeatureImage(grid3)
		for _, tier := range Tiers() {
			t.Run(fmt.Sprintf("trial%d/%v", trial, tier), func(t *testing.T) {
				c := base.Clone()
				if err := c.SetTier(tier); err != nil {
					t.Fatal(err)
				}
				sc := mat.GetScratch()
				defer mat.PutScratch(sc)
				words := vocabWords(c)
				dim := c.FeatureDim()

				got := c.EncodeWordsInto(sc, words)
				want := c.EncodeWordsKernel(sc, words)
				for i := range words {
					equalRows(t, "encode "+words[i], got.Row(i), want.Row(i))
				}
				batch := c.EncodeBatchInto(sc, [][]string{words[:3], words[3:]})
				for i := range words {
					equalRows(t, "batch encode "+words[i], batch.Row(i), want.Row(i))
				}

				rt := make([]int, len(words))
				c.RoundTripInto(sc, words, rt)
				ref := make([]int, len(words))
				c.DecodeFeaturesKernel(sc, want, ref)
				for i := range rt {
					if rt[i] != ref[i] {
						t.Fatalf("round trip %q: table %d, kernel %d", words[i], rt[i], ref[i])
					}
				}

				table := c.tokens()
				checkDecode(t, "surface rows", c, sc, want)
				images := sc.Mat(len(words), dim)
				for i := range words {
					grid3(images.Row(i), want.Row(i))
				}
				checkDecode(t, "images", c, sc, images)        // fills their entries
				checkDecode(t, "filled images", c, sc, images) // answered by the memo

				noisy := sc.Mat(len(words), dim)
				for i := range noisy.Data {
					noisy.Data[i] = want.Data[i] + 0.3*rng.NormFloat64()
				}
				checkDecode(t, "noisy rows", c, sc, noisy)
				random := sc.Mat(64, dim)
				random.Randomize(rng, 1.5)
				checkDecode(t, "random rows", c, sc, random)

				// Interleave hits and misses so the miss gather/scatter runs.
				mixed := sc.Mat(2*len(words), dim)
				for i := range words {
					copy(mixed.Row(2*i), images.Row(i))
					copy(mixed.Row(2*i+1), noisy.Row(i))
				}
				checkDecode(t, "mixed rows", c, sc, mixed)

				if c.tokens() != table {
					t.Fatal("serving rebuilt the token table without a weight write")
				}
				if n, vocab := len(table.concept), c.Domain().VocabSize(); n > 2*vocab {
					t.Fatalf("token table holds %d rows, want at most 2 x vocab = %d", n, 2*vocab)
				}
			})
		}
	}
}

// TestTokenTableMissesWithoutImage pins the image-free table: without a
// feature image the memo holds only surface rows, so a quantized image
// is a miss that still decodes exactly as the kernel does.
func TestTokenTableMissesWithoutImage(t *testing.T) {
	corp := corpus.Build()
	c := tierTrialCodec(corp, 2, mat.NewRNG(5))
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	feats := c.EncodeWordsKernel(sc, vocabWords(c))
	if n := len(c.tokens().concept); n != c.Domain().VocabSize() {
		t.Fatalf("image-free table holds %d rows, want vocab %d", n, c.Domain().VocabSize())
	}
	images := sc.Mat(feats.Rows, feats.Cols)
	for i := 0; i < feats.Rows; i++ {
		grid3(images.Row(i), feats.Row(i))
	}
	checkDecode(t, "images without memo entries", c, sc, images)
}

// freshCopy rebuilds c from its serialized weights: a codec that shares no
// derived state with c, serving at c's tier with the same feature image.
func freshCopy(t *testing.T, c *Codec, image func(dst, src []float64)) *Codec {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := ReadCodec(&buf, corpus.Build())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetTier(c.Tier()); err != nil {
		t.Fatal(err)
	}
	fresh.SetFeatureImage(image)
	return fresh
}

// assertServesLike fails t unless c's serving entry points (encode,
// decoder-copy round trip, and decode of the received images) produce the
// same bits as want's over the whole vocabulary.
func assertServesLike(t *testing.T, c, want *Codec) {
	t.Helper()
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	words := vocabWords(c)
	got, ref := c.EncodeWordsInto(sc, words), want.EncodeWordsInto(sc, words)
	for i := range words {
		if !sameBits(got.Row(i), ref.Row(i)) {
			t.Fatalf("encode %q: %v, fresh copy %v", words[i], got.Row(i), ref.Row(i))
		}
	}
	images := sc.Mat(ref.Rows, ref.Cols)
	for i := 0; i < ref.Rows; i++ {
		grid3(images.Row(i), ref.Row(i))
	}
	for _, feats := range []*mat.Dense{ref, images} {
		a, b := make([]int, feats.Rows), make([]int, feats.Rows)
		c.DecodeFeaturesInto(sc, feats, a)
		want.DecodeFeaturesInto(sc, feats, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("decode row %d (%q): %d, fresh copy %d", i, words[i], a[i], b[i])
			}
		}
	}
	a, b := c.RoundTrip(words), want.RoundTrip(words)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round trip %q: %d, fresh copy %d", words[i], a[i], b[i])
		}
	}
}

// TestWeightWritesDropDerivedState checks that every in-package weight
// write retires the token table and tier shadows: after each write the
// codec serves exactly like a fresh copy of its new weights, at every
// tier.
func TestWeightWritesDropDerivedState(t *testing.T) {
	corp := corpus.Build()
	d := corp.Domain("it")
	for _, tier := range Tiers() {
		t.Run(tier.String(), func(t *testing.T) {
			c := NewCodec(d, Config{EmbedDim: 12, FeatureDim: 6, HiddenDim: 16, Seed: 3})
			c.SetFeatureImage(grid3)
			if err := c.SetTier(tier); err != nil {
				t.Fatal(err)
			}
			c.RoundTrip(vocabWords(c)) // warm the table and shadows
			exs := ExamplesFromMessage(d, corpus.NewGenerator(corp, mat.NewRNG(4)).Message(d.Index, nil))
			c.TrainEpoch(exs, &nn.SGD{LR: 0.5}, mat.NewRNG(6), 0)
			assertServesLike(t, c, freshCopy(t, c, grid3))

			c.RoundTrip(vocabWords(c))
			err := c.WriteWeights(func() error {
				c.EncoderParams().ByName(ParamEncB).Data[0] += 0.5
				c.DecoderParams().ByName(ParamOutB).Data[1] += 2
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			assertServesLike(t, c, freshCopy(t, c, grid3))
		})
	}
}

// TestCloneSharesTokenTable pins that a clone serves from its parent's
// token table (no rebuild per individual model) until its own weights
// change, and that its write leaves the parent's table in place.
func TestCloneSharesTokenTable(t *testing.T) {
	corp := corpus.Build()
	c := tierTrialCodec(corp, 3, mat.NewRNG(8))
	c.SetFeatureImage(grid3)
	parent := c.tokens()
	cl := c.Clone()
	if cl.tokens() != parent {
		t.Fatal("clone rebuilt the token table instead of sharing its parent's")
	}
	if err := cl.WriteWeights(func() error {
		cl.DecoderParams().ByName(ParamDecB).Data[0] += 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if cl.tokens() == parent {
		t.Fatal("clone kept serving the shared table after its weights changed")
	}
	if c.tokens() != parent {
		t.Fatal("a clone's weight write dropped its parent's table")
	}
	assertServesLike(t, cl, freshCopy(t, cl, grid3))

	// A clone taken after its parent's write does not inherit a table
	// built for the parent's old weights.
	c.RoundTrip(vocabWords(c))
	if err := c.WriteWeights(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if t2 := c.Clone().table.Load(); t2 != nil {
		t.Fatal("clone inherited a table retired by its parent's write")
	}

	// A build that raced a write can still publish its table; the
	// generation tag keeps both the codec and its clones from serving it.
	stale := c.tokens()
	if err := c.WriteWeights(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	c.table.Store(stale)
	if c.tokens() == stale {
		t.Fatal("codec served a table built before its last weight write")
	}
	c.table.Store(stale)
	if c.Clone().tokens() == stale {
		t.Fatal("clone served a table built before its parent's last weight write")
	}
}

// TestTokenTableConcurrentFill has many goroutines decode through one
// fresh table at once, so its entries fill concurrently (the shared
// general model's case under load). Run under -race it checks the fill's
// publication; every decode must equal the kernel's.
func TestTokenTableConcurrentFill(t *testing.T) {
	corp := corpus.Build()
	c := tierTrialCodec(corp, 4, mat.NewRNG(12))
	c.SetFeatureImage(grid3)
	sc := mat.GetScratch()
	words := vocabWords(c)
	want := make([]int, len(words))
	feats := c.EncodeWordsKernel(sc, words)
	c.DecodeFeaturesKernel(sc, feats, want)
	images := mat.NewDense(feats.Rows, feats.Cols)
	for i := 0; i < feats.Rows; i++ {
		grid3(images.Row(i), feats.Row(i))
	}
	wantImg := make([]int, len(words))
	c.DecodeFeaturesKernel(sc, images, wantImg)
	mat.PutScratch(sc)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := mat.GetScratch()
			defer mat.PutScratch(sc)
			got := make([]int, len(words))
			for r := 0; r < 4; r++ {
				// Alternate entry points so round trips and decodes fill
				// the same keys from different goroutines.
				if (g+r)%2 == 0 {
					c.RoundTripInto(sc, words, got)
				} else {
					c.DecodeFeaturesInto(sc, c.EncodeWordsInto(sc, words), got)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("goroutine %d: %q decodes %d, kernel %d", g, words[i], got[i], want[i])
						return
					}
				}
				c.DecodeFeaturesInto(sc, images, got)
				for i := range got {
					if got[i] != wantImg[i] {
						t.Errorf("goroutine %d: image of %q decodes %d, kernel %d", g, words[i], got[i], wantImg[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
