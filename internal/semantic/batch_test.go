package semantic

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
)

// batchMessages generates a deterministic batch of IT-domain messages.
func batchMessages(corp *corpus.Corpus, n int) [][]string {
	gen := corpus.NewGenerator(corp, mat.NewRNG(99))
	d := corp.Domain("it")
	msgs := make([][]string, 0, n)
	for _, m := range gen.Batch(d.Index, n, nil) {
		msgs = append(msgs, m.Words)
	}
	return msgs
}

// roundTrip encodes and decodes every message on its own, each through
// the batched-GEMM per-message path.
func roundTrip(codec *Codec, msgs [][]string) (feats [][][]float64, concepts [][]int) {
	feats = make([][][]float64, len(msgs))
	concepts = make([][]int, len(msgs))
	for i, m := range msgs {
		feats[i] = codec.EncodeWords(m)
		concepts[i] = codec.DecodeFeatures(feats[i])
	}
	return feats, concepts
}

// TestBatchMatchesSerial asserts the per-message batched-GEMM encode and
// decode are bit-identical at any worker count to a single-worker run.
func TestBatchMatchesSerial(t *testing.T) {
	corp, codec := sharedFixtures(t)
	msgs := batchMessages(corp, 40)

	prev := mat.Parallelism()
	defer mat.SetParallelism(prev)

	mat.SetParallelism(1)
	wantFeats, wantConcepts := roundTrip(codec, msgs)

	for _, workers := range []int{2, 8} {
		mat.SetParallelism(workers)
		feats, concepts := roundTrip(codec, msgs)
		if !reflect.DeepEqual(feats, wantFeats) {
			t.Fatalf("encode at %d workers differs from serial encode", workers)
		}
		if !reflect.DeepEqual(concepts, wantConcepts) {
			t.Fatalf("decode at %d workers differs from serial decode", workers)
		}
	}
}

// TestEncodeBatchIntoBitIdentical asserts the fused batch-of-messages
// encode is bit-identical per message to solo encodes, at any worker
// count and any batch composition — the invariant cross-request dynamic
// batching rests on.
func TestEncodeBatchIntoBitIdentical(t *testing.T) {
	corp, codec := sharedFixtures(t)
	msgs := batchMessages(corp, 17)

	prev := mat.Parallelism()
	defer mat.SetParallelism(prev)

	mat.SetParallelism(1)
	solo := make([][][]float64, len(msgs))
	for i, m := range msgs {
		sc := mat.GetScratch()
		enc := codec.EncodeWordsInto(sc, m)
		solo[i] = make([][]float64, enc.Rows)
		for r := 0; r < enc.Rows; r++ {
			solo[i][r] = append([]float64(nil), enc.Row(r)...)
		}
		mat.PutScratch(sc)
	}

	for _, workers := range []int{1, 2, 8} {
		mat.SetParallelism(workers)
		// Vary batch composition: full batch, pairs, singletons.
		for _, span := range []int{len(msgs), 2, 1} {
			for lo := 0; lo < len(msgs); lo += span {
				hi := lo + span
				if hi > len(msgs) {
					hi = len(msgs)
				}
				sc := mat.GetScratch()
				packed := codec.EncodeBatchInto(sc, msgs[lo:hi])
				row := 0
				for i := lo; i < hi; i++ {
					for r := range solo[i] {
						for k, v := range solo[i][r] {
							if packed.Row(row)[k] != v {
								t.Fatalf("workers %d span %d: msg %d token %d col %d: batch %v != solo %v",
									workers, span, i, r, k, packed.Row(row)[k], v)
							}
						}
						row++
					}
				}
				if row != packed.Rows {
					t.Fatalf("packed rows %d, consumed %d", packed.Rows, row)
				}
				mat.PutScratch(sc)
			}
		}
	}
}

// TestConcurrentBatchEncode hammers one shared codec from many goroutines
// at full parallelism. Under -race this proves the encode/decode read path
// is free of data races (the CI race job runs it).
func TestConcurrentBatchEncode(t *testing.T) {
	corp, codec := sharedFixtures(t)
	msgs := batchMessages(corp, 24)

	prev := mat.Parallelism()
	defer mat.SetParallelism(prev)
	mat.SetParallelism(8)

	_, want := roundTrip(codec, msgs)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				_, got := roundTrip(codec, msgs)
				if !reflect.DeepEqual(got, want) {
					errs <- "concurrent batch encode/decode not deterministic"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestPretrainAllParallelDeterminism asserts PretrainAll produces the same
// models regardless of worker count: per-domain training must be seeded
// independently of scheduling.
func TestPretrainAllParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-pretrain determinism check in -short")
	}
	corp := corpus.Build()
	cfg := testConfig()
	cfg.Sentences = 120
	cfg.Epochs = 1

	prev := mat.Parallelism()
	defer mat.SetParallelism(prev)

	mat.SetParallelism(1)
	serial := PretrainAll(corp, cfg)
	mat.SetParallelism(8)
	parallel := PretrainAll(corp, cfg)

	if len(serial) != len(parallel) {
		t.Fatalf("codec counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i].Params(), parallel[i].Params()
		for j := range a.Params {
			am, bm := a.Params[j].M, b.Params[j].M
			for k := range am.Data {
				if am.Data[k] != bm.Data[k] {
					t.Fatalf("domain %d tensor %q differs at %d: %v vs %v",
						i, a.Params[j].Name, k, am.Data[k], bm.Data[k])
				}
			}
		}
	}
}
