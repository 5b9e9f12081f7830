// Package repro holds the top-level benchmark harness: one benchmark per
// experiment table/figure (regenerating its headline numbers via
// b.ReportMetric) plus micro-benchmarks for the hot paths. The full-size
// tables are produced by cmd/sembench; these benches use the experiments'
// reduced configurations so `go test -bench=.` completes in minutes.
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/selection"
	"repro/internal/semantic"
	"repro/internal/trace"
)

// BenchmarkE1SemanticVsTraditional regenerates Figure A / Table A: meaning
// fidelity versus SNR for the semantic pipeline against the Huffman-coded
// traditional pipeline.
func BenchmarkE1SemanticVsTraditional(b *testing.B) {
	env := experiments.Environment()
	opts := experiments.E1Options{
		SNRs:              []float64{-6, 0, 6, 12, 18},
		MessagesPerDomain: 60,
		Domains:           []string{"it"},
	}
	var res *experiments.E1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunE1(env, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	low := res.Points[0]
	high := res.Points[len(res.Points)-1]
	b.ReportMetric(low.SemSimilarity, "sem_sim@-6dB")
	b.ReportMetric(low.TradConceptAcc, "trad_acc@-6dB")
	b.ReportMetric(high.SemConceptAcc, "sem_acc@18dB")
	b.ReportMetric(high.TradPayloadByte/high.SemPayloadByte, "payload_ratio")
}

// BenchmarkE2CachePolicies regenerates Figure B: model-cache hit rate
// versus capacity per eviction policy.
func BenchmarkE2CachePolicies(b *testing.B) {
	env := experiments.Environment()
	opts := experiments.E2Options{
		Capacities: []int{2, 4, 6},
		Requests:   2000,
	}
	var res *experiments.E2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunE2(env, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range res.Cells {
		if c.Policy == "lru" && c.Capacity == 4 {
			b.ReportMetric(c.HitRate, "lru_hit@4models")
		}
		if c.Policy == "gdsf" && c.Capacity == 4 {
			b.ReportMetric(c.HitRate, "gdsf_hit@4models")
		}
	}
}

// BenchmarkE3Personalization regenerates Figure C: semantic mismatch over
// communication rounds with and without individual models.
func BenchmarkE3Personalization(b *testing.B) {
	env := experiments.Environment()
	opts := experiments.E3Options{Users: 6, Rounds: 16, BufferThreshold: 24, IdiolectStrength: 0.4}
	var res *experiments.E3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunE3(env, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	first := res.Rounds[0]
	last := res.Rounds[len(res.Rounds)-1]
	b.ReportMetric(first.IndividualMismatch, "mismatch_round1")
	b.ReportMetric(last.IndividualMismatch, "mismatch_final")
	b.ReportMetric(res.FinalGap, "final_gap")
}

// BenchmarkE4DecoderCopy regenerates Table B: feedback/sync traffic of the
// decoder-copy design versus returning receiver outputs.
func BenchmarkE4DecoderCopy(b *testing.B) {
	env := experiments.Environment()
	opts := experiments.E4Options{Rounds: 8, BufferSize: 24}
	var res *experiments.E4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunE4(env, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Mechanisms[0].TotalBytes, "output_return_B")
	b.ReportMetric(res.Mechanisms[1].TotalBytes, "decoder_copy_B")
	b.ReportMetric(res.Mechanisms[3].TotalBytes, "copy_topk_int8_B")
}

// BenchmarkE5ModelSelection regenerates Figure D: selection policy
// comparison under topic drift.
func BenchmarkE5ModelSelection(b *testing.B) {
	env := experiments.Environment()
	opts := experiments.E5Options{
		Selectors: []string{core.SelectorNaiveBayes, core.SelectorSticky},
		Messages:  800,
		Users:     3,
	}
	var res *experiments.E5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunE5(env, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		switch row.Selector {
		case core.SelectorNaiveBayes:
			b.ReportMetric(row.SelectionAccuracy, "nb_acc")
		case core.SelectorSticky:
			b.ReportMetric(row.SelectionAccuracy, "sticky_acc")
		}
	}
}

// BenchmarkE6EdgeVsCloud regenerates Table C: latency percentiles per
// model-placement condition.
func BenchmarkE6EdgeVsCloud(b *testing.B) {
	env := experiments.Environment()
	opts := experiments.E6Options{Messages: 200}
	var res *experiments.E6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunE6(env, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Rows[0].P99.Microseconds())/1000, "warm_p99_ms")
	b.ReportMetric(float64(res.Rows[1].P99.Microseconds())/1000, "cold_p99_ms")
	b.ReportMetric(float64(res.Rows[2].Mean.Microseconds())/1000, "thrash_mean_ms")
}

// BenchmarkE7GradientCompression regenerates Figure E: sync payload versus
// post-sync accuracy across compression settings.
func BenchmarkE7GradientCompression(b *testing.B) {
	env := experiments.Environment()
	opts := experiments.E7Options{TopKFracs: []float64{1, 0.1}, BufferSize: 32, Updates: 3}
	var res *experiments.E7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunE7(env, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range res.Points {
		if p.TopKFrac == 1 && !p.Int8 {
			b.ReportMetric(p.BytesPerSync, "dense_B")
			b.ReportMetric(p.ReceiverAccuracy, "dense_acc")
		}
		if p.TopKFrac == 0.1 && p.Int8 {
			b.ReportMetric(p.BytesPerSync, "topk10_int8_B")
			b.ReportMetric(p.ReceiverAccuracy, "topk10_int8_acc")
		}
	}
}

// BenchmarkE8Scalability regenerates Table D: wall-clock edge throughput
// under concurrent users.
func BenchmarkE8Scalability(b *testing.B) {
	env := experiments.Environment()
	opts := experiments.E8Options{UserCounts: []int{1, 8, 32}, MessagesPerUser: 100}
	var res *experiments.E8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunE8(env, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].Throughput, "msgs_per_s@1user")
	b.ReportMetric(res.Rows[len(res.Rows)-1].Throughput, "msgs_per_s@32users")
}

// BenchmarkE9FedAvg regenerates Table E: cold-start quality of the
// FedAvg-improved general model.
func BenchmarkE9FedAvg(b *testing.B) {
	env := experiments.Environment()
	opts := experiments.E9Options{Donors: 6, Rounds: 3, ProbeUsers: 4}
	var res *experiments.E9Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunE9(env, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].ColdStartAcc, "stock_coldstart_acc")
	b.ReportMetric(res.Rows[1].ColdStartAcc, "fedavg_coldstart_acc")
}

// BenchmarkE10Multimodal regenerates Table F: semantic versus raw
// transport for avatar pose streams.
func BenchmarkE10Multimodal(b *testing.B) {
	env := experiments.Environment()
	opts := experiments.E10Options{Frames: 150}
	var res *experiments.E10Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunE10(env, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].NMSE, "semantic_nmse")
	b.ReportMetric(res.Rows[1].NMSE, "raw_equal_bytes_nmse")
}

// BenchmarkAblations regenerates the design-choice ablation tables.
func BenchmarkAblations(b *testing.B) {
	env := experiments.Environment()
	opts := experiments.AblationOptions{Messages: 60}
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAblations(env, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Transport[0].ConceptAcc, "hamming_acc@6dB")
	b.ReportMetric(res.Transport[1].ConceptAcc, "uncoded_acc@6dB")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks for the hot paths.

// BenchmarkSemanticEncodeToken measures single-token semantic encoding.
func BenchmarkSemanticEncodeToken(b *testing.B) {
	env := experiments.Environment()
	codec := env.General("it")
	dst := make([]float64, codec.FeatureDim())
	sid := codec.Domain().SurfaceID("server")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codec.EncodeSurfaceID(sid, dst)
	}
}

// BenchmarkSemanticDecodeToken measures single-token semantic decoding
// through the decoder kernel (serving reads most decodes from the token
// table instead; BenchmarkTokenTable times that).
func BenchmarkSemanticDecodeToken(b *testing.B) {
	env := experiments.Environment()
	codec := env.General("it")
	feat := make([]float64, codec.FeatureDim())
	codec.EncodeSurfaceID(codec.Domain().SurfaceID("server"), feat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernelDecodeFeature(codec, feat)
	}
}

// kernelDecodeFeature is Codec.DecodeFeature through the decoder kernel,
// bypassing the token table: the single-token kernel cost.
func kernelDecodeFeature(c *semantic.Codec, feat []float64) int {
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	var dst [1]int
	c.DecodeFeaturesKernel(sc, sc.Wrap(1, len(feat), feat), dst[:])
	return dst[0]
}

// BenchmarkTokenTable times the token table serving reads from, on the
// 1024-token stream BenchmarkEncodeGEMM runs through the kernels: hit
// (encode, decoder-copy decode and flip-free receive decode, all answered
// by the table), miss (decode of noisy rows the memo does not hold: the
// lookup plus the kernel) and build (one table from the current weights:
// the vocabulary's encoder rows and images; decodes fill on first use at
// the cost of a miss).
func BenchmarkTokenTable(b *testing.B) {
	env := experiments.Environment()
	codec := env.General("it").Clone()
	quant := channel.DefaultQuantizer()
	codec.SetFeatureImage(quant.RoundTrip)
	words := gemmBenchWords(env)
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	concepts := make([]int, len(words))
	rx := mat.NewDense(len(words), codec.FeatureDim())
	quant.RoundTrip(rx.Data, codec.EncodeWordsKernel(sc, words).Data)
	noisy := mat.NewDense(len(words), codec.FeatureDim())
	rng := mat.NewRNG(5)
	for i := range noisy.Data {
		noisy.Data[i] = rx.Data[i] + 0.3*rng.NormFloat64()
	}
	hit := func() {
		sc.Reset()
		feats := codec.EncodeWordsInto(sc, words)
		codec.DecodeFeaturesInto(sc, feats, concepts)
		codec.DecodeFeaturesInto(sc, rx, concepts)
	}
	hit() // build the table and fill the entries the stream uses
	codec.DecodeFeaturesInto(sc, noisy, concepts)
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hit()
		}
		b.ReportMetric(float64(len(words)), "tokens/op")
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc.Reset()
			codec.DecodeFeaturesInto(sc, noisy, concepts)
		}
		b.ReportMetric(float64(len(words)), "tokens/op")
	})
	b.Run("build", func(b *testing.B) {
		one := []string{words[0]}
		for i := 0; i < b.N; i++ {
			sc.Reset()
			codec.SetFeatureImage(quant.RoundTrip) // retires the table
			codec.RoundTripInto(sc, one, concepts[:1])
		}
		b.ReportMetric(float64(codec.Domain().VocabSize()), "surfaces/op")
	})
}

// gemmBenchWords is the fixed 1024-token "it" stream of the codec
// pipeline benchmarks.
func gemmBenchWords(env *experiments.Env) []string {
	gen := corpus.NewGenerator(env.Corpus, mat.NewRNG(7))
	var words []string
	for len(words) < 1024 {
		words = append(words, gen.Message(env.Corpus.Domain("it").Index, nil).Words...)
	}
	return words[:1024]
}

// BenchmarkFeatureLink measures the full physical-layer round trip for one
// message worth of features.
func BenchmarkFeatureLink(b *testing.B) {
	env := experiments.Environment()
	codec := env.General("it")
	gen := corpus.NewGenerator(env.Corpus, mat.NewRNG(1))
	msg := gen.Message(env.Corpus.Domain("it").Index, nil)
	feats := codec.EncodeWords(msg.Words)
	link := channel.DefaultFeatureLink(&channel.AWGN{SNRdB: 6, Rng: mat.NewRNG(2)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Send(feats, codec.FeatureDim())
	}
}

// BenchmarkHuffmanPipeline measures the traditional pipeline end to end.
func BenchmarkHuffmanPipeline(b *testing.B) {
	env := experiments.Environment()
	gen := corpus.NewGenerator(env.Corpus, mat.NewRNG(1))
	msg := gen.Message(env.Corpus.Domain("it").Index, nil)
	text := msg.Text()
	pipe := baseline.Pipeline{
		Huff: env.Huffman,
		Code: channel.Hamming74{},
		Mod:  channel.BPSK{},
		Ch:   &channel.AWGN{SNRdB: 6, Rng: mat.NewRNG(2)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Send(text)
	}
}

// BenchmarkSystemTransmit measures the full Fig.-1 pipeline per message.
func BenchmarkSystemTransmit(b *testing.B) {
	env := experiments.Environment()
	sys, err := core.NewSystem(core.Config{
		Selector:          core.SelectorSticky,
		PinGeneral:        true,
		DisableAutoUpdate: true,
		Pretrained:        env.Generals,
	})
	if err != nil {
		b.Fatal(err)
	}
	w := trace.Generate(sys.Corpus, trace.Config{Users: 2, Messages: 256, Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := w.Requests[i%len(w.Requests)]
		if _, err := sys.Transmit(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGradientCompress measures decoder-delta compression.
func BenchmarkGradientCompress(b *testing.B) {
	env := experiments.Environment()
	delta := env.General("it").DecoderParams().Clone()
	opts := nn.CompressOptions{TopKFrac: 0.1, Int8: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cg := nn.Compress(delta, opts)
		cg.Encode()
	}
}

// BenchmarkSelectorSticky measures context-aware selection per message.
func BenchmarkSelectorSticky(b *testing.B) {
	env := experiments.Environment()
	nb := selection.TrainNaiveBayes(env.Corpus, 60, 5)
	s := selection.NewSticky(nb, 0)
	gen := corpus.NewGenerator(env.Corpus, mat.NewRNG(1))
	msg := gen.Message(0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Select(msg.Words)
	}
}

// ---------------------------------------------------------------------------
// Serial-versus-parallel benchmarks for the mat compute layer. Each kernel
// runs the same shape at 1 worker and at GOMAXPROCS workers; on a 4+ core
// machine the large shapes should show >= 2x. Results are bit-identical
// across worker counts by construction.

// kernelBenchShapes are the matrix shapes used by the kernel benchmarks:
// one below the parallel cutoff (stays serial either way, measures
// dispatch overhead) and two above it.
var kernelBenchShapes = []struct{ rows, cols int }{
	{128, 128},
	{1024, 1024},
	{4096, 1024},
}

// benchSerialParallel runs fn at 1 worker and at GOMAXPROCS workers.
func benchSerialParallel(b *testing.B, bytesPerOp int64, fn func(b *testing.B)) {
	prev := mat.Parallelism()
	defer mat.SetParallelism(prev)
	b.Run("serial", func(b *testing.B) {
		mat.SetParallelism(1)
		b.SetBytes(bytesPerOp)
		fn(b)
	})
	b.Run("parallel", func(b *testing.B) {
		mat.SetParallelism(runtime.GOMAXPROCS(0))
		b.SetBytes(bytesPerOp)
		fn(b)
	})
}

// BenchmarkMulVec measures dst = M*x, the encoder/decoder forward kernel.
func BenchmarkMulVec(b *testing.B) {
	for _, sh := range kernelBenchShapes {
		m := mat.NewDense(sh.rows, sh.cols)
		m.Randomize(mat.NewRNG(1), 1)
		x := make([]float64, sh.cols)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		dst := make([]float64, sh.rows)
		b.Run(fmt.Sprintf("%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			benchSerialParallel(b, int64(8*sh.rows*sh.cols), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.MulVec(dst, x)
				}
			})
		})
	}
}

// BenchmarkMulVecT measures dst = Mᵀ*x, the backward input-gradient kernel.
func BenchmarkMulVecT(b *testing.B) {
	for _, sh := range kernelBenchShapes {
		m := mat.NewDense(sh.rows, sh.cols)
		m.Randomize(mat.NewRNG(2), 1)
		x := make([]float64, sh.rows)
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		dst := make([]float64, sh.cols)
		b.Run(fmt.Sprintf("%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			benchSerialParallel(b, int64(8*sh.rows*sh.cols), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.MulVecT(dst, x)
				}
			})
		})
	}
}

// BenchmarkAddOuter measures M += a*x*yᵀ, the weight-gradient kernel.
func BenchmarkAddOuter(b *testing.B) {
	for _, sh := range kernelBenchShapes {
		m := mat.NewDense(sh.rows, sh.cols)
		x := make([]float64, sh.rows)
		y := make([]float64, sh.cols)
		for i := range x {
			x[i] = float64(i%9) - 4
		}
		for i := range y {
			y[i] = float64(i%11) - 5
		}
		b.Run(fmt.Sprintf("%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			benchSerialParallel(b, int64(8*sh.rows*sh.cols), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.AddOuter(1e-9, x, y)
				}
			})
		})
	}
}

// BenchmarkEncodeGEMM pits the historical per-vector codec path (one
// MulVec-based encode and decode per token) against the batched GEMM path
// (all tokens of a message packed into one matrix, one fused GEMM per
// layer, zero steady-state allocations) on the same 1024-token stream.
// Outputs are bit-identical; only the schedule differs.
func BenchmarkEncodeGEMM(b *testing.B) {
	env := experiments.Environment()
	codec := env.General("it")
	words := gemmBenchWords(env)
	ids := make([]int, len(words))
	for i, w := range words {
		ids[i] = codec.Domain().SurfaceID(w)
	}
	b.Run("pervector", func(b *testing.B) {
		feat := make([]float64, codec.FeatureDim())
		concepts := make([]int, len(words))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for t, id := range ids {
				codec.EncodeSurfaceID(id, feat)
				concepts[t] = kernelDecodeFeature(codec, feat)
			}
		}
		b.ReportMetric(float64(len(words)), "tokens/op")
	})
	b.Run("gemm", func(b *testing.B) {
		sc := mat.GetScratch()
		defer mat.PutScratch(sc)
		concepts := make([]int, len(words))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.Reset()
			feats := codec.EncodeWordsKernel(sc, words)
			codec.DecodeFeaturesKernel(sc, feats, concepts)
		}
		b.ReportMetric(float64(len(words)), "tokens/op")
	})
	// The raw kernel contrast at the decoder output-layer shape (the
	// dominant GEMM of the serve path), without the tanh/argmax floor the
	// full pipeline shares: one MulVec per token versus one blocked GEMM
	// over all tokens.
	const tokens, hidden, concepts = 1024, 24, 59
	w := mat.NewDense(concepts, hidden)
	w.Randomize(mat.NewRNG(3), 1)
	x := mat.NewDense(tokens, hidden)
	x.Randomize(mat.NewRNG(4), 1)
	out := mat.NewDense(tokens, concepts)
	// The seed kernel: one accumulator chain per output element, no
	// interleaving. Every madd waits on the previous add, so this is
	// FP-add-latency-bound — the floor the blocked kernels escape.
	b.Run("kernel/serialchain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t := 0; t < tokens; t++ {
				xr := x.Row(t)
				or := out.Row(t)
				for r := 0; r < concepts; r++ {
					row := w.Row(r)
					s := 0.0
					for j, wv := range row {
						s += wv * xr[j]
					}
					or[r] = s
				}
			}
		}
	})
	b.Run("kernel/pervector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t := 0; t < tokens; t++ {
				w.MulVec(out.Row(t), x.Row(t))
			}
		}
	})
	b.Run("kernel/gemm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.MulMatT(out, x, w)
		}
	})
	// The kernel tiers over the full batched pipeline: tier/f64 repeats the
	// gemm leg through the tier dispatcher (bit-identical to it), tier/f32
	// and tier/int8 trade the documented accuracy budget for speed.
	for _, tier := range semantic.Tiers() {
		b.Run("tier/"+tier.String(), func(b *testing.B) {
			tc := codec.Clone()
			if err := tc.SetTier(tier); err != nil {
				b.Fatal(err)
			}
			sc := mat.GetScratch()
			defer mat.PutScratch(sc)
			concepts := make([]int, len(words))
			// Build the reduced-precision shadow before timing starts.
			tc.DecodeFeaturesKernel(sc, tc.EncodeWordsKernel(sc, words), concepts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Reset()
				feats := tc.EncodeWordsKernel(sc, words)
				tc.DecodeFeaturesKernel(sc, feats, concepts)
			}
			b.ReportMetric(float64(len(words)), "tokens/op")
		})
	}
}

// BenchmarkTierGEMM contrasts the three kernel tiers at the decoder
// output-layer shape (the dominant GEMM of the serve path): the bit-exact
// f64 reference, the f32 SIMD kernel, and the int8 quantized kernel
// including its per-call activation quantization.
func BenchmarkTierGEMM(b *testing.B) {
	const tokens, hidden, concepts = 1024, 24, 59
	w := mat.NewDense(concepts, hidden)
	w.Randomize(mat.NewRNG(3), 1)
	x := mat.NewDense(tokens, hidden)
	x.Randomize(mat.NewRNG(4), 1)
	out := mat.NewDense(tokens, concepts)
	b.Run("f64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.MulMatT(out, x, w)
		}
	})
	w32 := mat.Dense32From(w)
	x32 := mat.Dense32From(x)
	out32 := mat.NewDense32(tokens, concepts)
	b.Run("f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.MulMatT32(out32, x32, w32)
		}
	})
	q := mat.NewQMat8(concepts, hidden)
	codes := make([]uint8, hidden)
	for r := 0; r < concepts; r++ {
		lo, scale, _ := mat.QuantizeRowQ8(codes, w32.Row(r))
		q.SetRow(r, codes, lo, scale)
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	b.Run("int8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc.Reset()
			mat.MulMatTQ8AddRow(sc, out32, x32, q, nil)
		}
	})
}

// BenchmarkTransmitTiers measures steady-state System.Transmit at each
// serving tier — the end-to-end win users of `edged -tier` actually see,
// with selection, channel simulation and Huffman framing all included.
func BenchmarkTransmitTiers(b *testing.B) {
	env := experiments.Environment()
	for _, tier := range semantic.Tiers() {
		b.Run(tier.String(), func(b *testing.B) {
			sys, err := core.NewSystem(core.Config{
				Selector:          core.SelectorSticky,
				PinGeneral:        true,
				DisableAutoUpdate: true,
				Pretrained:        env.Generals,
				Tier:              tier.String(),
			})
			if err != nil {
				b.Fatal(err)
			}
			w := trace.Generate(sys.Corpus, trace.Config{Users: 2, Messages: 256, Seed: 3})
			for _, r := range w.Requests[:8] { // warm caches and tier shadows
				if _, err := sys.Transmit(r); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Transmit(w.Requests[i%len(w.Requests)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransmitThroughput measures end-to-end System.Transmit message
// throughput: one sequential system versus one independent system per
// processor fed concurrently (the paper's many-users edge-load scenario).
func BenchmarkTransmitThroughput(b *testing.B) {
	env := experiments.Environment()
	newSystem := func() *core.System {
		sys, err := core.NewSystem(core.Config{
			Selector:          core.SelectorSticky,
			PinGeneral:        true,
			DisableAutoUpdate: true,
			Pretrained:        env.Generals,
		})
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	b.Run("serial", func(b *testing.B) {
		sys := newSystem()
		w := trace.Generate(sys.Corpus, trace.Config{Users: 2, Messages: 256, Seed: 3})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Transmit(w.Requests[i%len(w.Requests)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		systems := make([]*core.System, workers)
		for i := range systems {
			systems[i] = newSystem()
		}
		w := trace.Generate(systems[0].Corpus, trace.Config{Users: 2, Messages: 256, Seed: 3})
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			sys := systems[int(next.Add(1)-1)%workers]
			i := 0
			for pb.Next() {
				if _, err := sys.Transmit(w.Requests[i%len(w.Requests)]); err != nil {
					// b.Fatal must not run on a RunParallel worker goroutine.
					b.Error(err)
					return
				}
				i++
			}
		})
	})
}

// BenchmarkChannelStage isolates core.System step 3 — the physical
// channel crossing — under concurrent load, contrasting the two
// synchronization schemes the serve path selects between at NewSystem:
// mutex is the serialized shared link (one reseed + crossing at a time
// under a lock — the pre-lock-free PerUserNoise path, and still the
// classic shared-RNG path), pooled is the lock-free stage (each crossing
// checks a private instance out of a channel.LinkPool and reseeds it to
// the message's derived seed). Payloads and seeds are identical and the
// outputs bit-identical; only the synchronization differs, so at 8/32
// users on a multi-core machine the mutex grid convoys while the pooled
// grid scales with GOMAXPROCS.
func BenchmarkChannelStage(b *testing.B) {
	env := experiments.Environment()
	codec := env.General("it")
	gen := corpus.NewGenerator(env.Corpus, mat.NewRNG(5))
	msg := gen.Message(env.Corpus.Domain("it").Index, nil)
	feats := codec.EncodeWords(msg.Words)
	dim := codec.FeatureDim()
	flat := make([]float64, 0, len(feats)*dim)
	for _, f := range feats {
		flat = append(flat, f...)
	}
	mkLink := func() channel.FeatureLink {
		return channel.DefaultFeatureLink(&channel.AWGN{SNRdB: 12, Rng: mat.NewRNG(0)})
	}
	// opSeed stands in for core's noiseSeed derivation: any per-op unique
	// seed exercises the same reseed + draw work.
	opSeed := func(u, i int) uint64 {
		return (uint64(u)+1)*0x9e3779b97f4a7c15 + uint64(i)
	}

	grid := func(b *testing.B, users int, crossing func(seed uint64, dst []float64)) {
		if users == 1 {
			dst := make([]float64, len(flat))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				crossing(opSeed(0, i), dst)
			}
			return
		}
		p := (users + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
		b.SetParallelism(p)
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			u := int(next.Add(1)-1) % users
			dst := make([]float64, len(flat))
			i := 0
			for pb.Next() {
				crossing(opSeed(u, i), dst)
				i++
			}
		})
	}
	for _, users := range []int{1, 8, 32} {
		name := fmt.Sprintf("%duser", users)
		if users > 1 {
			name += "s"
		}
		users := users
		b.Run("mutex/"+name, func(b *testing.B) {
			link := mkLink()
			rs := link.Ch.(channel.NoiseReseeder)
			var mu sync.Mutex
			var ts channel.TxScratch
			grid(b, users, func(seed uint64, dst []float64) {
				mu.Lock()
				rs.ReseedNoise(seed)
				link.SendFlatScratch(&ts, dst, flat)
				mu.Unlock()
			})
		})
		b.Run("pooled/"+name, func(b *testing.B) {
			pool := channel.NewLinkPool(mkLink)
			grid(b, users, func(seed uint64, dst []float64) {
				inst := pool.Get()
				inst.SendSeeded(seed, dst, flat)
				pool.Put(inst)
			})
		})
	}
}

// BenchmarkConcurrentTransmit measures ONE shared System under parallel
// load from distinct users — the serve-path scaling the edged daemon
// relies on. Unlike BenchmarkTransmitThroughput/parallel (one independent
// system per processor), this exercises the per-user sharded state of a
// single deployment, at every batch window in {off, 50µs, 200µs} and
// every user count in {1, 8, 32}. The window-0 cells keep their
// historical names (1user, 8users) so the CI baseline gate keeps
// tracking them; the batched cells are the batching PR's headline: at 32
// users a non-zero window should beat window-0 well past 1.5x. The
// peruser/ cells run the same load in PerUserNoise mode, where the
// channel stage is lock-free on pooled instances — at 8/32 users and
// GOMAXPROCS >= 4 they should beat the classic cells, which still
// serialize every crossing on linkMu.
func BenchmarkConcurrentTransmit(b *testing.B) {
	env := experiments.Environment()
	const maxUsers = 32
	newSystem := func(window time.Duration, perUser bool) *core.System {
		sys, err := core.NewSystem(core.Config{
			Selector:          core.SelectorSticky,
			PinGeneral:        true,
			DisableAutoUpdate: true,
			Pretrained:        env.Generals,
			BatchWindow:       window,
			PerUserNoise:      perUser,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Sender.Prefetch(sys.Corpus.Names()); err != nil {
			b.Fatal(err)
		}
		return sys
	}
	// Pre-generate one deterministic message stream per user.
	gen := corpus.NewGenerator(env.Corpus, mat.NewRNG(17))
	streams := make([][][]string, maxUsers)
	for u := range streams {
		seq := make([][]string, 64)
		for i := range seq {
			seq[i] = gen.Message((u+i)%len(env.Corpus.Domains), nil).Words
		}
		streams[u] = seq
	}
	serial := func(b *testing.B, sys *core.System) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.TransmitText("u0", streams[0][i%64]); err != nil {
				b.Fatal(err)
			}
		}
	}
	concurrent := func(b *testing.B, sys *core.System, users int) {
		// RunParallel spawns GOMAXPROCS*p goroutines; pick p so at least
		// `users` run, one user each (cycling when there are more).
		p := (users + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
		b.SetParallelism(p)
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			u := int(next.Add(1)-1) % users
			user := fmt.Sprintf("u%d", u)
			i := 0
			for pb.Next() {
				if _, err := sys.TransmitText(user, streams[u][i%64]); err != nil {
					// b.Fatal must not run on a RunParallel worker goroutine.
					b.Error(err)
					return
				}
				i++
			}
		})
	}
	cells := []struct {
		name    string
		d       time.Duration
		perUser bool
	}{
		{"", 0, false}, // historical names: 1user, 8users, 32users
		{"window50us/", 50 * time.Microsecond, false},
		{"window200us/", 200 * time.Microsecond, false},
		{"peruser/", 0, true}, // lock-free pooled channel stage
		{"peruser/window50us/", 50 * time.Microsecond, true},
	}
	for _, c := range cells {
		for _, users := range []int{1, 8, 32} {
			name := fmt.Sprintf("%s%duser", c.name, users)
			if users > 1 {
				name += "s"
			}
			users := users
			window, perUser := c.d, c.perUser
			b.Run(name, func(b *testing.B) {
				sys := newSystem(window, perUser)
				b.ResetTimer()
				if users == 1 {
					serial(b, sys)
					return
				}
				concurrent(b, sys, users)
			})
		}
	}
}

// BenchmarkCodecFineTune measures one update-process fine-tune (the
// per-buffer cost of the paper's §II-D individual-model update).
func BenchmarkCodecFineTune(b *testing.B) {
	env := experiments.Environment()
	d := env.Corpus.Domain("it")
	gen := corpus.NewGenerator(env.Corpus, mat.NewRNG(1))
	idio := corpus.NewIdiolect(env.Corpus, mat.NewRNG(2), 0.4)
	codec := env.General("it")
	var examples []semantic.Example
	for _, m := range gen.Batch(d.Index, 24, idio) {
		examples = append(examples, semantic.ExamplesFromMessage(d, m)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := codec.Clone()
		b.StartTimer()
		fresh.FineTune(examples, 3, 0, mat.NewRNG(uint64(i)+1))
	}
}
