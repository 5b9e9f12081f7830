package experiments

import (
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/semantic"
)

// E12Options parameterizes the kernel-tier accuracy-versus-speed sweep:
// serving tier (f64 / f32 / int8) x channel SNR.
type E12Options struct {
	// Tiers under test (default all three, f64 first as the reference).
	Tiers []semantic.Tier
	// SNRs lists the sweep points in dB (default 0..18 step 6).
	SNRs []float64
	// MessagesPerDomain per sweep cell (default 200).
	MessagesPerDomain int
	// Domains under test (default it, medical).
	Domains []string
	// TimingTokens sizes the token stream for the per-tier ns/token
	// measurement (default 4096).
	TimingTokens int
	// Seed drives message generation and noise (default 1).
	Seed uint64
}

func (o E12Options) withDefaults() E12Options {
	if len(o.Tiers) == 0 {
		o.Tiers = semantic.Tiers()
	}
	if len(o.SNRs) == 0 {
		o.SNRs = []float64{0, 6, 12, 18}
	}
	if o.MessagesPerDomain == 0 {
		o.MessagesPerDomain = 200
	}
	if len(o.Domains) == 0 {
		o.Domains = []string{"it", "medical"}
	}
	if o.TimingTokens == 0 {
		o.TimingTokens = 4096
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// E12Cell is one (tier, SNR) accuracy measurement.
type E12Cell struct {
	Tier       semantic.Tier
	SNRdB      float64
	ConceptAcc float64
	// MismatchDelta is the fraction of tokens whose decoded concept
	// differs from the f64 reference tier's decode of the same messages
	// under an identically seeded noise stream: the semantic cost of the
	// cheaper kernels, isolated from the channel.
	MismatchDelta float64
}

// E12Timing is one tier's codec compute cost (encode+decode, channel
// excluded), best-of-N over a fixed token stream.
type E12Timing struct {
	Tier       semantic.Tier
	NsPerToken float64
	// Speedup is f64-reference ns/token divided by this tier's.
	Speedup float64
}

// E12Result is the full grid plus the per-tier timing column.
type E12Result struct {
	Cells   []E12Cell
	Timings []E12Timing
}

// RunE12 measures what the reduced-precision serving tiers cost in meaning
// and buy in compute. Every (tier, SNR) cell replays the same messages
// through the same encode -> quantize -> channel -> decode pipeline; the
// channel RNG is re-seeded identically per SNR point so tiers face aligned
// noise, making the mismatch delta attributable to the kernels alone. The
// compute column times the batched encode+decode path per tier on one
// fixed token stream, channel excluded.
func RunE12(env *Env, opts E12Options) (*E12Result, error) {
	opts = opts.withDefaults()
	// Tiered serving clones, grouped per domain; clones keep the trained
	// weights and differ only in serving tier.
	type tierSet struct {
		domain *corpus.Domain
		codecs []*semantic.Codec // index-aligned with opts.Tiers
		msgs   []corpus.Message
	}
	gen := corpus.NewGenerator(env.Corpus, mat.NewRNG(opts.Seed).Split())
	sets := make([]tierSet, 0, len(opts.Domains))
	for _, name := range opts.Domains {
		d := env.Corpus.Domain(name)
		if d == nil {
			return nil, fmt.Errorf("e12: unknown domain %q", name)
		}
		ts := tierSet{domain: d, msgs: gen.Batch(d.Index, opts.MessagesPerDomain, nil)}
		for _, tier := range opts.Tiers {
			c := env.Generals[d.Index].Clone()
			if err := c.SetTier(tier); err != nil {
				return nil, err
			}
			ts.codecs = append(ts.codecs, c)
		}
		sets = append(sets, ts)
	}
	// The f64 reference decodes; any f64 entry in Tiers reuses them.
	refCodecs := make([]*semantic.Codec, len(sets))
	for si, set := range sets {
		refCodecs[si] = env.Generals[set.domain.Index]
	}

	res := &E12Result{}
	runCell := func(tier int, codecOf func(si int) *semantic.Codec, snr float64, rngSeed uint64, ref [][]int) (E12Cell, [][]int) {
		ch := &channel.AWGN{SNRdB: snr, Rng: mat.NewRNG(rngSeed)}
		link := channel.DefaultFeatureLink(ch)
		cell := E12Cell{SNRdB: snr}
		if tier >= 0 {
			cell.Tier = opts.Tiers[tier]
		}
		decodes := make([][]int, 0, len(sets)*opts.MessagesPerDomain)
		var tokens, acc, mism float64
		for si, set := range sets {
			codec := codecOf(si)
			for _, m := range set.msgs {
				feats := codec.EncodeWords(m.Words)
				rx, _ := link.Send(feats, codec.FeatureDim())
				decoded := codec.DecodeFeatures(rx)
				acc += semantic.ConceptAccuracy(decoded, m.ConceptIDs) * float64(len(m.Words))
				tokens += float64(len(m.Words))
				if ref != nil {
					r := ref[len(decodes)]
					for t := range decoded {
						if decoded[t] != r[t] {
							mism++
						}
					}
				}
				decodes = append(decodes, decoded)
			}
		}
		cell.ConceptAcc = acc / tokens
		cell.MismatchDelta = mism / tokens
		return cell, decodes
	}

	// Accuracy grid: SNR points fan out; within a point the tiers run
	// serially against one reference decode set under one noise seed.
	cells := make([][]E12Cell, len(opts.SNRs))
	err := forEachTrial(len(opts.SNRs), func(pi int) error {
		seed := opts.Seed + 7919*uint64(pi+1)
		_, ref := runCell(-1, func(si int) *semantic.Codec { return refCodecs[si] }, opts.SNRs[pi], seed, nil)
		row := make([]E12Cell, len(opts.Tiers))
		for ti := range opts.Tiers {
			row[ti], _ = runCell(ti, func(si int) *semantic.Codec { return sets[si].codecs[ti] }, opts.SNRs[pi], seed, ref)
		}
		cells[pi] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ti := range opts.Tiers {
		for pi := range opts.SNRs {
			res.Cells = append(res.Cells, cells[pi][ti])
		}
	}

	// Compute column: batched encode+decode kernels over one token stream
	// (the kernels themselves, not the token table serving reads), best of
	// five rounds after a warm-up, run serially so tiers do not contend.
	var words []string
	for len(words) < opts.TimingTokens {
		words = append(words, gen.Message(sets[0].domain.Index, nil).Words...)
	}
	words = words[:opts.TimingTokens]
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	concepts := make([]int, len(words))
	var refNs float64
	for ti, tier := range opts.Tiers {
		codec := sets[0].codecs[ti]
		run := func() {
			sc.Reset()
			codec.DecodeFeaturesKernel(sc, codec.EncodeWordsKernel(sc, words), concepts)
		}
		run() // warm-up: builds tier shadows, fills scratch arenas
		best := time.Duration(1<<63 - 1)
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			run()
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		t := E12Timing{Tier: tier, NsPerToken: float64(best.Nanoseconds()) / float64(len(words))}
		if tier == semantic.TierF64 {
			refNs = t.NsPerToken
		}
		res.Timings = append(res.Timings, t)
	}
	for i := range res.Timings {
		if refNs > 0 {
			res.Timings[i].Speedup = refNs / res.Timings[i].NsPerToken
		}
	}
	return res, nil
}

// TableH renders the accuracy grid: one row per (tier, SNR) cell.
func (r *E12Result) TableH() *metrics.Table {
	t := metrics.NewTable("Table H: kernel-tier accuracy vs SNR (AWGN, 3-bit wire)",
		"tier", "snr_db", "concept_acc", "mismatch_delta")
	for _, c := range r.Cells {
		t.AddRow(c.Tier.String(), metrics.F(c.SNRdB, 0), metrics.F(c.ConceptAcc, 4), metrics.F(c.MismatchDelta, 4))
	}
	return t
}

// TableH2 renders the per-tier compute column.
func (r *E12Result) TableH2() *metrics.Table {
	t := metrics.NewTable("Table H': kernel-tier codec compute (encode+decode, channel excluded)",
		"tier", "ns_per_token", "speedup_vs_f64")
	for _, tm := range r.Timings {
		t.AddRow(tm.Tier.String(), metrics.F(tm.NsPerToken, 0), metrics.F(tm.Speedup, 2)+"x")
	}
	return t
}
