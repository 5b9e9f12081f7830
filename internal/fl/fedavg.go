package fl

import (
	"errors"
	"math"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/semantic"
)

// newRNG is a seam for deterministic seeding in tests.
func newRNG(seed uint64) *mat.RNG { return mat.NewRNG(seed) }

// This file implements the federated-learning extension the paper points
// at via its FL reference and §III research directions: periodically
// aggregating many users' individual-model improvements back into the
// domain-general model (FedAvg), so new users cold-start from a model that
// already knows the population's rare vocabulary. The base system keeps
// general models immutable (§II-D); this is the explicit relaxation.

// CodecDelta returns the full parameter delta after - before. The codecs
// must share shapes (clones of a common ancestor).
func CodecDelta(after, before *semantic.Codec) *nn.ParamSet {
	delta := after.Params().Clone()
	delta.AddScaled(-1, before.Params())
	return delta
}

// errNoDeltas reports an aggregation call with no inputs.
var errNoDeltas = errors.New("fl: no deltas to aggregate")

// ApplyAverageDelta applies the FedAvg aggregate (the element-wise mean of
// deltas, scaled by scale) to codec's parameters in place. A scale of 1
// is classic FedAvg; smaller values damp the global step.
func ApplyAverageDelta(codec *semantic.Codec, deltas []*nn.ParamSet, scale float64) error {
	if len(deltas) == 0 {
		return errNoDeltas
	}
	target := codec.Params()
	for _, d := range deltas {
		if len(d.Params) != len(target.Params) {
			return errors.New("fl: delta shape mismatch")
		}
	}
	factor := scale / float64(len(deltas))
	return codec.WriteWeights(func() error {
		for _, d := range deltas {
			target.AddScaled(factor, d)
		}
		return nil
	})
}

// DPConfig enables differentially private aggregation (the §III-C
// privacy direction): every donor delta is clipped to a global L2 norm
// and Gaussian noise proportional to that sensitivity is added before
// averaging, so no single user's update is identifiable in the aggregate.
type DPConfig struct {
	// ClipNorm bounds each donor delta's L2 norm; <= 0 disables DP.
	ClipNorm float64
	// NoiseMultiplier sets the noise standard deviation as a multiple of
	// ClipNorm (sigma = NoiseMultiplier * ClipNorm), applied per
	// aggregated coordinate after averaging.
	NoiseMultiplier float64
}

// Enabled reports whether DP processing is active.
func (c DPConfig) Enabled() bool { return c.ClipNorm > 0 }

// FederatedConfig parameterizes RunFederated.
type FederatedConfig struct {
	// Rounds of donor fine-tuning + aggregation (default 5).
	Rounds int
	// LocalEpochs per donor per round (default 2).
	LocalEpochs int
	// LR for donor fine-tuning; 0 selects the codec default.
	LR float64
	// Scale damps the aggregated step (default 1 = classic FedAvg).
	Scale float64
	// DP optionally makes the aggregation differentially private.
	DP DPConfig
	// Seed drives fine-tuning and DP noise (default 1).
	Seed uint64
}

func (c FederatedConfig) withDefaults() FederatedConfig {
	if c.Rounds == 0 {
		c.Rounds = 5
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 2
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RunFederated improves a general codec by FedAvg over per-donor example
// sets: each round, every donor fine-tunes a clone of the current global
// model on its local data, and the mean delta is folded back. It returns
// the improved codec, leaving the input untouched.
func RunFederated(general *semantic.Codec, donorData [][]semantic.Example, cfg FederatedConfig) (*semantic.Codec, error) {
	if len(donorData) == 0 {
		return nil, errNoDeltas
	}
	cfg = cfg.withDefaults()
	global := general.Clone()
	noiseRNG := newRNG(cfg.Seed ^ 0xd9)
	for round := 0; round < cfg.Rounds; round++ {
		deltas := make([]*nn.ParamSet, 0, len(donorData))
		for di, examples := range donorData {
			if len(examples) == 0 {
				continue
			}
			local := global.Clone()
			seed := cfg.Seed + uint64(round*1009+di*31+1)
			local.FineTune(examples, cfg.LocalEpochs, cfg.LR, newRNG(seed))
			delta := CodecDelta(local, global)
			if cfg.DP.Enabled() {
				clipToNorm(delta, cfg.DP.ClipNorm)
			}
			deltas = append(deltas, delta)
		}
		if err := ApplyAverageDelta(global, deltas, cfg.Scale); err != nil {
			return nil, err
		}
		if cfg.DP.Enabled() && cfg.DP.NoiseMultiplier > 0 {
			// Gaussian mechanism: per-coordinate noise scaled to the
			// clipped per-donor sensitivity divided by the donor count.
			sigma := cfg.DP.NoiseMultiplier * cfg.DP.ClipNorm / float64(len(deltas))
			_ = global.WriteWeights(func() error { // the write cannot fail
				addGaussianNoise(global.Params(), sigma, noiseRNG)
				return nil
			})
		}
	}
	return global, nil
}

// clipToNorm rescales ps so its global L2 norm is at most clip.
func clipToNorm(ps *nn.ParamSet, clip float64) {
	sq := 0.0
	for _, p := range ps.Params {
		for _, v := range p.M.Data {
			sq += v * v
		}
	}
	norm := sqrt(sq)
	if norm <= clip || norm == 0 {
		return
	}
	scale := clip / norm
	for _, p := range ps.Params {
		mat.Scale(p.M.Data, scale)
	}
}

// addGaussianNoise perturbs every parameter coordinate with N(0, sigma^2).
func addGaussianNoise(ps *nn.ParamSet, sigma float64, rng *mat.RNG) {
	if sigma <= 0 {
		return
	}
	for _, p := range ps.Params {
		for i := range p.M.Data {
			p.M.Data[i] += sigma * rng.NormFloat64()
		}
	}
}

// sqrt is a local alias keeping the math import localized.
func sqrt(v float64) float64 { return math.Sqrt(v) }
