// Package fl implements the paper's update process (§II-C, §II-D): the
// sender edge records communication transactions in per-domain buffers,
// computes semantic mismatch locally using its decoder copy, fine-tunes the
// user-specific individual model once enough data accumulates, and ships
// only the decoder update to the receiver edge — the federated-learning-
// style synchronization step.
//
// It also implements the anti-pattern the decoder copy exists to avoid:
// returning the receiver's decoded output to the sender per message. Both
// paths are metered so experiment E4 can compare their traffic.
package fl

import (
	"errors"
	"fmt"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/semantic"
)

// Transaction is one communication recorded in a domain buffer: the
// transmitted surfaces, the KB ground-truth concepts, and what the decoder
// copy produced.
type Transaction struct {
	SurfaceIDs []int
	ConceptIDs []int
	Decoded    []int
}

// Mismatch returns the fraction of positions where the decoder copy
// disagreed with the KB concepts — the paper's semantic mismatch signal.
func (t Transaction) Mismatch() float64 {
	if len(t.ConceptIDs) == 0 {
		return 0
	}
	bad := 0
	for i, want := range t.ConceptIDs {
		if i >= len(t.Decoded) || t.Decoded[i] != want {
			bad++
		}
	}
	return float64(bad) / float64(len(t.ConceptIDs))
}

// OutputReturnBytes is the feedback traffic the transaction would cost if
// the receiver had to send its decoded output back to the sender (the
// design rejected in §II-C): one byte per character of each decoded word
// plus a separator.
func (t Transaction) OutputReturnBytes(words []string) int {
	n := 0
	for _, w := range words {
		n += len(w) + 1
	}
	return n
}

// Buffer is the per-(user, domain) transaction store b_m of Fig. 1 step 3.
// It is not safe for concurrent use; the edge server serializes access.
type Buffer struct {
	// Domain and User identify the individual model the buffer feeds.
	Domain string
	User   string
	// Threshold is the transaction count that triggers an update.
	Threshold int

	txs []Transaction
}

// NewBuffer returns an empty buffer with the given update threshold.
func NewBuffer(domain, user string, threshold int) *Buffer {
	if threshold <= 0 {
		threshold = 32
	}
	return &Buffer{Domain: domain, User: user, Threshold: threshold}
}

// Add appends a transaction.
func (b *Buffer) Add(tx Transaction) { b.txs = append(b.txs, tx) }

// Len returns the number of buffered transactions.
func (b *Buffer) Len() int { return len(b.txs) }

// Ready reports whether enough data has accumulated to trigger an update.
func (b *Buffer) Ready() bool { return len(b.txs) >= b.Threshold }

// Reset clears the buffer after an update.
func (b *Buffer) Reset() { b.txs = b.txs[:0] }

// MeanMismatch returns the average transaction mismatch, or 0 when empty.
func (b *Buffer) MeanMismatch() float64 {
	if len(b.txs) == 0 {
		return 0
	}
	total := 0.0
	for _, tx := range b.txs {
		total += tx.Mismatch()
	}
	return total / float64(len(b.txs))
}

// Examples flattens the buffered transactions into training pairs.
// Out-of-domain tokens (concept -1, e.g. after a wrong model selection)
// carry no supervision signal and are skipped.
func (b *Buffer) Examples() []semantic.Example {
	out := make([]semantic.Example, 0, 8*len(b.txs))
	for _, tx := range b.txs {
		for i, sid := range tx.SurfaceIDs {
			if tx.ConceptIDs[i] < 0 {
				continue
			}
			out = append(out, semantic.Example{SurfaceID: sid, ConceptID: tx.ConceptIDs[i]})
		}
	}
	return out
}

// Transactions returns a copy of the buffered transactions.
func (b *Buffer) Transactions() []Transaction {
	out := make([]Transaction, len(b.txs))
	copy(out, b.txs)
	return out
}

// UpdateConfig controls one individual-model update.
type UpdateConfig struct {
	// Epochs is the number of fine-tuning passes over the buffer.
	Epochs int
	// LR is the fine-tuning learning rate; 0 selects the codec default.
	LR float64
	// Compress selects the lossy encoding of the decoder delta.
	Compress nn.CompressOptions
	// Seed drives fine-tuning randomness.
	Seed uint64
}

// UpdateStats meters one update for the experiment tables.
type UpdateStats struct {
	// BufferSize is the number of transactions consumed.
	BufferSize int
	// PreAccuracy and PostAccuracy are buffer-set reconstruction
	// accuracies before and after fine-tuning, measured on the sender.
	PreAccuracy  float64
	PostAccuracy float64
	// PayloadBytes is the wire size of the compressed decoder update.
	PayloadBytes int
	// DenseBytes is what the uncompressed decoder delta would cost.
	DenseBytes int
}

// Update is a decoder synchronization message from sender to receiver edge.
type Update struct {
	Domain  string
	User    string
	Version int
	Payload []byte
	Stats   UpdateStats
}

// errEmptyBuffer reports an update attempt with no data.
var errEmptyBuffer = errors.New("fl: update with empty buffer")

// RunUpdate executes Fig. 1 steps 3-4 on the sender edge: fine-tune the
// user's individual codec on the buffered transactions, extract the decoder
// delta, and package it (optionally compressed) for the receiver. The
// buffer is not reset; callers reset it after a successful send.
func RunUpdate(codec *semantic.Codec, buf *Buffer, version int, cfg UpdateConfig) (*Update, error) {
	if buf.Len() == 0 {
		return nil, errEmptyBuffer
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	examples := buf.Examples()
	pre := codec.Evaluate(examples)

	before := codec.DecoderParams().Clone()
	codec.FineTune(examples, cfg.Epochs, cfg.LR, mat.NewRNG(cfg.Seed))
	post := codec.Evaluate(examples)

	delta := codec.DecoderParams().Clone()
	delta.AddScaled(-1, before)
	dense := nn.Compress(delta, nn.CompressOptions{})
	compressed := nn.Compress(delta, cfg.Compress)
	payload := compressed.Encode()

	return &Update{
		Domain:  buf.Domain,
		User:    buf.User,
		Version: version + 1,
		Payload: payload,
		Stats: UpdateStats{
			BufferSize:   buf.Len(),
			PreAccuracy:  pre,
			PostAccuracy: post,
			PayloadBytes: len(payload),
			DenseBytes:   dense.SizeBytes(),
		},
	}, nil
}

// ApplyUpdate applies a received decoder update to the receiver's copy of
// the user's individual codec.
func ApplyUpdate(codec *semantic.Codec, upd *Update) error {
	cg, err := nn.DecodeCompressed(upd.Payload)
	if err != nil {
		return fmt.Errorf("fl: decode update payload: %w", err)
	}
	err = codec.WriteWeights(func() error { return cg.ApplyTo(codec.DecoderParams(), 1) })
	if err != nil {
		return fmt.Errorf("fl: apply update: %w", err)
	}
	return nil
}

// CrossEvaluate measures end-to-end reconstruction accuracy when the
// sender's encoder feeds the receiver's decoder — the metric that exposes
// decoder-copy staleness and lossy-sync error.
func CrossEvaluate(sender, receiver *semantic.Codec, examples []semantic.Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	feat := make([]float64, sender.FeatureDim())
	correct := 0
	for _, ex := range examples {
		sender.EncodeSurfaceID(ex.SurfaceID, feat)
		if receiver.DecodeFeature(feat) == ex.ConceptID {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}
