package semantic

import (
	"math"
	"sync/atomic"

	"repro/internal/mat"
)

// The codec has no context: a token's features depend only on the weights
// and its surface ID, and a decoded concept depends only on its feature row.
// A domain has about a hundred surfaces, so serving reads both from a
// per-codec token table instead of re-running the same GEMMs per message:
//
//   - the encoder row of every surface ID (the unknown surface included),
//     which EncodeWordsInto and EncodeBatchInto copy out;
//   - a decode memo keyed on the exact bits of a feature row. Its keys are
//     fixed when the table is built: every surface row (whose decode is the
//     decoder-copy round trip) and, when the codec has a feature image,
//     that row's image (what a receiver gets when the link flips no bit).
//     DecodeFeaturesInto answers a row from the memo only when the memo
//     holds that row bit for bit; every other row runs the tier kernel.
//
// Building a table costs one batched encode of the vocabulary. A key's
// decode is filled in the first time a request needs it, by the same
// batched kernel pass that serves that request, so no request pays for
// decodes it does not use: the first request after a weight write (an
// update or a handover import) costs what it cost without the table.
//
// Every entry is computed by the codec's own tier kernels, so by the
// kernels' row-independence contract it equals a solo kernel call on that
// row: serving output is bit-identical with or without the table, at every
// tier. The keys and rows never change after the build, and the memo holds
// 2 x vocab keys at most: it never grows from the rows it is asked about.

// tokenTable is one codec's derived serving table for one weight
// generation and tier.
type tokenTable struct {
	gen  uint64
	tier Tier
	dim  int // FeatureDim
	// rows holds the memo keys, dim values each: rows [0, vocab) are the
	// surface encoder rows, indexed by surface ID; any further rows are
	// their feature images.
	rows []float64
	// concept[k] is the tier kernel's decode of key k plus one, or 0 until
	// a request first needs it. Concurrent fillers store the same value.
	concept []atomic.Int32
	// slots is an open-addressing index over the keys: 0 marks an empty
	// slot, k > 0 names key k-1. Its length is a power of two, at least
	// twice the key count.
	slots []int32
	mask  uint64
}

// surface returns the encoder row of surface id.
func (t *tokenTable) surface(id int) []float64 {
	return t.rows[id*t.dim : (id+1)*t.dim]
}

// key returns the index of the key holding exactly row's bits, or -1.
func (t *tokenTable) key(row []float64) int {
	for i := hashRow(row) & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		k := int(s - 1)
		if sameBits(t.rows[k*t.dim:(k+1)*t.dim], row) {
			return k
		}
	}
}

// index fills slots with every distinct key row; a row equal to an
// earlier one (an image that landed on another key) is left out, since
// its decode is the same.
func (t *tokenTable) index() {
	n := len(t.concept)
	size := 1
	for size < 2*n {
		size <<= 1
	}
	t.slots = make([]int32, size)
	t.mask = uint64(size - 1)
	for k := 0; k < n; k++ {
		row := t.rows[k*t.dim : (k+1)*t.dim]
		if t.key(row) >= 0 {
			continue
		}
		i := hashRow(row) & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = int32(k + 1)
	}
}

// hashRow mixes the bits of a feature row into a slot hash.
func hashRow(row []float64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range row {
		h = (h ^ math.Float64bits(v)) * 0xbf58476d1ce4e5b9
	}
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	return h ^ h>>29
}

// sameBits reports whether a and b hold the same float64 bit patterns.
// Bit equality, not ==, decides a hit: -0 and +0 or two NaNs are distinct
// keys, so a hit is always the exact row the entry was computed from.
func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// tokens returns the codec's token table for its current weights and
// tier, building it on first use or after anything it derives from
// changed. Concurrent callers may race to build; the builds are
// identical and one is kept.
func (c *Codec) tokens() *tokenTable {
	cur := c.table.Load()
	if cur != nil && cur.gen == c.gen.Load() && cur.tier == c.cfg.Tier {
		return cur
	}
	t := c.buildTable()
	c.table.CompareAndSwap(cur, t)
	return t
}

// buildTable computes a token table from the current weights with the
// tier's encoder kernel: one batched encode of every surface ID, plus the
// feature image of each row. Decodes are filled in on demand.
func (c *Codec) buildTable() *tokenTable {
	// The generation is read before the weights, so a table can only be
	// tagged older than the weights it was built from, never newer.
	gen := c.gen.Load()
	vocab, dim := c.emb.Vocab(), c.cfg.FeatureDim
	n := vocab
	if c.image != nil {
		n = 2 * vocab
	}
	t := &tokenTable{
		gen:     gen,
		tier:    c.cfg.Tier,
		dim:     dim,
		rows:    make([]float64, n*dim),
		concept: make([]atomic.Int32, n),
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	ids := sc.Ints(vocab)
	for i := range ids {
		ids[i] = i
	}
	c.encodeKernel(sc, sc.Wrap(vocab, dim, t.rows[:vocab*dim]), ids)
	if c.image != nil {
		for id := 0; id < vocab; id++ {
			c.image(t.rows[(vocab+id)*dim:(vocab+id+1)*dim], t.surface(id))
		}
	}
	t.index()
	return t
}

// surfaceID returns the table row of word: its surface ID, with words
// outside the lexicon mapped to the unknown surface.
func (c *Codec) surfaceID(word string) int {
	return c.clampID(c.domain.SurfaceID(word))
}

// decodeFromTable decodes feats into dst. A row whose key already has
// its decode is answered from the memo; the rest run through the tier
// kernel in one batched pass, and the decodes of rows that are keys are
// stored for later requests.
func (c *Codec) decodeFromTable(sc *mat.Scratch, t *tokenTable, feats *mat.Dense, dst []int) {
	keys := sc.Ints(feats.Rows)
	miss := sc.Ints(feats.Rows)
	m := 0
	for i := 0; i < feats.Rows; i++ {
		k := t.key(feats.Row(i))
		keys[i] = k
		if k >= 0 {
			if v := t.concept[k].Load(); v != 0 {
				dst[i] = int(v - 1)
				continue
			}
		}
		miss[m] = i
		m++
	}
	if m == 0 {
		return
	}
	if m == feats.Rows {
		c.decodeKernel(sc, feats, dst)
	} else {
		x := sc.Mat(m, feats.Cols)
		for j, i := range miss[:m] {
			copy(x.Row(j), feats.Row(i))
		}
		out := sc.Ints(m)
		c.decodeKernel(sc, x, out)
		for j, i := range miss[:m] {
			dst[i] = out[j]
		}
	}
	for _, i := range miss[:m] {
		if k := keys[i]; k >= 0 {
			t.concept[k].Store(int32(dst[i] + 1))
		}
	}
}
