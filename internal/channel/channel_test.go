package channel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func randomBits(rng *mat.RNG, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Float64() < 0.5
	}
	return out
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := mat.NewRNG(1)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 100} {
		bits := randomBits(rng, n)
		got := UnpackBits(PackBits(bits), n)
		if BitErrors(bits, got) != 0 {
			t.Fatalf("pack/unpack round trip failed for n=%d", n)
		}
	}
}

func TestUnpackPanicsOnOverrun(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UnpackBits([]byte{0xff}, 9)
}

func TestBitErrors(t *testing.T) {
	a := []bool{true, false, true}
	b := []bool{true, true, true}
	if BitErrors(a, b) != 1 {
		t.Fatal("BitErrors miscounted")
	}
	if BitErrors(a, a[:2]) != 1 {
		t.Fatal("length difference should count as errors")
	}
	if BitErrors(nil, nil) != 0 {
		t.Fatal("empty comparison should be 0")
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	bits := BytesToBits([]byte("123456789"))
	if got := CRC16(bits); got != 0x29B1 {
		t.Fatalf("CRC16 = %#x, want 0x29B1", got)
	}
}

func TestCRCDetectsChange(t *testing.T) {
	rng := mat.NewRNG(2)
	bits := randomBits(rng, 128)
	orig := CRC16(bits)
	bits[17] = !bits[17]
	if CRC16(bits) == orig {
		t.Fatal("single bit flip not detected")
	}
}

func TestQuantizerRoundTripError(t *testing.T) {
	q := Quantizer{Bits: 6, Lo: -1, Hi: 1}
	rng := mat.NewRNG(3)
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 2*rng.Float64() - 1
	}
	got := q.Decode(q.Encode(vals))
	if len(got) != len(vals) {
		t.Fatalf("decode length %d, want %d", len(got), len(vals))
	}
	for i := range vals {
		if math.Abs(got[i]-vals[i]) > q.StepSize() {
			t.Fatalf("quantization error %v exceeds step %v", math.Abs(got[i]-vals[i]), q.StepSize())
		}
	}
}

func TestQuantizerClamps(t *testing.T) {
	q := Quantizer{Bits: 4, Lo: -1, Hi: 1}
	got := q.Decode(q.Encode([]float64{-5, 5}))
	if got[0] != -1 || got[1] != 1 {
		t.Fatalf("clamp failed: %v", got)
	}
}

func TestQuantizerBitsBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Bits=0")
		}
	}()
	Quantizer{Bits: 0, Lo: 0, Hi: 1}.Encode([]float64{0.5})
}

func TestCodesRoundTripClean(t *testing.T) {
	rng := mat.NewRNG(4)
	for _, code := range []Code{Identity{}, Repetition{N: 3}, Repetition{N: 5}, Hamming74{}} {
		bits := randomBits(rng, 64)
		decoded := code.Decode(code.Encode(bits))
		if len(decoded) < len(bits) {
			t.Fatalf("%s: decoded shorter than input", code.Name())
		}
		if BitErrors(bits, decoded[:len(bits)]) != 0 {
			t.Fatalf("%s: clean round trip corrupted bits", code.Name())
		}
		if r := code.Rate(); r <= 0 || r > 1 {
			t.Fatalf("%s: rate %v out of (0,1]", code.Name(), r)
		}
	}
}

func TestHamming74CorrectsSingleErrors(t *testing.T) {
	rng := mat.NewRNG(5)
	code := Hamming74{}
	bits := randomBits(rng, 64)
	coded := code.Encode(bits)
	// Flip exactly one bit in every 7-bit block.
	for blk := 0; blk*7 < len(coded); blk++ {
		pos := blk*7 + rng.Intn(7)
		coded[pos] = !coded[pos]
	}
	decoded := code.Decode(coded)
	if BitErrors(bits, decoded[:len(bits)]) != 0 {
		t.Fatal("Hamming74 failed to correct single errors per block")
	}
}

func TestRepetitionCorrectsMinorityErrors(t *testing.T) {
	code := Repetition{N: 3}
	bits := []bool{true, false, true, true}
	coded := code.Encode(bits)
	coded[0] = !coded[0] // one of three copies
	coded[5] = !coded[5]
	decoded := code.Decode(coded)
	if BitErrors(bits, decoded) != 0 {
		t.Fatal("rep3 failed to correct single flips")
	}
}

func TestModulationsRoundTripClean(t *testing.T) {
	rng := mat.NewRNG(6)
	for _, mod := range []Modulation{BPSK{}, QPSK{}, QAM16{}} {
		n := 4 * 12 // multiple of every BitsPerSymbol
		bits := randomBits(rng, n)
		rx := mod.Demodulate(mod.Modulate(bits))
		if BitErrors(bits, rx[:n]) != 0 {
			t.Fatalf("%s: clean demodulation corrupted bits", mod.Name())
		}
	}
}

func TestModulationUnitEnergy(t *testing.T) {
	rng := mat.NewRNG(7)
	for _, mod := range []Modulation{BPSK{}, QPSK{}, QAM16{}} {
		bits := randomBits(rng, 4*256)
		symbols := mod.Modulate(bits)
		e := 0.0
		for _, s := range symbols {
			e += real(s)*real(s) + imag(s)*imag(s)
		}
		e /= float64(len(symbols))
		if math.Abs(e-1) > 0.1 {
			t.Fatalf("%s: mean symbol energy %v, want ~1", mod.Name(), e)
		}
	}
}

func TestAWGNBERDecreasesWithSNR(t *testing.T) {
	rng := mat.NewRNG(8)
	mod := BPSK{}
	bits := randomBits(rng, 20000)
	ber := func(snr float64) float64 {
		ch := &AWGN{SNRdB: snr, Rng: rng.Split()}
		rx := mod.Demodulate(ch.Transmit(mod.Modulate(bits)))
		return float64(BitErrors(bits, rx)) / float64(len(bits))
	}
	low := ber(-2)
	mid := ber(4)
	high := ber(10)
	if !(low > mid && mid > high) {
		t.Fatalf("BER not monotone with SNR: %v %v %v", low, mid, high)
	}
	if high > 1e-3 {
		t.Fatalf("BER at 10 dB BPSK = %v, want < 1e-3", high)
	}
	if low < 0.01 {
		t.Fatalf("BER at -2 dB BPSK = %v, suspiciously low", low)
	}
}

func TestAWGNTheoreticalBER(t *testing.T) {
	// BPSK over AWGN: Pb = Q(sqrt(2*SNR)). At 6 dB, Pb ~ 2.4e-3.
	rng := mat.NewRNG(9)
	bits := randomBits(rng, 200000)
	ch := &AWGN{SNRdB: 6, Rng: rng.Split()}
	mod := BPSK{}
	rx := mod.Demodulate(ch.Transmit(mod.Modulate(bits)))
	got := float64(BitErrors(bits, rx)) / float64(len(bits))
	want := 0.5 * math.Erfc(math.Sqrt(math.Pow(10, 0.6)))
	if got < want/2 || got > want*2 {
		t.Fatalf("BPSK BER at 6 dB = %v, theory %v", got, want)
	}
}

func TestRayleighWorseThanAWGN(t *testing.T) {
	rng := mat.NewRNG(10)
	bits := randomBits(rng, 30000)
	mod := BPSK{}
	awgn := &AWGN{SNRdB: 8, Rng: rng.Split()}
	ray := &Rayleigh{SNRdB: 8, Rng: rng.Split()}
	berA := float64(BitErrors(bits, mod.Demodulate(awgn.Transmit(mod.Modulate(bits))))) / float64(len(bits))
	berR := float64(BitErrors(bits, mod.Demodulate(ray.Transmit(mod.Modulate(bits))))) / float64(len(bits))
	if berR <= berA {
		t.Fatalf("Rayleigh BER %v should exceed AWGN BER %v at equal SNR", berR, berA)
	}
}

func TestErasureRate(t *testing.T) {
	rng := mat.NewRNG(11)
	ch := &Erasure{P: 0.2, Rng: rng.Split()}
	symbols := make([]complex128, 10000)
	for i := range symbols {
		symbols[i] = complex(1, 0)
	}
	rx := ch.Transmit(symbols)
	erased := 0
	for _, s := range rx {
		if s == 0 {
			erased++
		}
	}
	frac := float64(erased) / float64(len(rx))
	if math.Abs(frac-0.2) > 0.03 {
		t.Fatalf("erasure fraction %v, want ~0.2", frac)
	}
}

func TestCleanChannelIdentity(t *testing.T) {
	in := []complex128{1, complex(0, 1), complex(-0.5, 0.5)}
	out := Clean{}.Transmit(in)
	for i := range in {
		if in[i] != out[i] {
			t.Fatal("clean channel altered symbols")
		}
	}
	// Must be a copy, not an alias.
	out[0] = 99
	if in[0] == 99 {
		t.Fatal("clean channel aliased input")
	}
}

func TestFeatureLinkCleanRoundTrip(t *testing.T) {
	link := DefaultFeatureLink(Clean{})
	feats := [][]float64{{0.5, -0.5, 0.25, -0.25}, {0.1, 0.9, -0.9, 0}}
	rx, stats := link.Send(feats, 4)
	if len(rx) != 2 {
		t.Fatalf("rx count = %d", len(rx))
	}
	for i := range feats {
		for j := range feats[i] {
			if math.Abs(rx[i][j]-feats[i][j]) > link.Quant.StepSize() {
				t.Fatalf("clean link error beyond quantization at [%d][%d]", i, j)
			}
		}
	}
	if stats.InfoBits != 2*4*3 {
		t.Fatalf("InfoBits = %d, want 24 (2 tokens x 4 dims x 3 bits)", stats.InfoBits)
	}
	if stats.CodedBits <= stats.InfoBits {
		t.Fatal("Hamming coding should expand the stream")
	}
	if stats.PayloadBytes() != 3 {
		t.Fatalf("PayloadBytes = %d, want 3", stats.PayloadBytes())
	}
}

// TestQuantizerRoundTripIsFlipFreeImage pins the contract the codecs'
// token tables rely on: Quantizer.RoundTrip yields, bit for bit, what a
// FeatureLink delivers when no bit flips — for every stock code and
// modulation, in range, clamped, and at the grid's edges.
func TestQuantizerRoundTripIsFlipFreeImage(t *testing.T) {
	rng := mat.NewRNG(13)
	vals := make([]float64, 120)
	for i := range vals {
		vals[i] = 2.4*rng.Float64() - 1.2
	}
	vals = append(vals, -1, 1, 0, math.Nextafter(1, 0), math.Copysign(0, -1))
	for _, bits := range []int{1, 3, 6, 16} {
		q := Quantizer{Bits: bits, Lo: -1, Hi: 1}
		want := make([]float64, len(vals))
		q.DecodeInto(want, q.EncodeTo(nil, vals))
		got := make([]float64, len(vals))
		q.RoundTrip(got, vals)
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("bits=%d value %v: RoundTrip %v, bit stream %v", bits, vals[i], got[i], want[i])
			}
		}
		for _, code := range []Code{Hamming74{}, Repetition{N: 3}, Identity{}} {
			for _, mod := range []Modulation{BPSK{}, QPSK{}, QAM16{}} {
				link := FeatureLink{Quant: q, Code: code, Mod: mod, Ch: Clean{}}
				rx := make([]float64, len(vals))
				link.SendFlat(rx, vals)
				for i := range vals {
					if math.Float64bits(rx[i]) != math.Float64bits(got[i]) {
						t.Fatalf("bits=%d %s/%T: clean link delivered %v, RoundTrip %v", bits, code.Name(), mod, rx[i], got[i])
					}
				}
			}
		}
	}
}

func TestFeatureLinkNoisePerturbsGracefully(t *testing.T) {
	rng := mat.NewRNG(12)
	link := DefaultFeatureLink(&AWGN{SNRdB: 0, Rng: rng.Split()})
	feats := [][]float64{{0.5, -0.5, 0.25, -0.25}}
	rx, _ := link.Send(feats, 4)
	// Values stay within the quantizer range even under noise.
	for _, v := range rx[0] {
		if v < -1 || v > 1 {
			t.Fatalf("received feature %v outside quantizer range", v)
		}
	}
}

func TestAnalogLinkCleanIsExact(t *testing.T) {
	link := AnalogLink{Ch: Clean{}}
	feats := [][]float64{{0.3, -0.7}, {0.1, 0.2}}
	rx, stats := link.Send(feats, 2)
	for i := range feats {
		for j := range feats[i] {
			if rx[i][j] != feats[i][j] {
				t.Fatal("analog clean transport should be exact")
			}
		}
	}
	if stats.Symbols != 2 {
		t.Fatalf("symbols = %d, want 2 (two dims per symbol)", stats.Symbols)
	}
}

// Property: Hamming(7,4) corrects any single-bit error in any block for
// arbitrary payloads.
func TestHammingQuick(t *testing.T) {
	f := func(seed uint64, flipPos uint8) bool {
		rng := mat.NewRNG(seed)
		bits := randomBits(rng, 32)
		code := Hamming74{}
		coded := code.Encode(bits)
		pos := int(flipPos) % len(coded)
		coded[pos] = !coded[pos]
		decoded := code.Decode(coded)
		return BitErrors(bits, decoded[:len(bits)]) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantizer round-trip error never exceeds one step.
func TestQuantizerQuick(t *testing.T) {
	f := func(seed uint64, bitsRaw uint8) bool {
		bits := int(bitsRaw%8) + 1
		q := Quantizer{Bits: bits, Lo: -1, Hi: 1}
		rng := mat.NewRNG(seed)
		vals := make([]float64, 32)
		for i := range vals {
			vals[i] = 2*rng.Float64() - 1
		}
		got := q.Decode(q.Encode(vals))
		for i := range vals {
			if math.Abs(got[i]-vals[i]) > q.StepSize() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
