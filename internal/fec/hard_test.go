package fec

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

// hardInput generators for TestDecodeHardMatchesSoftAndOracle. Each
// returns steps trellis steps (2·steps correlation values in
// {−1, 0, 1}).
var hardInputs = []struct {
	name string
	gen  func(r *rand.Rand, steps int) []int8
}{
	{"noise", func(r *rand.Rand, steps int) []int8 {
		vals := make([]int8, 2*steps)
		for i := range vals {
			vals[i] = int8(2*r.Intn(2) - 1)
		}
		return vals
	}},
	{"clean", func(r *rand.Rand, steps int) []int8 {
		return toHard(ConvEncode(randomBits(r, steps-(ConstraintLength-1))), 0, r)
	}},
	{"noisy", func(r *rand.Rand, steps int) []int8 {
		return toHard(ConvEncode(randomBits(r, steps-(ConstraintLength-1))), 8, r)
	}},
	{"rate-2/3", func(r *rand.Rand, steps int) []int8 { return punctured(r, steps, Rate23) }},
	{"rate-3/4", func(r *rand.Rand, steps int) []int8 { return punctured(r, steps, Rate34) }},
	{"erasures", func(r *rand.Rand, steps int) []int8 {
		vals := make([]int8, 2*steps)
		for i := range vals {
			if r.Intn(4) != 0 {
				vals[i] = int8(2*r.Intn(2) - 1)
			}
		}
		return vals
	}},
	{"all-erased", func(r *rand.Rand, steps int) []int8 { return make([]int8, 2*steps) }},
	// Runs of a constant received pair hold the all-zero (or all-one)
	// path at +2 per step while the states it leaves fall away: the
	// largest live-metric spread a search over inputs found (22 of the
	// proven bound of 24). Switching runs moves the extremes between
	// states.
	{"max-spread", func(r *rand.Rand, steps int) []int8 {
		vals := make([]int8, 2*steps)
		v := int8(-1)
		for t := 0; t < steps; t++ {
			if r.Intn(12) == 0 {
				v = -v
			}
			vals[2*t], vals[2*t+1] = v, v
		}
		return vals
	}},
}

func randomBits(r *rand.Rand, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	return bits
}

// toHard maps coded bits to ±1 correlation values, flipping about one
// in flipEvery of them when flipEvery > 0.
func toHard(coded []byte, flipEvery int, r *rand.Rand) []int8 {
	vals := make([]int8, len(coded))
	for i, b := range coded {
		if flipEvery > 0 && r.Intn(flipEvery) == 0 {
			b ^= 1
		}
		vals[i] = int8(2*int(b) - 1)
	}
	return vals
}

// punctured is a clean codeword sent at rate rt and depunctured back to
// the mother code: ±1 where a bit was sent, 0 where it was punctured.
func punctured(r *rand.Rand, steps int, rt Rate) []int8 {
	coded := ConvEncode(randomBits(r, steps-(ConstraintLength-1)))
	sent := toHard(Puncture(coded, rt), 0, r)
	return DepunctureHardInto(make([]int8, len(coded)), sent, rt, len(coded))
}

// hardLengths covers every length up to 64 steps (all phases of the
// 6-step rotation, with and without a renormalization tail) and then
// strides to 1000.
func hardLengths() []int {
	var ls []int
	for s := ConstraintLength - 1; s <= 64; s++ {
		ls = append(ls, s)
	}
	for s := 101; s < 1000; s += 37 {
		ls = append(ls, s)
	}
	return append(ls, 1000)
}

// TestDecodeHardMatchesSoftAndOracle pins the contract DecodeHardMetric
// documents: on every {−1, 0, 1} input it returns the same bits and
// metric as the float path fed the same values, and as the scalar
// recursion it replaced.
func TestDecodeHardMatchesSoftAndOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var hard, soft ViterbiWorkspace
	var maxSpread int32
	for _, in := range hardInputs {
		for _, steps := range hardLengths() {
			vals := in.gen(r, steps)
			ob, om, spread, err := scalarHardDecode(vals)
			if err != nil {
				t.Fatalf("%s/%d: oracle: %v", in.name, steps, err)
			}
			maxSpread = max(maxSpread, spread)
			if spread > swarSpread {
				t.Fatalf("%s/%d: live-metric spread %d exceeds the bound %d", in.name, steps, spread, swarSpread)
			}
			hb, hm, err := hard.DecodeHardMetric(vals)
			if err != nil {
				t.Fatalf("%s/%d: %v", in.name, steps, err)
			}
			if !bytes.Equal(hb, ob) || hm != float64(om) {
				t.Fatalf("%s/%d: hard (metric %v) differs from the scalar oracle (metric %d)", in.name, steps, hm, om)
			}
			llrs := make([]float64, len(vals))
			for i, v := range vals {
				llrs[i] = float64(v)
			}
			sb, sm, err := soft.DecodeSoftMetric(llrs)
			if err != nil {
				t.Fatalf("%s/%d: soft: %v", in.name, steps, err)
			}
			if !bytes.Equal(hb, sb) || hm != sm {
				t.Fatalf("%s/%d: hard (metric %v) differs from soft (metric %v)", in.name, steps, hm, sm)
			}
		}
	}
	if maxSpread < 22 {
		t.Errorf("largest live-metric spread in the table is %d; the max-spread inputs should reach 22", maxSpread)
	}
}

// TestDecodeHardRejectsOutOfRange: only −1, 0 and +1 are hard values.
func TestDecodeHardRejectsOutOfRange(t *testing.T) {
	var w ViterbiWorkspace
	for _, bad := range []int8{2, -2, 127, -128} {
		vals := make([]int8, 20)
		vals[13] = bad
		if _, _, err := w.DecodeHardMetric(vals); err == nil {
			t.Errorf("value %d accepted", bad)
		}
	}
}

// TestFrameCodingZeroAllocs pins the per-stream coding calls of the
// link pipeline at zero allocations once their buffers are sized: the
// hard Viterbi decode and both CRC directions.
func TestFrameCodingZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	info := randomBits(r, 700)
	vals := toHard(ConvEncode(AppendCRC(info)), 16, r)
	var w ViterbiWorkspace
	if _, _, err := w.DecodeHardMetric(vals); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, _, err := w.DecodeHardMetric(vals); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("DecodeHardMetric: %g allocs/op, want 0", n)
	}
	dst := make([]byte, 0, len(info)+32)
	if n := testing.AllocsPerRun(50, func() { dst = AppendCRCTo(dst[:0], info) }); n > 0 {
		t.Errorf("AppendCRCTo: %g allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, ok := CheckCRC(dst); !ok {
			t.Fatal("CRC failed")
		}
	}); n > 0 {
		t.Errorf("CheckCRC: %g allocs/op, want 0", n)
	}
}

// TestCRC32MatchesPackedChecksum: CRC32 equals the IEEE checksum of the
// bits packed MSB-first with a zero-padded tail, at every length
// across the byte boundaries.
func TestCRC32MatchesPackedChecksum(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for n := 0; n <= 300; n++ {
		bits := randomBits(r, n)
		packed := make([]byte, (n+7)/8)
		for i, b := range bits {
			packed[i/8] |= b << (7 - i%8)
		}
		if got, want := CRC32(bits), crc32.ChecksumIEEE(packed); got != want {
			t.Fatalf("%d bits: CRC32 %#x, packed checksum %#x", n, got, want)
		}
	}
}

// BenchmarkDecodeHard times one hard decode of a noisy 192-step stream,
// the mother-code length of a link-benchmark frame's stream.
func BenchmarkDecodeHard(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := toHard(ConvEncode(randomBits(r, 192-(ConstraintLength-1))), 8, r)
	var w ViterbiWorkspace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.DecodeHardMetric(vals); err != nil {
			b.Fatal(err)
		}
	}
}
