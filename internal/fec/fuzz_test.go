package fec

import (
	"bytes"
	"testing"
)

// FuzzViterbiRoundTrip: ConvEncode followed by ViterbiDecode must
// reproduce any input bit pattern exactly.
func FuzzViterbiRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0})
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		bits := make([]byte, len(data))
		for i, b := range data {
			bits[i] = b & 1
		}
		dec, err := ViterbiDecode(ConvEncode(bits))
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(bits) {
			t.Fatalf("length %d, want %d", len(dec), len(bits))
		}
		for i := range bits {
			if dec[i] != bits[i] {
				t.Fatalf("bit %d corrupted", i)
			}
		}
	})
}

// FuzzViterbiNoCrash: the decoder must reject or survive arbitrary
// coded inputs without panicking.
func FuzzViterbiNoCrash(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		bits := make([]byte, len(data))
		for i, b := range data {
			bits[i] = b & 1
		}
		// Any outcome but a panic is acceptable for garbage input.
		_, _ = ViterbiDecode(bits)
	})
}

// FuzzScramble: scrambling twice with any seed is the identity.
func FuzzScramble(f *testing.F) {
	f.Add([]byte{1, 0, 1}, byte(0x5d))
	f.Fuzz(func(t *testing.T, data []byte, seed byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		bits := make([]byte, len(data))
		for i, b := range data {
			bits[i] = b & 1
		}
		orig := append([]byte(nil), bits...)
		Scramble(bits, seed)
		Scramble(bits, seed)
		for i := range orig {
			if bits[i] != orig[i] {
				t.Fatalf("scramble not involutive at %d (seed %#x)", i, seed)
			}
		}
	})
}

// FuzzCRC: AppendCRC/CheckCRC round-trips, and any single-bit
// corruption is detected.
func FuzzCRC(f *testing.F) {
	f.Add([]byte{1, 1, 0, 1}, uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, flip uint16) {
		if len(data) == 0 || len(data) > 2048 {
			return
		}
		bits := make([]byte, len(data))
		for i, b := range data {
			bits[i] = b & 1
		}
		framed := AppendCRC(bits)
		if _, ok := CheckCRC(framed); !ok {
			t.Fatal("clean CRC failed")
		}
		pos := int(flip) % len(framed)
		framed[pos] ^= 1
		if _, ok := CheckCRC(framed); ok {
			t.Fatalf("single flip at %d undetected", pos)
		}
	})
}

// FuzzViterbiHardEquiv: on arbitrary {−1, 0, 1} inputs the
// word-parallel hard decoder returns the bits and metric of the scalar
// oracle and of the float path fed the same values.
func FuzzViterbiHardEquiv(f *testing.F) {
	f.Add(make([]byte, 12))
	f.Add([]byte{0, 2, 1, 1, 0, 2, 2, 0, 1, 0, 0, 0, 2, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		vals := make([]int8, len(data)&^1)
		llrs := make([]float64, len(vals))
		for i := range vals {
			vals[i] = int8(data[i]%3) - 1
			llrs[i] = float64(vals[i])
		}
		var w ViterbiWorkspace
		hb, hm, err := w.DecodeHardMetric(vals)
		ob, om, _, oerr := scalarHardDecode(vals)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("hard error %v, oracle error %v", err, oerr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(hb, ob) || hm != float64(om) {
			t.Fatalf("hard (metric %v) differs from the scalar oracle (metric %d)", hm, om)
		}
		sb, sm, err := ViterbiDecodeSoftMetric(llrs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hb, sb) || hm != sm {
			t.Fatalf("hard (metric %v) differs from soft (metric %v)", hm, sm)
		}
	})
}
