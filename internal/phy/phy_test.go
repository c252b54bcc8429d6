package phy

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/linear"
	"repro/internal/ofdm"
	"repro/internal/rng"
)

func flatChannels(src *rng.Source, na, nc int) []*cmplxmat.Matrix {
	hs := make([]*cmplxmat.Matrix, ofdm.NumData)
	h := channel.Rayleigh(src, na, nc)
	for i := range hs {
		hs[i] = h
	}
	return hs
}

func perSCChannels(src *rng.Source, na, nc int) []*cmplxmat.Matrix {
	hs := make([]*cmplxmat.Matrix, ofdm.NumData)
	for i := range hs {
		hs[i] = channel.Rayleigh(src, na, nc)
	}
	return hs
}

func TestConfigDerivedSizes(t *testing.T) {
	cfg := Config{Cons: constellation.QAM16, Rate: fec.Rate12, NumSymbols: 10}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.BitsPerSymbol(); got != 192 {
		t.Fatalf("ncbps = %d, want 192", got)
	}
	if got := cfg.CodedBits(); got != 1920 {
		t.Fatalf("coded bits = %d", got)
	}
	if got := cfg.InfoBits(); got != 954 {
		t.Fatalf("info bits = %d, want 954", got)
	}
	if got := cfg.PayloadBits(); got != 922 {
		t.Fatalf("payload bits = %d, want 922", got)
	}
	// 48·4·(1/2)/4µs = 24 Mbps, the classic 16-QAM rate-1/2 mode.
	if got := cfg.PHYRateMbps(); math.Abs(got-24) > 1e-12 {
		t.Fatalf("PHY rate %g Mbps, want 24", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("empty config accepted")
	}
	if err := (Config{Cons: constellation.QPSK, NumSymbols: 0}).Validate(); err == nil {
		t.Fatal("zero symbols accepted")
	}
	// A single QPSK symbol still fits the CRC and tail (10 payload
	// bits), so the shortest frames remain valid.
	if err := (Config{Cons: constellation.QPSK, NumSymbols: 1, Rate: fec.Rate12}).Validate(); err != nil {
		t.Fatalf("minimal frame rejected: %v", err)
	}
}

func TestFrameRoundTripNoiseless(t *testing.T) {
	for _, cons := range []*constellation.Constellation{constellation.QPSK, constellation.QAM16, constellation.QAM64} {
		for _, rate := range []fec.Rate{fec.Rate12, fec.Rate23, fec.Rate34} {
			cfg := Config{Cons: cons, Rate: rate, NumSymbols: 6}
			link, err := NewLink(cfg)
			if err != nil {
				t.Fatalf("%s rate %s: %v", cons, rate, err)
			}
			src := rng.New(1)
			f, err := link.Encode(src, 2)
			if err != nil {
				t.Fatal(err)
			}
			hs := perSCChannels(src, 4, 2)
			det := core.NewGeosphere(cons)
			res, err := link.TransmitReceive(src, f, hs, det, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.FrameOK() {
				t.Fatalf("%s rate %s: noiseless frame failed: %+v", cons, rate, res)
			}
			if res.SymbolErrors != 0 {
				t.Fatalf("%s rate %s: %d symbol errors at zero noise", cons, rate, res.SymbolErrors)
			}
		}
	}
}

func TestFrameHighSNRAllDetectors(t *testing.T) {
	cfg := Config{Cons: constellation.QAM16, Rate: fec.Rate12, NumSymbols: 4}
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noise := channel.NoiseVarForSNRdB(35)
	dets := []core.Detector{
		core.NewGeosphere(cfg.Cons),
		core.NewETHSD(cfg.Cons),
		linear.NewZF(cfg.Cons),
		linear.NewMMSE(cfg.Cons, noise),
		linear.NewMMSESIC(cfg.Cons, noise),
	}
	for _, det := range dets {
		src := rng.New(77)
		f, err := link.Encode(src, 2)
		if err != nil {
			t.Fatal(err)
		}
		hs := perSCChannels(src, 4, 2)
		res, err := link.TransmitReceive(src, f, hs, det, noise)
		if err != nil {
			t.Fatalf("%s: %v", det.Name(), err)
		}
		if !res.FrameOK() {
			t.Fatalf("%s: 2×4 frame at 35 dB failed", det.Name())
		}
	}
}

// TestGeosphereBeatsZFOnIllConditioned is the paper's core claim at
// frame level: on a poorly-conditioned channel at moderate SNR the
// sphere decoder decodes frames that zero-forcing loses.
func TestGeosphereBeatsZFOnIllConditioned(t *testing.T) {
	cfg := Config{Cons: constellation.QAM16, Rate: fec.Rate12, NumSymbols: 4}
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	// Correlated 2×2 channels are reliably ill-conditioned.
	noise := channel.NoiseVarForSNRdB(22)
	geo := core.NewGeosphere(cfg.Cons)
	zf := linear.NewZF(cfg.Cons)
	geoOK, zfOK := 0, 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		h, err := channel.Correlated(src, 2, 2, 0.9, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		hs := make([]*cmplxmat.Matrix, ofdm.NumData)
		for i := range hs {
			hs[i] = h
		}
		f, err := link.Encode(src, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Identical noise for both detectors: seed two sources alike.
		seed := src.Int63()
		rGeo, err := link.TransmitReceive(rng.New(seed), f, hs, geo, noise)
		if err != nil {
			t.Fatal(err)
		}
		rZF, err := link.TransmitReceive(rng.New(seed), f, hs, zf, noise)
		if err != nil {
			t.Fatal(err)
		}
		if rGeo.FrameOK() {
			geoOK++
		}
		if rZF.FrameOK() {
			zfOK++
		}
	}
	t.Logf("frames decoded over %d ill-conditioned trials: Geosphere=%d ZF=%d", trials, geoOK, zfOK)
	if geoOK <= zfOK {
		t.Fatalf("Geosphere (%d) should decode more frames than ZF (%d)", geoOK, zfOK)
	}
}

func TestTransmitReceiveValidation(t *testing.T) {
	cfg := Config{Cons: constellation.QPSK, Rate: fec.Rate12, NumSymbols: 4}
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	f, err := link.Encode(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewGeosphere(cfg.Cons)
	if _, err := link.TransmitReceive(src, f, flatChannels(src, 4, 2)[:10], det, 0); err == nil {
		t.Fatal("short channel list accepted")
	}
	if _, err := link.TransmitReceive(src, f, flatChannels(src, 4, 3), det, 0); err == nil {
		t.Fatal("stream-count mismatch accepted")
	}
	if _, err := link.Encode(src, 0); err == nil {
		t.Fatal("zero streams accepted")
	}
}

func TestResultFrameOK(t *testing.T) {
	r := Result{StreamOK: []bool{true, true}}
	if !r.FrameOK() {
		t.Fatal("all-true should be OK")
	}
	r.StreamOK[1] = false
	if r.FrameOK() {
		t.Fatal("partial failure should not be OK")
	}
}

// TestEncodeDeterministic: identical seeds produce identical frames —
// the property every trace-driven comparison in the evaluation rests
// on (both decoders must see the same payloads and noise).
func TestEncodeDeterministic(t *testing.T) {
	cfg := Config{Cons: constellation.QAM16, Rate: fec.Rate12, NumSymbols: 4}
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := link.Encode(rng.New(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := link.Encode(rng.New(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Payloads {
		for i := range a.Payloads[k] {
			if a.Payloads[k][i] != b.Payloads[k][i] {
				t.Fatal("payloads diverged")
			}
		}
	}
	if a.X[0][0][0] != b.X[0][0][0] || a.X[3][47][1] != b.X[3][47][1] { //geolint:float-ok test asserts exact bitwise reproducibility
		t.Fatal("symbol grids diverged")
	}
}

// TestFrameFailsAtAbsurdNoise: with noise 30 dB above the signal
// nothing decodes, and the error counters reflect it.
func TestFrameFailsAtAbsurdNoise(t *testing.T) {
	cfg := Config{Cons: constellation.QAM64, Rate: fec.Rate12, NumSymbols: 4}
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(13)
	f, err := link.Encode(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	hs := perSCChannels(src, 4, 2)
	res, err := link.TransmitReceive(src, f, hs, core.NewGeosphere(cfg.Cons), 1e3)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameOK() {
		t.Fatal("frame decoded under 30 dB of noise above signal")
	}
	if res.SymbolErrors == 0 || res.Symbols == 0 {
		t.Fatalf("error accounting empty: %+v", res)
	}
}

// TestBatchedDetectZeroAllocs extends the detection-hot-path
// allocation contract (core's TestDetectZeroAllocs) to the link's
// structure-of-arrays detection sweep with a preparation pool
// attached: one OFDM symbol across all 48 subcarriers — a pool prepare
// (a cache hit) per subcarrier plus hard detection and pre-FEC
// accounting straight from the flat receive buffer — allocates nothing
// in steady state.
func TestBatchedDetectZeroAllocs(t *testing.T) {
	cfg := Config{Cons: constellation.QAM16, Rate: fec.Rate12, NumSymbols: 1}
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPrepPool(ofdm.NumData)
	link.SetPrepPool(pool)
	det := core.NewGeosphere(cfg.Cons)
	src := rng.New(5)
	const na, nc = 4, 4
	hs := perSCChannels(src, na, nc)
	f, err := link.Encode(src, nc)
	if err != nil {
		t.Fatal(err)
	}
	noiseVar := channel.NoiseVarForSNRdB(24)
	// One full frame warms everything: the SoA scratch reaches its
	// final size and every pool slot holds its subcarrier's channel.
	if _, err := link.TransmitReceive(src, f, hs, det, noiseVar); err != nil {
		t.Fatal(err)
	}
	detIdx, _, yb := link.sizeReceive(cfg.NumSymbols, nc, na, false)
	res := &Result{StreamOK: make([]bool, nc)}
	allocs := testing.AllocsPerRun(20, func() {
		for s := 0; s < ofdm.NumData; s++ {
			if err := link.prepareDetector(det, s, hs[s]); err != nil {
				t.Fatal(err)
			}
			if err := link.detectOne(det, nil, f, res, detIdx, nil, yb[s*na:(s+1)*na], 0, s, nc, noiseVar); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Errorf("batched SoA sweep: %g allocs per symbol, want 0", allocs)
	}
	if hits, _ := pool.Counters(); hits == 0 {
		t.Error("sweep never hit the preparation cache")
	}
}
