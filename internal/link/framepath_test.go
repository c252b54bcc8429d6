package link

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/ofdm"
)

// framePathFrames is the frame count of every TestFramePathGolden
// configuration.
const framePathFrames = 6

// framePathCase is one TestFramePathGolden configuration: a detector
// family (or the adaptive scheduler) crossed with a channel-knowledge
// mode.
type framePathCase struct {
	name     string
	cfg      RunConfig
	factory  DetectorFactory
	adaptive bool
}

// framePathCases lists every configuration TestFramePathGolden pins:
// each conformance detector family × each conformance mode over a
// static Rayleigh channel set, plus the adaptive scheduler over a κ²
// ramp, all at 4×2 (adaptive 4×4) 16-QAM, 18 dB, two OFDM symbols.
func framePathCases() []framePathCase {
	base := func(name string) RunConfig {
		return RunConfig{
			Cons: constellation.QAM16, Rate: fec.Rate12,
			NumSymbols: 2, Frames: framePathFrames,
			SNRdB: 18,
			Seed:  framePathSeed(name),
		}
	}
	var cases []framePathCase
	for _, d := range conformanceFactories {
		for _, mode := range conformanceModes {
			name := d.name + "/" + mode.name
			cfg := base(name)
			cfg.SoftDecoding = d.soft
			cfg.SNRJitterDB = mode.jitter
			cfg.EstimatedCSI = mode.estCSI
			cases = append(cases, framePathCase{name: name, cfg: cfg, factory: d.factory})
		}
	}
	for _, mode := range conformanceModes {
		name := "adaptive/" + mode.name
		cfg := base(name)
		cfg.AdaptiveDetect = true
		cfg.SNRJitterDB = mode.jitter
		cfg.EstimatedCSI = mode.estCSI
		cases = append(cases, framePathCase{name: name, cfg: cfg, factory: geosphereFactory, adaptive: true})
	}
	return cases
}

// framePathSeed derives a distinct, stable seed from a case name.
func framePathSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() >> 1)
}

// framePathDigest folds frame outcomes into one FNV-64a digest over
// every decision-level byte (error presence, per-stream CRC outcome,
// pre-FEC symbol errors and count) and the tree-search work counts.
func framePathDigest(outs []FrameOutcome) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, o := range outs {
		if o.Err != nil {
			put(-1)
			continue
		}
		put(int64(len(o.Res.StreamOK)))
		for _, ok := range o.Res.StreamOK {
			if ok {
				put(1)
			} else {
				put(0)
			}
		}
		put(int64(o.Res.SymbolErrors))
		put(int64(o.Res.Symbols))
		put(o.Stats.PEDCalcs)
		put(o.Stats.VisitedNodes)
	}
	return h.Sum64()
}

// framePathChannels returns the case's static channel set: a Rayleigh
// draw, or the κ² ramp for the adaptive scheduler.
func framePathChannels(t *testing.T, c framePathCase) []*cmplxmat.Matrix {
	t.Helper()
	if !c.adaptive {
		return batchChannels(framePathSeed(c.name)>>1, 4, 2)
	}
	hs, err := kappaSweepSource(t, 33, 4, 4, 55).Next()
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

// runFramePath processes the case's frames one at a time through
// Processor.Process. With pooled set, one persistent detector and a
// preparation cache serve every frame; otherwise every frame gets a
// fresh detector and no cache.
func runFramePath(t *testing.T, c framePathCase, pooled bool) []FrameOutcome {
	t.Helper()
	proc, err := NewProcessor(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := framePathChannels(t, c)
	var det core.Detector
	var pool *core.PrepPool
	if pooled {
		if det, err = c.cfg.buildDetector(c.factory, proc.NoiseVar()); err != nil {
			t.Fatal(err)
		}
		pool = core.NewPrepPool(ofdm.NumData)
	}
	outs := make([]FrameOutcome, 0, framePathFrames)
	for fi := int64(0); fi < framePathFrames; fi++ {
		d := det
		if !pooled {
			if d, err = c.cfg.buildDetector(c.factory, proc.NoiseVar()); err != nil {
				t.Fatal(err)
			}
		}
		outs = append(outs, proc.Process(Work{Frame: fi, Channels: hs, Det: d, Pool: pool}))
	}
	return outs
}

// framePathGolden holds one digest per framePathCases configuration.
var framePathGolden = map[string]uint64{
	"geosphere/plain":         0x7c6057b1c497caa5,
	"geosphere/jitter":        0x18dda6b99f6a0843,
	"geosphere/estcsi":        0xd5caf36f167cf700,
	"geosphere/jitter+estcsi": 0x260ecf4a9e3036a0,
	"ethsd/plain":             0x79c35a7f1b21f12d,
	"ethsd/jitter":            0x92517a5ccbac8fa4,
	"ethsd/estcsi":            0xf0225ad09ae20f6b,
	"ethsd/jitter+estcsi":     0x7028790f13e83fba,
	"zf/plain":                0x56633baa2aee1464,
	"zf/jitter":               0x9e57b1bfdf154741,
	"zf/estcsi":               0xcebb2102994837e9,
	"zf/jitter+estcsi":        0xc31c75528e745ae,
	"mmse-sic/plain":          0x85063dfc2653e5e4,
	"mmse-sic/jitter":         0x368a53041454f5e5,
	"mmse-sic/estcsi":         0x91261d065cdc03e3,
	"mmse-sic/jitter+estcsi":  0x768fb8c686647ecf,
	"kbest/plain":             0x2e9c14d5e69dc2d9,
	"kbest/jitter":            0xf27dab38869d2d6c,
	"kbest/estcsi":            0x88049847d8b760cb,
	"kbest/jitter+estcsi":     0x2ca9094298a3f74c,
	"list-sd/plain":           0xf2d9ced570e4ae42,
	"list-sd/jitter":          0x54841b77f05bb15a,
	"list-sd/estcsi":          0x6bddb2fa4f066d05,
	"list-sd/jitter+estcsi":   0x49803d08df53efb7,
	"adaptive/plain":          0x91fbb61beae8fa73,
	"adaptive/jitter":         0xb2a31dda064aefe7,
	"adaptive/estcsi":         0x48b62d887498019d,
	"adaptive/jitter+estcsi":  0x25d027909b913bf9,
}

// TestFramePathGolden pins the per-frame bytes of Processor.Process for
// every detector family, every channel-knowledge mode and the adaptive
// scheduler, with a persistent detector plus preparation cache and with
// a fresh detector and no cache — both must produce the same digest.
// Unlike TestGoldenMeasurements (aggregate hard-decision Measurements
// under genie CSI), it covers soft decoding, SNR jitter, estimated CSI
// and the per-frame complexity attribution. A shift here is a shift in
// what a frame decodes to or how much search it costs.
func TestFramePathGolden(t *testing.T) {
	for _, c := range framePathCases() {
		t.Run(c.name, func(t *testing.T) {
			want, ok := framePathGolden[c.name]
			for _, pooled := range []bool{true, false} {
				outs := runFramePath(t, c, pooled)
				for i, o := range outs {
					if o.Err != nil {
						t.Fatalf("pooled=%v frame %d: %v", pooled, i, o.Err)
					}
				}
				got := framePathDigest(outs)
				if !ok {
					t.Errorf("pooled=%v: no golden; digest %#x", pooled, got)
					continue
				}
				if got != want {
					t.Errorf("pooled=%v: digest %#x, want %#x", pooled, got, want)
				}
			}
		})
	}
}
