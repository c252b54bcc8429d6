package link

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/obs"
	"repro/internal/ofdm"
	"repro/internal/rng"
)

// batchChannels builds one static per-subcarrier channel set, the
// "one user group" shape the serving layer batches over.
func batchChannels(seed int64, na, nc int) []*cmplxmat.Matrix {
	src := rng.New(seed)
	hs := make([]*cmplxmat.Matrix, ofdm.NumData)
	for i := range hs {
		hs[i] = channel.Rayleigh(src, na, nc)
	}
	return hs
}

// runFramesSingle is the reference: one persistent detector + pool,
// frames processed one at a time through Process.
func runFramesSingle(t *testing.T, cfg RunConfig, factory DetectorFactory, hs []*cmplxmat.Matrix, frames []int64) []FrameOutcome {
	t.Helper()
	proc, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := cfg.buildDetector(factory, proc.NoiseVar())
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPrepPool(ofdm.NumData)
	pool.SetIncremental(cfg.IncrementalPrep)
	outs := make([]FrameOutcome, 0, len(frames))
	for _, fi := range frames {
		outs = append(outs, proc.Process(Work{Frame: fi, Channels: hs, Det: det, Pool: pool}))
	}
	return outs
}

// runFramesBatched runs the same frames through ProcessBatch in
// batchSize-sized chunks over a fresh persistent detector + pool.
func runFramesBatched(t *testing.T, cfg RunConfig, factory DetectorFactory, hs []*cmplxmat.Matrix, frames []int64, batchSize int) []FrameOutcome {
	t.Helper()
	proc, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := cfg.buildDetector(factory, proc.NoiseVar())
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPrepPool(ofdm.NumData)
	pool.SetIncremental(cfg.IncrementalPrep)
	outs := make([]FrameOutcome, 0, len(frames))
	var scratch []FrameOutcome
	for at := 0; at < len(frames); at += batchSize {
		end := at + batchSize
		if end > len(frames) {
			end = len(frames)
		}
		scratch = proc.ProcessBatch(scratch, BatchWork{Frames: frames[at:end], Channels: hs, Det: det, Pool: pool})
		outs = append(outs, scratch...)
	}
	return outs
}

// TestProcessBatchEqualsProcess is the batching byte-identity
// conformance suite of the micro-batching tentpole: for every detector
// family × constellation × batch size, ProcessBatch's per-frame Res
// and Err must be byte-identical to running Process once per frame —
// batching may only change scheduling, attribution and latency, never
// a decision.
func TestProcessBatchEqualsProcess(t *testing.T) {
	conss := []*constellation.Constellation{constellation.QPSK, constellation.QAM16}
	batchSizes := []int{1, 2, 3, 7, 16}
	const frames = 16
	for _, d := range conformanceFactories {
		for _, cons := range conss {
			name := fmt.Sprintf("%s/%s", d.name, cons.Name())
			t.Run(name, func(t *testing.T) {
				cfg := RunConfig{
					Cons: cons, Rate: fec.Rate12,
					NumSymbols: 2, Frames: frames,
					SNRdB:        18, // low enough that some frames fail
					Seed:         int64(len(name)) * 257,
					SoftDecoding: d.soft,
				}
				hs := batchChannels(int64(len(name)), 4, 2)
				fis := make([]int64, frames)
				for i := range fis {
					fis[i] = int64(i)
				}
				ref := runFramesSingle(t, cfg, d.factory, hs, fis)
				for _, bs := range batchSizes {
					got := runFramesBatched(t, cfg, d.factory, hs, fis, bs)
					if len(got) != len(ref) {
						t.Fatalf("batch=%d returned %d outcomes, want %d", bs, len(got), len(ref))
					}
					for i := range ref {
						if (ref[i].Err == nil) != (got[i].Err == nil) {
							t.Fatalf("batch=%d frame %d error mismatch: single %v, batch %v", bs, i, ref[i].Err, got[i].Err)
						}
						if !reflect.DeepEqual(ref[i].Res, got[i].Res) {
							t.Fatalf("batch=%d frame %d diverged:\n  single: %+v\n  batch:  %+v", bs, i, ref[i].Res, got[i].Res)
						}
					}
				}
			})
		}
	}
}

// TestProcessBatchPerFrameChannels covers the modes that give every
// frame its own channel set inside a batch — SNR jitter, estimated
// CSI, both — for every TestFramePathGolden configuration using them:
// at every batch size the per-frame Res must equal batch size 1's and
// the run-level Stats sum must match, and batch size 1 must reproduce
// the golden digest.
func TestProcessBatchPerFrameChannels(t *testing.T) {
	fis := make([]int64, framePathFrames)
	for i := range fis {
		fis[i] = int64(i)
	}
	for _, c := range framePathCases() {
		if c.cfg.SNRJitterDB <= 0 && !c.cfg.EstimatedCSI {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			hs := framePathChannels(t, c)
			ref := runFramesBatched(t, c.cfg, c.factory, hs, fis, 1)
			if got := framePathDigest(ref); got != framePathGolden[c.name] {
				t.Fatalf("batch=1 digest %#x, want golden %#x", got, framePathGolden[c.name])
			}
			var refStats core.Stats
			for _, o := range ref {
				refStats.Add(o.Stats)
			}
			for _, bs := range []int{2, 3, 7} {
				got := runFramesBatched(t, c.cfg, c.factory, hs, fis, bs)
				var stats core.Stats
				for i, o := range got {
					if o.Err != nil {
						t.Fatalf("batch=%d frame %d: %v", bs, i, o.Err)
					}
					if !reflect.DeepEqual(o.Res, ref[i].Res) {
						t.Fatalf("batch=%d frame %d diverged:\n  single: %+v\n  batch:  %+v", bs, i, ref[i].Res, o.Res)
					}
					stats.Add(o.Stats)
				}
				if stats != refStats {
					t.Fatalf("batch=%d stats sum %+v, want %+v", bs, stats, refStats)
				}
			}
		})
	}
}

// TestPrepareProbeAccounting pins what a frame costs the preparation
// cache: one probe per subcarrier per distinct channel, however many
// OFDM symbols share it.
func TestPrepareProbeAccounting(t *testing.T) {
	const sc = ofdm.NumData
	base := RunConfig{
		Cons: constellation.QAM16, Rate: fec.Rate12,
		NumSymbols: 2, SNRdB: 24, Seed: 5,
	}
	hs := batchChannels(8, 4, 2)
	rig := func(cfg RunConfig) (*Processor, core.Detector, *core.PrepPool) {
		proc, err := NewProcessor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return proc, core.NewGeosphere(cfg.Cons), core.NewPrepPool(sc)
	}
	check := func(what string, pool *core.PrepPool, hits, misses uint64) {
		t.Helper()
		if h, m := pool.Counters(); h != hits || m != misses {
			t.Errorf("%s: %d hits / %d misses, want %d / %d", what, h, m, hits, misses)
		}
	}

	// Static single frames: the cold frame misses once per subcarrier,
	// every later frame hits once per subcarrier — not once per symbol.
	proc, det, pool := rig(base)
	for fi := int64(0); fi < 3; fi++ {
		if out := proc.Process(Work{Frame: fi, Channels: hs, Det: det, Pool: pool}); out.Err != nil {
			t.Fatal(out.Err)
		}
		check(fmt.Sprintf("static frame %d", fi), pool, uint64(fi)*sc, sc)
	}
	// A static batch probes each subcarrier once for all its frames.
	proc.ProcessBatch(nil, BatchWork{Frames: []int64{3, 4, 5}, Channels: hs, Det: det, Pool: pool})
	check("static batch", pool, 3*sc, sc)

	// Per-frame channels (jitter, estimated CSI) re-prepare once per
	// (frame, subcarrier): a batch of 3 is 3×48 misses and no hits.
	for _, mode := range conformanceModes[1:] {
		cfg := base
		cfg.SNRJitterDB, cfg.EstimatedCSI = mode.jitter, mode.estCSI
		proc, det, pool := rig(cfg)
		for i, o := range proc.ProcessBatch(nil, BatchWork{Frames: []int64{0, 1, 2}, Channels: hs, Det: det, Pool: pool}) {
			if o.Err != nil {
				t.Fatalf("%s frame %d: %v", mode.name, i, o.Err)
			}
		}
		check(mode.name+" batch", pool, 0, 3*sc)
	}
}

// TestProcessWarmAllocs pins warm Processor.Process allocations
// at their level from before Process became a batch of one: the
// wrapper runs from Processor and Link scratch, so a frame allocates
// only what it keeps or draws (its substream, encoded frame, Result,
// and under jitter or estimated CSI its per-frame channel copies).
func TestProcessWarmAllocs(t *testing.T) {
	limits := map[string]float64{"plain": 11, "jitter": 109, "estcsi": 108, "jitter+estcsi": 206}
	for _, mode := range conformanceModes {
		for _, pooled := range []bool{true, false} {
			cfg := RunConfig{
				Cons: constellation.QAM16, Rate: fec.Rate12,
				NumSymbols: 2, SNRdB: 30, Seed: 7,
				SNRJitterDB: mode.jitter, EstimatedCSI: mode.estCSI,
			}
			proc, err := NewProcessor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			det := core.NewGeosphere(cfg.Cons)
			var pool *core.PrepPool
			if pooled {
				pool = core.NewPrepPool(ofdm.NumData)
			}
			hs := batchChannels(3, 4, 2)
			fi := int64(0)
			run := func() {
				if out := proc.Process(Work{Frame: fi, Channels: hs, Det: det, Pool: pool}); out.Err != nil {
					t.Fatal(out.Err)
				}
				fi++
			}
			for i := 0; i < 5; i++ {
				run()
			}
			if got := testing.AllocsPerRun(50, run); got > limits[mode.name] {
				t.Errorf("%s pooled=%v: %v allocs per frame, want ≤ %v", mode.name, pooled, got, limits[mode.name])
			}
		}
	}
}

// TestProcessBatchStatsAndSamples pins the attribution contract: the
// batch's detector-stats delta lands on the first outcome (so sums
// over a run stay exact), and the recorder sees one FrameSample per
// frame with the Batch field set.
func TestProcessBatchStatsAndSamples(t *testing.T) {
	rec := obs.NewStatsRecorder()
	cfg := RunConfig{
		Cons: constellation.QAM16, Rate: fec.Rate12,
		NumSymbols: 2, Frames: 4,
		SNRdB: 24, Seed: 91,
		Recorder: rec,
	}
	proc, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := cfg.buildDetector(GeoFactoryForTest, proc.NoiseVar())
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPrepPool(ofdm.NumData)
	hs := batchChannels(29, 4, 2)
	outs := proc.ProcessBatch(nil, BatchWork{Frames: []int64{0, 1, 2, 3}, Channels: hs, Det: det, Pool: pool})
	if len(outs) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(outs))
	}
	var zero core.Stats
	if outs[0].Stats == zero {
		t.Error("batch stats delta missing from first outcome")
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Stats != zero {
			t.Errorf("outcome %d carries stats; batch attribution must fold into the first", i)
		}
	}
	snap := rec.Snapshot()
	if snap.Frames.Frames != 4 {
		t.Errorf("recorder saw %d frames, want 4", snap.Frames.Frames)
	}
	// One preparation per subcarrier for the whole batch: 48 cold
	// misses and no further probe, where running the 4 frames one at a
	// time would probe 4 × 48 times.
	probes := snap.Frames.PrepareHits + snap.Frames.PrepareMisses
	if snap.Frames.PrepareMisses != int64(ofdm.NumData) {
		t.Errorf("prepare misses = %d, want %d (one per subcarrier)", snap.Frames.PrepareMisses, ofdm.NumData)
	}
	if probes != int64(ofdm.NumData) {
		t.Errorf("prepare probes = %d, want %d (one per subcarrier per batch)", probes, ofdm.NumData)
	}
}
