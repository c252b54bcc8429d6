package phy

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/ofdm"
	"repro/internal/rng"
)

// TestBatchFailsOnlyTheBadFrame: in a batch of four frames, one whose
// detection channel holds a NaN and one whose stream count does not
// match its channels each fail with their own error, while the other
// two complete with exactly the Results they get when run alone.
func TestBatchFailsOnlyTheBadFrame(t *testing.T) {
	cfg := Config{Cons: constellation.QAM16, Rate: fec.Rate12, NumSymbols: 2}
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	link.SetPrepPool(core.NewPrepPool(ofdm.NumData))
	det := core.NewGeosphere(cfg.Cons)
	noiseVar := channel.NoiseVarForSNRdB(22)
	hs := perSCChannels(rng.New(1), 4, 2)
	poisoned := append([]*cmplxmat.Matrix(nil), hs...)
	poisoned[9] = hs[9].Clone()
	poisoned[9].Set(2, 1, complex(math.NaN(), 0))

	streams := []int{2, 2, 3, 2}
	frames := make([]*Frame, len(streams))
	srcs := make([]*rng.Source, len(streams))
	for i, nc := range streams {
		if frames[i], err = link.Encode(rng.New(int64(10+i)), nc); err != nil {
			t.Fatal(err)
		}
		srcs[i] = rng.New(int64(100 + i))
	}
	hsTrue := [][]*cmplxmat.Matrix{hs, hs, hs, hs}
	hsDet := [][]*cmplxmat.Matrix{hs, poisoned, hs, hs}
	res, errs := link.TransmitReceiveBatchCSI(srcs, frames, hsTrue, hsDet, det, noiseVar)
	res, errs = append([]*Result(nil), res...), append([]error(nil), errs...)

	if !errors.Is(errs[1], core.ErrNonFinite) || res[1] != nil {
		t.Errorf("poisoned frame: result %v, error %v; want nil and ErrNonFinite", res[1], errs[1])
	}
	if errs[2] == nil || res[2] != nil {
		t.Errorf("stream-count mismatch: result %v, error %v; want nil and an error", res[2], errs[2])
	}
	for _, i := range []int{0, 3} {
		if errs[i] != nil {
			t.Fatalf("frame %d: %v", i, errs[i])
		}
		alone, err := link.TransmitReceive(rng.New(int64(100+i)), frames[i], hs, det, noiseVar)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], alone) {
			t.Errorf("frame %d: batch %+v, alone %+v", i, res[i], alone)
		}
	}
}
