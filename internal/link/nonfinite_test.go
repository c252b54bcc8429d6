package link

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
	"repro/internal/kbest"
	"repro/internal/linear"
	"repro/internal/ofdm"
	"repro/internal/phy"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/units"
)

// nonFiniteFamilies builds one detector of every family, so each
// preparation route (private cache, shared cache, ZF side-cache,
// direct factorization) meets the non-finite check.
var nonFiniteFamilies = []struct {
	name string
	make func(c *constellation.Constellation) core.Detector
}{
	{"geosphere", func(c *constellation.Constellation) core.Detector { return core.NewGeosphere(c) }},
	{"ethsd", func(c *constellation.Constellation) core.Detector { return core.NewETHSD(c) }},
	{"rvd", func(c *constellation.Constellation) core.Detector { return core.NewRVD(c) }},
	{"list-sd", func(c *constellation.Constellation) core.Detector { return core.NewListSphereDecoder(c) }},
	{"ml", func(c *constellation.Constellation) core.Detector { return core.NewML(c) }},
	{"hybrid", func(c *constellation.Constellation) core.Detector {
		d, err := core.NewHybrid(c, linear.NewZF(c), 1.5)
		if err != nil {
			panic(err)
		}
		return d
	}},
	{"zf", func(c *constellation.Constellation) core.Detector { return linear.NewZF(c) }},
	{"mmse", func(c *constellation.Constellation) core.Detector { return linear.NewMMSE(c, 0.01) }},
	{"mmse-sic", func(c *constellation.Constellation) core.Detector { return linear.NewMMSESIC(c, 0.01) }},
	{"kbest", func(c *constellation.Constellation) core.Detector {
		d, err := kbest.NewKBest(c, c.Side())
		if err != nil {
			panic(err)
		}
		return d
	}},
	{"fcsd", func(c *constellation.Constellation) core.Detector {
		d, err := kbest.NewFCSD(c, 1)
		if err != nil {
			panic(err)
		}
		return d
	}},
	{"adaptive", func(c *constellation.Constellation) core.Detector {
		d, err := policy.NewDetector(c, units.DB(24), policy.Config{})
		if err != nil {
			panic(err)
		}
		return d
	}},
}

// nonFiniteEntries are the poisoned values: NaN and ±Inf in the real
// and in the imaginary part.
var nonFiniteEntries = []struct {
	name string
	v    complex128
}{
	{"nan-re", complex(math.NaN(), 0)},
	{"nan-im", complex(0, math.NaN())},
	{"+inf-re", complex(math.Inf(1), 0)},
	{"-inf-re", complex(math.Inf(-1), 0)},
	{"+inf-im", complex(0, math.Inf(1))},
	{"-inf-im", complex(0, math.Inf(-1))},
}

// poisoned returns a copy of h with one entry replaced by v.
func poisoned(h *cmplxmat.Matrix, v complex128) *cmplxmat.Matrix {
	p := h.Clone()
	p.Set(1, 1, v)
	return p
}

// TestPrepareRejectsNonFinite pins the typed ErrNonFinite for every
// detector family and every non-finite entry, prepared directly and
// through a PrepPool. The rejection must leave a shared cache slot
// untouched: re-preparing the previous channel afterwards is a hit.
func TestPrepareRejectsNonFinite(t *testing.T) {
	cons := constellation.QPSK
	good := channel.Rayleigh(rng.New(3), 4, 4)
	for _, fam := range nonFiniteFamilies {
		for _, e := range nonFiniteEntries {
			t.Run(fam.name+"/"+e.name, func(t *testing.T) {
				bad := poisoned(good, e.v)
				if err := fam.make(cons).Prepare(bad); !errors.Is(err, core.ErrNonFinite) {
					t.Fatalf("direct Prepare: got %v, want ErrNonFinite", err)
				}
				det := fam.make(cons)
				pool := core.NewPrepPool(1)
				if err := pool.Prepare(det, 0, good); err != nil {
					t.Fatal(err)
				}
				if err := pool.Prepare(det, 0, bad); !errors.Is(err, core.ErrNonFinite) {
					t.Fatalf("pooled Prepare: got %v, want ErrNonFinite", err)
				}
				hits, _ := pool.Counters()
				if err := pool.Prepare(det, 0, good); err != nil {
					t.Fatal(err)
				}
				if _, shared := det.(core.SharedPreparer); shared {
					if after, _ := pool.Counters(); after != hits+1 {
						t.Fatalf("re-preparing the previous channel missed the cache (hits %d → %d)", hits, after)
					}
				}
				y := make([]complex128, good.Rows)
				if _, err := det.Detect(make([]int, good.Cols), y); err != nil {
					t.Fatalf("detect after re-prepare: %v", err)
				}
			})
		}
	}
}

// TestNonFiniteChannelErrorsThroughPipeline checks that the typed error
// survives the phy and link layers, and that a poisoned frame leaves
// the worker's detector and cache fit for the next one.
func TestNonFiniteChannelErrorsThroughPipeline(t *testing.T) {
	cfg := RunConfig{
		Cons: constellation.QAM16, Rate: fec.Rate12,
		NumSymbols: 2, SNRdB: 24, Seed: 13,
	}
	hs := batchChannels(21, 4, 2)
	bad := append([]*cmplxmat.Matrix(nil), hs...)
	bad[17] = poisoned(hs[17], complex(math.NaN(), 0))

	l, err := phy.NewLink(cfg.phyConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(4)
	f, err := l.Encode(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.TransmitReceive(src, f, bad, core.NewGeosphere(cfg.Cons), 0.01); !errors.Is(err, core.ErrNonFinite) {
		t.Fatalf("phy: got %v, want ErrNonFinite", err)
	}

	proc, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewGeosphere(cfg.Cons)
	pool := core.NewPrepPool(ofdm.NumData)
	if out := proc.Process(Work{Frame: 0, Channels: bad, Det: det, Pool: pool}); !errors.Is(out.Err, core.ErrNonFinite) {
		t.Fatalf("link: got %v, want ErrNonFinite", out.Err)
	}
	// The poisoned frame leaves the detector and cache usable: the next
	// frame on the good channels matches a fresh pipeline's.
	got := proc.Process(Work{Frame: 1, Channels: hs, Det: det, Pool: pool})
	want := runFramesSingle(t, cfg, GeoFactoryForTest, hs, []int64{1})[0]
	if got.Err != nil || !reflect.DeepEqual(got.Res, want.Res) {
		t.Fatalf("frame after the poisoned one: %+v (err %v), want %+v", got.Res, got.Err, want.Res)
	}
}
