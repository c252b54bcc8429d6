package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/policy"
	"repro/internal/rng"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ p, want float64 }{
		{1, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// p99 of 100 samples is the 99th smallest, not an interpolation.
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
}

func TestSelfNS(t *testing.T) {
	parent := span{0, 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{10, 20}, {30, 50}}, 70},
		{"overlap counted once", []span{{10, 30}, {20, 40}}, 70},
		{"nested", []span{{10, 60}, {20, 30}}, 50},
		{"clipped to parent", []span{{-5, 5}, {90, 120}}, 85},
		{"outside parent", []span{{100, 150}, {-20, 0}}, 100},
		{"covering", []span{{0, 100}}, 0},
		{"mixed", []span{{10, 30}, {20, 40}, {90, 120}, {-5, 5}}, 55},
	} {
		if got := selfNS(parent, c.children); got != c.want {
			t.Errorf("%s: selfNS = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestGoodput(t *testing.T) {
	p := sloPolicy{maxFailShare: 0.001, p99ms: 20, maxLagMS: 10}
	step := func(rate, p99 float64) stepResult {
		return stepResult{rate: rate, attempted: 1000, p99ms: p99, lagP99ms: 1}
	}
	// All pass: the top rate, with nothing above it to interpolate to.
	if i, g := p.goodput([]stepResult{step(400, 2), step(800, 5)}); i != 1 || g != 800 {
		t.Errorf("all passing: got (%d, %v), want (1, 800)", i, g)
	}
	// None pass.
	if i, g := p.goodput([]stepResult{step(400, 40), step(800, 90)}); i != -1 || g != 0 {
		t.Errorf("none passing: got (%d, %v), want (-1, 0)", i, g)
	}
	// p99 at half the limit, then at twice it: the log crossing is
	// half way between the steps.
	if i, g := p.goodput([]stepResult{step(400, 2), step(1000, 10), step(2000, 40)}); i != 1 || math.Abs(g-1500) > 1e-9 {
		t.Errorf("interpolated: got (%d, %v), want (1, 1500)", i, g)
	}
	// Just missing the limit lands just below the failing step, just
	// meeting it lands just above the passing one: no jump.
	_, miss := p.goodput([]stepResult{step(1000, 10), step(2000, 20.2)})
	_, meet := p.goodput([]stepResult{step(1000, 10), step(2000, 19.8), step(3000, 200)})
	if miss < 1950 || miss >= 2000 || meet < 2000 || meet > 2050 {
		t.Errorf("near the limit: missing gives %v, meeting gives %v", miss, meet)
	}
	// A refused share above 0.1% fails the step whatever its latency,
	// and an infinite p99 (over 1% refused) still interpolates.
	refused := step(2000, 5)
	refused.failed = 2
	if p.meets(refused) {
		t.Error("a step with 0.2% refused met the policy")
	}
	if _, g := p.goodput([]stepResult{step(1000, 10), step(2000, math.Inf(1))}); g <= 1000 || g >= 2000 || math.IsNaN(g) {
		t.Errorf("infinite p99 above: goodput %v, want within (1000, 2000)", g)
	}
	// A generator that cannot keep up fails the step.
	late := step(1000, 5)
	late.lagP99ms = 11
	if p.meets(late) {
		t.Error("a step whose generator ran 11 ms late met a 10 ms limit")
	}
	// The highest passing step counts even above a transient miss.
	if i, _ := p.goodput([]stepResult{step(400, 2), step(800, 30), step(1200, 10), step(1600, 80)}); i != 2 {
		t.Errorf("transient miss below: highest passing step %d, want 2", i)
	}
}

func TestFrameDigest(t *testing.T) {
	res := &phy.Result{StreamOK: []bool{true, true}, SymbolErrors: 3, Symbols: 192}
	st := core.Stats{PEDCalcs: 100, VisitedNodes: 40}
	base := frameDigest(7, res, st)
	if frameDigest(7, &phy.Result{StreamOK: []bool{true, true}, SymbolErrors: 3, Symbols: 192}, st) != base {
		t.Fatal("digest is not a function of its inputs")
	}
	for name, d := range map[string]uint64{
		"frame":   frameDigest(8, res, st),
		"crc":     frameDigest(7, &phy.Result{StreamOK: []bool{true, false}, SymbolErrors: 3, Symbols: 192}, st),
		"streams": frameDigest(7, &phy.Result{StreamOK: []bool{true}, SymbolErrors: 3, Symbols: 192}, st),
		"errors":  frameDigest(7, &phy.Result{StreamOK: []bool{true, true}, SymbolErrors: 4, Symbols: 192}, st),
		"peds":    frameDigest(7, res, core.Stats{PEDCalcs: 101, VisitedNodes: 40}),
		"nodes":   frameDigest(7, res, core.Stats{PEDCalcs: 100, VisitedNodes: 41}),
	} {
		if d == base {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
}

func TestSliceScaling(t *testing.T) {
	ss := []slice{
		{frames: 1000, dur: time.Second, cal: calibRef},         // reference speed
		{frames: 500, dur: time.Second, cal: 2 * calibRef},      // kernel twice as slow
		{frames: 3000, dur: 2 * time.Second, cal: calibRef / 2}, // kernel twice as fast
	}
	half := math.Pow(0.5, speedElasticity) // speed at twice the reference kernel time
	wants := []float64{1000, 500 / half, 1500 * half}
	for i, want := range wants {
		if got := ss[i].scaledRate(); math.Abs(got-want) > 1e-9 {
			t.Errorf("slice %d: scaled rate %v, want %v", i, got, want)
		}
	}
	if got := ss[1].speed(); math.Abs(got-half) > 1e-12 || got >= 1 {
		t.Errorf("speed at twice the reference kernel time = %v, want %v", got, half)
	}
	sort.Float64s(wants)
	if got := medianScaledRate(ss); got != wants[1] {
		t.Errorf("median scaled rate %v, want %v", got, wants[1])
	}
	if d := calibrateAll(); d <= 0 {
		t.Errorf("calibration took %v", d)
	}
}

func TestTimedDetectorForwards(t *testing.T) {
	cons := constellation.QAM16
	timer := &coreTimer{clock: clock{base: time.Now()}}
	adaptive, err := policy.NewDetector(cons, 30, policy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	det, err := wrapTimed(adaptive, timer)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := det.(core.SharedPreparer); !ok {
		t.Error("wrapped adaptive detector is not a SharedPreparer")
	}
	if _, ok := det.(core.Counter); !ok {
		t.Error("wrapped adaptive detector is not a Counter")
	}
	if _, ok := det.(obs.Target); !ok {
		t.Error("wrapped adaptive detector is not an obs.Target")
	}
	sched, ok := det.(scheduler)
	if !ok {
		t.Fatal("wrapped adaptive detector lost Sched")
	}
	plain, err := wrapTimed(core.NewGeosphere(cons), timer)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.(scheduler); ok {
		t.Error("wrapped Geosphere claims scheduler counters it does not have")
	}

	h := channel.Rayleigh(rng.New(1), 4, 4)
	pool := core.NewPrepPool(1)
	for i := 0; i < 2; i++ {
		if err := pool.Prepare(det, 0, h); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := det.Detect(make([]int, 4), make([]complex128, 4)); err != nil {
		t.Fatal(err)
	}
	var kinds []uint8
	for _, c := range timer.calls {
		kinds = append(kinds, c.kind)
		if c.end < c.start {
			t.Errorf("call %d ends before it starts", c.kind)
		}
	}
	if want := []uint8{callPrepMiss, callPrepHit, callDetect}; len(kinds) != 3 || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
		t.Errorf("recorded call kinds %v, want %v", kinds, want)
	}
	if hits, misses := pool.Counters(); hits != 1 || misses != 1 {
		t.Errorf("pool saw %d hits and %d misses through the wrapper, want 1 and 1", hits, misses)
	}
	if s := sched.Sched(); s.GatePass+s.GateFail != 1 {
		t.Errorf("scheduler counted %d detections, want 1", s.GatePass+s.GateFail)
	}
	if st, _ := core.StatsOf(det); st != adaptive.Stats() {
		t.Error("wrapper statistics differ from the wrapped detector's")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric and workload names the
// program prints in step with the BENCHMARK.json beside it.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i])
		}
	}
}

// TestLinkRunsCheckOut runs both link workloads briefly in both modes
// and checks that every output check passes and every metric is set.
func TestLinkRunsCheckOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the link pipeline")
	}
	for _, wl := range []string{"link-kappa", "link-rayleigh"} {
		for _, trace := range []bool{false, true} {
			o := options{workload: wl, seed: 5, duration: 300 * time.Millisecond, trace: trace, out: t.TempDir()}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%q", wl, trace, res.Correct, res.Attempted, res.Failed, res.notes)
			}
			if trace {
				hit := res.Metrics["core.prepare_hit_share"].Value
				if want := map[string]float64{"link-kappa": 1, "link-rayleigh": 0}[wl]; hit != want {
					t.Errorf("%s: core.prepare_hit_share %v, want %v", wl, hit, want)
				}
			}
		}
	}
}

// TestServeRunChecksOut runs serve-open briefly in both modes: the
// generator, the per-request goroutines and the traced recorder share
// state with the server's shards, so run it under -race too.
func TestServeRunChecksOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving layer")
	}
	for _, trace := range []bool{false, true} {
		o := options{workload: "serve-open", seed: 5, duration: time.Second, trace: trace, out: t.TempDir()}
		res, err := run(o)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d notes=%q", trace, res.Correct, res.Attempted, res.Failed, res.notes)
		}
		if trace && res.Metrics["serve.batch_mean"].Value < 1 {
			t.Errorf("serve.batch_mean %v, want at least 1", res.Metrics["serve.batch_mean"].Value)
		}
	}
}
