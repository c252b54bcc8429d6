package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/ofdm"
	"repro/internal/phy"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/units"
)

const (
	// kappaMaxdB tops the link-kappa condition ramp: κ² rises linearly
	// from 0 dB on the first data subcarrier to this on the last.
	kappaMaxdB = 55
	// kappaTraceSeed draws the ramp's matrices. The trace is part of the
	// workload's definition, as a recorded trace would be (it is the
	// geobench κ²-sweep trace), so its cost does not vary with --seed;
	// the seed drives every frame's payload and noise.
	kappaTraceSeed = 77
	// rayleighSets is how many per-frame Rayleigh channels link-rayleigh
	// draws up front; frame i uses set i mod rayleighSets, so no two
	// consecutive frames of a worker share a channel and every
	// preparation misses, while drawing stays out of the timed window.
	rayleighSets = 512
	// warmupFrames is the frames each worker runs before timing starts,
	// enough to fill the preparation caches and the pipeline scratch.
	warmupFrames = 8
	// coldChecks is how many of a run's frames are recomputed on the
	// cold path (fresh detector, no preparation cache) and compared.
	coldChecks = 24
	// traceChunk is the untraced slice of a traced run; the traced
	// pass then replays exactly the frames that slice decoded.
	traceChunk = 200 * time.Millisecond
	// countFrames is the window of frame indices the work counts are
	// taken over, so that for a given seed they repeat exactly whatever
	// the host's speed.
	countFrames = 1024
)

// linkSpec is one link workload: the frame format, the detector and
// the channel every frame index sees. All of it derives from the seed.
type linkSpec struct {
	cfg      link.RunConfig
	newDet   func() (core.Detector, error)
	channels func(frame int64) []*cmplxmat.Matrix
}

// frameFormat is the 4×4 16-QAM rate-1/2 two-symbol frame both link
// workloads decode, at 30 dB SNR: at 24 dB about 0.4% of link-kappa's
// frames fail their CRC on the ill-conditioned tail, and the workloads
// are chosen so that no frame fails.
func frameFormat(seed int64) link.RunConfig {
	return link.RunConfig{Cons: constellation.QAM16, Rate: fec.Rate12, NumSymbols: 2, SNRdB: 30, Seed: seed}
}

// newLinkSpec builds link-kappa or link-rayleigh from the seed.
func newLinkSpec(name string, seed int64) (*linkSpec, error) {
	cfg := frameFormat(seed)
	switch name {
	case "link-kappa":
		cfg.AdaptiveDetect = true
		src := rng.New(kappaTraceSeed)
		hs := make([]*cmplxmat.Matrix, ofdm.NumData)
		for i := range hs {
			k2 := units.DB(kappaMaxdB * float64(i) / float64(len(hs)-1))
			h, err := channel.Conditioned(src, 4, 4, k2)
			if err != nil {
				return nil, err
			}
			hs[i] = h
		}
		return &linkSpec{
			cfg: cfg,
			newDet: func() (core.Detector, error) {
				return policy.NewDetector(cfg.Cons, units.DB(cfg.SNRdB), cfg.Adaptive)
			},
			channels: func(int64) []*cmplxmat.Matrix { return hs },
		}, nil
	case "link-rayleigh":
		src := rng.Substream(seed+1, 0)
		sets := make([][]*cmplxmat.Matrix, rayleighSets)
		for i := range sets {
			h := channel.Rayleigh(src, 4, 4)
			sets[i] = make([]*cmplxmat.Matrix, ofdm.NumData)
			for s := range sets[i] {
				sets[i][s] = h
			}
		}
		return &linkSpec{
			cfg:      cfg,
			newDet:   func() (core.Detector, error) { return core.NewGeosphere(cfg.Cons), nil },
			channels: func(fi int64) []*cmplxmat.Matrix { return sets[(fi%rayleighSets+rayleighSets)%rayleighSets] },
		}, nil
	}
	return nil, fmt.Errorf("unknown link workload %q", name)
}

// frameRec is one decoded frame of an untraced pass.
type frameRec struct {
	frame  int64
	slice  int
	dur    time.Duration
	digest uint64
}

// decodeCounter counts the stream decodes a traced link reports.
type decodeCounter struct{ n atomic.Int64 }

func (c *decodeCounter) RecordDetect(obs.DetectSample) {}
func (c *decodeCounter) RecordDecode(obs.DecodeSample) { c.n.Add(1) }
func (c *decodeCounter) RecordFrame(obs.FrameSample)   {}
func (c *decodeCounter) RecordPoint(obs.PointSample)   {}

// frameTrace is one traced frame: its span tree one layer below
// link.Processor.Process, and the core calls folded per kind.
type frameTrace struct {
	Frame  int64 `json:"frame"`
	Worker int   `json:"worker"`
	// Spans, in nanoseconds since the run's start: the whole frame
	// (substream through decode), phy.Link.Encode, and
	// phy.Link.TransmitReceive, whose children are the core calls.
	FrameSpan [2]int64 `json:"frame_span"`
	Encode    [2]int64 `json:"phy.encode"`
	TxRx      [2]int64 `json:"phy.txrx"`
	// Core calls under phy.txrx: [count, busy ns] per kind.
	PrepHit  [2]int64 `json:"core.prepare_hit"`
	PrepMiss [2]int64 `json:"core.prepare_miss"`
	Detect   [2]int64 `json:"core.detect"`
	// TxRxSelf is phy.txrx minus the union of its core children.
	TxRxSelf int64 `json:"phy.txrx_self_ns"`

	stats core.Stats
	sched policy.Counters
}

// linkWorker owns one link.Processor with its detector and
// preparation cache, plus, in a traced run, a second pipeline driven
// one layer down through phy.Link with a timed detector.
type linkWorker struct {
	id   int
	spec *linkSpec
	proc *link.Processor
	det  core.Detector
	pool *core.PrepPool

	recs   []frameRec
	failed int
	err    error
	// schedBase snapshots the adaptive scheduler's counters when the
	// timed window opens.
	schedBase policy.Counters

	// Traced pipeline.
	tl      *phy.Link
	tdet    core.Detector
	tpool   *core.PrepPool
	timer   *coreTimer
	decodes *decodeCounter
	traces  []frameTrace
	detNS   []float64
	// untracedNS and tracedNS total the same frames on both paths.
	untracedNS, tracedNS int64
	mismatches           int
}

func newLinkWorker(id int, spec *linkSpec, traced bool, clk clock) (*linkWorker, error) {
	proc, err := link.NewProcessor(spec.cfg)
	if err != nil {
		return nil, err
	}
	det, err := spec.newDet()
	if err != nil {
		return nil, err
	}
	w := &linkWorker{id: id, spec: spec, proc: proc, det: det, pool: core.NewPrepPool(ofdm.NumData)}
	w.recs = make([]frameRec, 0, 1<<15)
	if !traced {
		return w, nil
	}
	w.decodes = &decodeCounter{}
	w.tl, err = phy.NewLink(phy.Config{Cons: spec.cfg.Cons, Rate: spec.cfg.Rate, NumSymbols: spec.cfg.NumSymbols, Recorder: w.decodes})
	if err != nil {
		return nil, err
	}
	inner, err := spec.newDet()
	if err != nil {
		return nil, err
	}
	w.timer = &coreTimer{clock: clk, calls: make([]coreCall, 0, 4*ofdm.NumData*spec.cfg.NumSymbols)}
	if w.tdet, err = wrapTimed(inner, w.timer); err != nil {
		return nil, err
	}
	w.tpool = core.NewPrepPool(ofdm.NumData)
	w.tl.SetPrepPool(w.tpool)
	w.traces = make([]frameTrace, 0, 1<<14)
	w.detNS = make([]float64, 0, 1<<20)
	return w, nil
}

// process decodes one frame through link.Processor.Process.
func (w *linkWorker) process(fi int64) (frameRec, bool) {
	hs := w.spec.channels(fi)
	start := time.Now()
	out := w.proc.Process(link.Work{Frame: fi, Worker: w.id, Channels: hs, Det: w.det, Pool: w.pool})
	d := time.Since(start)
	if out.Err != nil {
		if w.err == nil {
			w.err = fmt.Errorf("frame %d: %w", fi, out.Err)
		}
		return frameRec{}, false
	}
	return frameRec{frame: fi, dur: d, digest: frameDigest(fi, out.Res, out.Stats)}, out.Res.FrameOK()
}

// runUntraced decodes frames from the shared counter until the
// deadline, recording each one as part of the given slice.
func (w *linkWorker) runUntraced(next *atomic.Int64, deadline time.Time, slice int) {
	for time.Now().Before(deadline) {
		rec, ok := w.process(next.Add(1) - 1)
		rec.slice = slice
		w.recs = append(w.recs, rec)
		if !ok {
			w.failed++
		}
	}
}

// tracedFrame decodes one frame one layer down, the same calls
// Process makes: the frame's substream, phy.Link.Encode, then
// phy.Link.TransmitReceive with the preparation cache attached.
func (w *linkWorker) tracedFrame(fi int64) (uint64, bool, error) {
	cfg := w.spec.cfg
	hs := w.spec.channels(fi)
	t := w.timer
	t.calls = t.calls[:0]
	before, _ := core.StatsOf(w.tdet)
	var schedBefore policy.Counters
	sched, adaptive := w.tdet.(scheduler)
	if adaptive {
		schedBefore = sched.Sched()
	}
	ft := frameTrace{Frame: fi, Worker: w.id}
	ft.FrameSpan[0] = t.now()
	src := rng.Substream(cfg.Seed, fi)
	ft.Encode[0] = t.now()
	f, err := w.tl.Encode(src, hs[0].Cols)
	ft.Encode[1] = t.now()
	if err != nil {
		return 0, false, err
	}
	ft.TxRx[0] = ft.Encode[1]
	res, err := w.tl.TransmitReceive(src, f, hs, w.tdet, w.proc.NoiseVar())
	ft.TxRx[1] = t.now()
	ft.FrameSpan[1] = ft.TxRx[1]
	if err != nil {
		return 0, false, err
	}
	after, _ := core.StatsOf(w.tdet)
	ft.stats = after.Sub(before)
	if adaptive {
		ft.sched = sched.Sched().Sub(schedBefore)
	}
	children := make([]span, 0, len(t.calls))
	for _, c := range t.calls {
		children = append(children, c.span)
		agg := &ft.Detect
		switch c.kind {
		case callPrepHit:
			agg = &ft.PrepHit
		case callPrepMiss:
			agg = &ft.PrepMiss
		default:
			w.detNS = append(w.detNS, float64(c.dur()))
		}
		agg[0]++
		agg[1] += c.dur()
	}
	ft.TxRxSelf = selfNS(span{ft.TxRx[0], ft.TxRx[1]}, children)
	w.traces = append(w.traces, ft)
	return frameDigest(fi, res, ft.stats), res.FrameOK(), nil
}

// runTraced alternates an untraced slice of frames with a traced
// replay of exactly those frames until the deadline, so tracing
// overhead is measured on identical work and every traced frame's
// digest is checked against its untraced twin.
func (w *linkWorker) runTraced(next *atomic.Int64, deadline time.Time) {
	for time.Now().Before(deadline) {
		first := len(w.recs)
		w.runUntraced(next, time.Now().Add(traceChunk), 0)
		for _, rec := range w.recs[first:] {
			start := time.Now()
			digest, ok, err := w.tracedFrame(rec.frame)
			d := time.Since(start)
			if err != nil {
				if w.err == nil {
					w.err = fmt.Errorf("traced frame %d: %w", rec.frame, err)
				}
				return
			}
			if !ok {
				w.failed++
			}
			if digest != rec.digest {
				w.mismatches++
			}
			w.untracedNS += int64(rec.dur)
			w.tracedNS += int64(d)
		}
	}
}

// coldCheck recomputes a spread sample of the run's frames on the
// cold path — a fresh detector per frame and no preparation cache —
// and returns how many digests differ.
func coldCheck(spec *linkSpec, recs []frameRec) (checked, bad int, err error) {
	proc, err := link.NewProcessor(spec.cfg)
	if err != nil {
		return 0, 0, err
	}
	step := len(recs)/coldChecks + 1
	for i := 0; i < len(recs); i += step {
		rec := recs[i]
		det, err := spec.newDet()
		if err != nil {
			return 0, 0, err
		}
		out := proc.Process(link.Work{Frame: rec.frame, Channels: spec.channels(rec.frame), Det: det})
		if out.Err != nil {
			return 0, 0, out.Err
		}
		checked++
		if frameDigest(rec.frame, out.Res, out.Stats) != rec.digest {
			bad++
		}
	}
	return checked, bad, nil
}

// linkSetup builds every worker and runs its warm-up frames.
func linkSetup(spec *linkSpec, workers int, traced bool, clk clock) ([]*linkWorker, error) {
	ws := make([]*linkWorker, workers)
	for i := range ws {
		w, err := newLinkWorker(i, spec, traced, clk)
		if err != nil {
			return nil, err
		}
		for k := 0; k < warmupFrames; k++ {
			fi := int64(-1 - (i*warmupFrames + k))
			if _, ok := w.process(fi); !ok || w.err != nil {
				return nil, fmt.Errorf("warm-up frame %d failed: %v", fi, w.err)
			}
			if traced {
				if _, _, err := w.tracedFrame(fi); err != nil {
					return nil, err
				}
			}
		}
		if traced {
			w.traces = w.traces[:0]
			w.detNS = w.detNS[:0]
			w.decodes.n.Store(0)
		}
		ws[i] = w
	}
	return ws, nil
}

// runLink runs one link workload and fills the result.
func runLink(opt options, res *result) error {
	var ws []*linkWorker
	var spec *linkSpec
	clk := clock{base: time.Now()}
	rawSetups, setups, err := timeSetups(nil, func() error {
		var err error
		if spec, err = newLinkSpec(opt.workload, opt.seed); err != nil {
			return err
		}
		ws, err = linkSetup(spec, runtime.NumCPU(), opt.trace, clk)
		return err
	})
	if err != nil {
		return err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, w := range ws {
		if s, ok := w.det.(scheduler); ok {
			w.schedBase = s.Sched()
		}
	}
	var next atomic.Int64
	heap := startHeapSampler()
	start := time.Now()
	var slices []slice
	if opt.trace {
		runWorkers(ws, func(w *linkWorker) { w.runTraced(&next, start.Add(opt.duration)) })
	} else {
		// Untraced runs measure in slices with a calibration after each.
		for k := 0; time.Since(start) < opt.duration; k++ {
			sStart := time.Now()
			deadline := sStart.Add(sliceLen)
			if end := start.Add(opt.duration); deadline.After(end) {
				deadline = end
			}
			runWorkers(ws, func(w *linkWorker) { w.runUntraced(&next, deadline, k) })
			slices = append(slices, slice{dur: time.Since(sStart), cal: calibrateAll()})
		}
	}
	elapsed := time.Since(start)
	heapPeak := heap.stop()
	runtime.ReadMemStats(&ms1)

	var recs []frameRec
	failed := 0
	for _, w := range ws {
		if w.err != nil {
			return w.err
		}
		recs = append(recs, w.recs...)
		failed += w.failed
	}
	durMS := make([]float64, 0, len(recs))
	scaledMS := make([]float64, 0, len(recs))
	for _, r := range recs {
		durMS = append(durMS, msOf(r.dur))
		if !opt.trace {
			slices[r.slice].frames++
			scaledMS = append(scaledMS, msOf(r.dur)*slices[r.slice].speed())
		}
	}
	checked, bad, err := coldCheck(spec, recs)
	if err != nil {
		return err
	}
	res.Attempted = len(recs)
	res.Failed = failed
	if bad > 0 {
		res.Correct = false
		res.note("cold-path digest mismatch on %d sampled frames", bad)
	}
	frames := float64(len(recs))
	res.note("frames=%d workers=%d elapsed_s=%.3f failed=%d cold_path_checked=%d mismatched=%d", len(recs), len(ws), elapsed.Seconds(), failed, checked, bad)
	if !opt.trace {
		// Share of detections with an exact-ML answer: gate passes are
		// provably ML and sphere searches exact; only K-best is not.
		full := 1.0
		if a := adaptiveTotals(ws); a.GatePass+a.GateFail > 0 {
			full = 1 - ratio(float64(a.KBestFallbacks), float64(a.GatePass+a.GateFail))
		}
		// Rates and latencies at reference host speed (see calib.go).
		speeds := make([]float64, len(slices))
		var worked time.Duration
		for i, s := range slices {
			speeds[i] = s.speed()
			worked += s.dur
		}
		res.note("as measured: goodput_fps=%.1f latency_ms_p50=%.4f setup_s=%.6f; host speed vs reference: median %.3f over %d slices",
			ratio(frames-float64(failed), worked.Seconds()), percentile(durMS, 50), median(rawSetups), median(speeds), len(slices))
		res.set("goodput_fps", "1/s", medianScaledRate(slices)*(1-ratio(float64(failed), frames)))
		res.set("latency_ms_p50", "ms", percentile(scaledMS, 50))
		res.set("full_search_share", "share", full)
		res.set("ok_share", "share", ratio(float64(len(recs)-failed), frames))
		res.set("alloc_kb_per_frame", "KB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/frames)
		res.set("setup_s", "s", median(setups))
		return nil
	}
	return linkLayers(opt, res, spec, ws, durMS, ms0, ms1, heapPeak)
}

// runWorkers runs f on every worker concurrently and waits for all.
func runWorkers(ws []*linkWorker, f func(*linkWorker)) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *linkWorker) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

// adaptiveTotals sums the untraced detectors' scheduler counters.
func adaptiveTotals(ws []*linkWorker) policy.Counters {
	var t policy.Counters
	for _, w := range ws {
		if s, ok := w.det.(scheduler); ok {
			c := s.Sched().Sub(w.schedBase)
			t.GatePass += c.GatePass
			t.GateFail += c.GateFail
			t.KBestFallbacks += c.KBestFallbacks
			t.SphereFallbacks += c.SphereFallbacks
		}
	}
	return t
}

// linkLayers turns a traced link run into the per-layer metrics, the
// reconciliation line and the span file.
func linkLayers(opt options, res *result, spec *linkSpec, ws []*linkWorker, durMS []float64, ms0, ms1 runtime.MemStats, heapPeakMB float64) error {
	var traces []frameTrace
	var detNS []float64
	var untracedNS, tracedNS int64
	var decodes int64
	mismatches := 0
	for _, w := range ws {
		traces = append(traces, w.traces...)
		detNS = append(detNS, w.detNS...)
		untracedNS += w.untracedNS
		tracedNS += w.tracedNS
		decodes += w.decodes.n.Load()
		mismatches += w.mismatches
	}
	if len(traces) == 0 {
		return fmt.Errorf("traced run decoded no frames")
	}
	if mismatches > 0 {
		res.Correct = false
		res.note("traced digest differs from untraced on %d frames", mismatches)
	}
	var encNS, txrxSelfNS, linkSelfNS int64
	var hit, miss, det [2]int64
	// Work counts over the frames below countFrames.
	var st core.Stats
	var sc policy.Counters
	var counted, countedDetects float64
	frameUS := make([]float64, 0, len(traces))
	for _, t := range traces {
		frameNS := t.FrameSpan[1] - t.FrameSpan[0]
		frameUS = append(frameUS, float64(frameNS)/1e3)
		encNS += t.Encode[1] - t.Encode[0]
		txrxSelfNS += t.TxRxSelf
		linkSelfNS += selfNS(span{t.FrameSpan[0], t.FrameSpan[1]}, []span{{t.Encode[0], t.Encode[1]}, {t.TxRx[0], t.TxRx[1]}})
		for i := 0; i < 2; i++ {
			hit[i] += t.PrepHit[i]
			miss[i] += t.PrepMiss[i]
			det[i] += t.Detect[i]
		}
		if t.Frame < countFrames {
			counted++
			countedDetects += float64(t.Detect[0])
			st.Add(t.stats)
			sc.GatePass += t.sched.GatePass
			sc.KBestFallbacks += t.sched.KBestFallbacks
			sc.SphereFallbacks += t.sched.SphereFallbacks
		}
	}
	n := float64(len(traces))
	detects := float64(det[0])
	vitUS := viterbiProbe(spec.cfg, opt.seed)

	res.set("latency_ms_p99", "ms", percentile(durMS, 99))
	res.set("link.frame_us_p50", "us", percentile(frameUS, 50))
	res.set("phy.encode_us", "us", float64(encNS)/n/1e3)
	res.set("phy.txrx_self_us", "us", float64(txrxSelfNS)/n/1e3)
	// A frame decodes every subcarrier's channel once per OFDM symbol;
	// a channel is served from the cache unless its first preparation
	// in the frame misses.
	channels := n * float64(ofdm.NumData)
	res.set("core.prepare_hit_share", "share", 1-ratio(float64(miss[0]), channels))
	res.set("core.prepare_hit_ns", "ns", ratio(float64(hit[1]), float64(hit[0])))
	res.set("core.prepare_miss_us", "us", ratio(float64(miss[1]), float64(miss[0]))/1e3)
	res.set("core.detect_ns_p50", "ns", percentile(detNS, 50))
	res.set("core.detect_ns_p99", "ns", percentile(detNS, 99))
	res.set("core.ped_per_detect", "count", ratio(float64(st.PEDCalcs), countedDetects))
	res.set("core.nodes_per_detect", "count", ratio(float64(st.VisitedNodes), countedDetects))
	res.set("core.proj_reuse_per_detect", "count", ratio(float64(st.ProjReuse), countedDetects))
	res.set("policy.gate_pass_share", "share", ratio(float64(sc.GatePass), countedDetects))
	res.set("policy.sphere_share", "share", ratio(float64(sc.SphereFallbacks), countedDetects))
	res.set("policy.fallbacks_per_frame", "count", ratio(float64(sc.KBestFallbacks+sc.SphereFallbacks), counted))
	res.set("fec.decodes_per_frame", "count", float64(decodes)/n)
	res.set("fec.viterbi_us_per_stream", "us", vitUS)
	allFrames := float64(len(traces)) + float64(res.Attempted)
	res.set("go.gc_per_kframe", "count", float64(ms1.NumGC-ms0.NumGC)/allFrames*1e3)
	res.set("go.heap_mb_peak", "MB", heapPeakMB)
	overhead := ratio(float64(tracedNS-untracedNS), float64(untracedNS))
	res.set("bench.trace_overhead_share", "share", overhead)

	// Reconciliation: the named layers' self times against the
	// untraced Process time of the same frames. The residual is the
	// frame's own glue (substream seeding, counter snapshots) net of
	// the time tracing adds inside the layers.
	measuredUS := float64(untracedNS) / n / 1e3
	layers := []struct {
		name string
		us   float64
	}{
		{"phy.encode", float64(encNS) / n / 1e3},
		{"phy.txrx_self", float64(txrxSelfNS) / n / 1e3},
		{"core.prepare_hit", float64(hit[1]) / n / 1e3},
		{"core.prepare_miss", float64(miss[1]) / n / 1e3},
		{"core.detect", float64(det[1]) / n / 1e3},
	}
	var sumUS float64
	line := ""
	for _, l := range layers {
		sumUS += l.us
		line += fmt.Sprintf(" %s=%.2f", l.name, l.us)
	}
	residual := ratio(measuredUS-sumUS, measuredUS)
	res.set("bench.reconcile_residual_share", "share", residual)
	res.note("reconcile %s: measured_us=%.2f sum_us=%.2f residual_us=%.2f residual_share=%.4f (frame glue_us=%.2f, trace_overhead_share=%.4f) per frame:%s viterbi_probe_us_per_stream=%.2f x %d streams",
		opt.workload, measuredUS, sumUS, measuredUS-sumUS, residual, float64(linkSelfNS)/n/1e3, overhead, line, vitUS, ws[0].spec.channels(0)[0].Cols)
	res.note("core: prepare calls/frame=%.1f (hits %.1f, misses %.1f), detects/frame=%.1f; work counts over frames 0..%d: peds=%d nodes=%d proj_reuse=%d",
		float64(hit[0]+miss[0])/n, float64(hit[0])/n, float64(miss[0])/n, detects/n, int(counted)-1, st.PEDCalcs, st.VisitedNodes, st.ProjReuse)
	return writeLinkTrace(opt, traces)
}

// writeLinkTrace writes the traced frames' spans, one JSON line each.
func writeLinkTrace(opt options, traces []frameTrace) error {
	tw, err := newTraceWriter(opt.traceDir(), opt.traceFile())
	if err != nil {
		return err
	}
	for i := range traces {
		if err := tw.write(&traces[i]); err != nil {
			tw.close()
			return err
		}
	}
	return tw.close()
}

// viterbiProbe times fec.ViterbiWorkspace.DecodeHardMetric in
// isolation on blocks of the frame's depunctured length and returns
// the median microseconds per decode.
func viterbiProbe(cfg link.RunConfig, seed int64) float64 {
	pc := phy.Config{Cons: cfg.Cons, Rate: cfg.Rate, NumSymbols: cfg.NumSymbols}
	motherLen := 2 * (pc.InfoBits() + fec.ConstraintLength - 1)
	src := rng.Substream(seed+2, 0)
	vals := make([]int8, motherLen)
	for i := range vals {
		vals[i] = int8(2*src.Intn(2) - 1)
	}
	var ws fec.ViterbiWorkspace
	const batch = 64
	var perUS []float64
	deadline := time.Now().Add(viterbiProbeTime)
	for time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if _, _, err := ws.DecodeHardMetric(vals); err != nil {
				return 0
			}
		}
		perUS = append(perUS, float64(time.Since(start))/batch/1e3)
	}
	return median(perUS)
}
