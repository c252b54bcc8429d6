package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/constellation"
	"repro/internal/fec"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// The serve-open workload: open-loop Poisson arrivals from a single
// generator goroutine into serve.Server (default 4×2 antennas, 8
// symbols, 8 shards), stepping through fixed offered rates.
const (
	// maxGroups caps each shard's resident group table well below the
	// user population, so clock eviction and lazy rebuilds run
	// throughout: 8 shards × 32 = 256 resident groups of 2048 users.
	maxGroups  = 32
	population = 2048
	// snrDB is the per-stream SNR, 30 dB like the link workloads: at the
	// service's default 25 dB the zero-forcing rung that overload falls
	// back to fails some CRCs, and the workloads are chosen so that no
	// frame fails.
	snrDB = 30
	// zipfS skews user popularity: a few users send most frames.
	zipfS = 1.2
	// settle is the start of every step whose arrivals are issued but
	// not measured, so each step is measured in its steady state.
	settle = 500 * time.Millisecond
	// warmupRequests is the closed-loop burst that warms a fresh
	// server's shards and hot groups before timing starts.
	warmupRequests = 200
	// subWindows splits every step's measured window; the step's p99
	// and generator lag are the median over the parts, so a host stall
	// of a fraction of a second moves one part, not the step.
	subWindows = 3
)

// stepRates are the offered loads, from well below the knee to past it.
var stepRates = []float64{400, 1200, 1600, 1800, 2000, 2200, 2400, 2800}

// slo is the goodput criterion: at most 0.1% refused or failed, a p99
// due-to-reply latency within 25 ms (below the 33–87 ms tail at the
// knee) and a generator no more than 12.5 ms late at its p99, half the
// latency budget, so the offered load is the nominal one.
var slo = sloPolicy{maxFailShare: 0.001, p99ms: 25, maxLagMS: 12.5}

// arrival is one scheduled request.
type arrival struct {
	at   time.Duration // offset from the step's start
	user uint64
}

// userPicker draws users from r by Zipf popularity, mapped through a
// permutation fixed by the seed so the popular users spread over
// shards.
func userPicker(seed int64, r *rand.Rand) func() uint64 {
	perm := rand.New(rand.NewSource(seed)).Perm(population)
	z := rand.NewZipf(r, zipfS, 1, population-1)
	return func() uint64 { return uint64(perm[z.Uint64()]) }
}

// schedule draws a step's Poisson arrivals at rate for length d.
func schedule(seed int64, step int, rate float64, d time.Duration) []arrival {
	r := rand.New(rand.NewSource(rng.SubSeed(seed, int64(step))))
	pick := userPicker(seed, r)
	var out []arrival
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{at: at, user: pick()})
	}
}

// reqRec is one request's outcome.
type reqRec struct {
	part     int           // sub-window of the measured window
	lag      time.Duration // generator lateness
	latency  time.Duration // due to reply
	refused  bool
	err      bool
	crcFail  bool
	tier     obs.Tier
	frame    int64
	linkTime time.Duration // the frame's link time, traced runs only
}

// stepRun is one step's requests plus the server counters around it.
type stepRun struct {
	rate     float64
	measured []reqRec // requests due after settle
	before   serve.StatsSnapshot
	after    serve.StatsSnapshot
}

// frameJoin is the traced run's recorder: it keeps every frame's link
// time until the request that owns it reads it, and counts the core
// and fec samples.
type frameJoin struct {
	mu   sync.Mutex
	link map[int64]time.Duration

	frames, prepHits, prepMisses, projReuse atomic.Int64
	detects, peds, nodes, decodes           atomic.Int64
}

func newFrameJoin() *frameJoin { return &frameJoin{link: map[int64]time.Duration{}} }

func (j *frameJoin) RecordDetect(s obs.DetectSample) {
	var p, n int64
	for _, l := range s.Levels {
		p += l.PEDCalcs
		n += l.Nodes
	}
	j.detects.Add(1)
	j.peds.Add(p)
	j.nodes.Add(n)
}

func (j *frameJoin) RecordDecode(obs.DecodeSample) { j.decodes.Add(1) }
func (j *frameJoin) RecordPoint(obs.PointSample)   {}

func (j *frameJoin) RecordFrame(s obs.FrameSample) {
	j.frames.Add(1)
	j.prepHits.Add(int64(s.PrepHits))
	j.prepMisses.Add(int64(s.PrepMisses))
	j.projReuse.Add(s.ProjReuse)
	j.mu.Lock()
	j.link[int64(s.Frame)] = s.Duration
	j.mu.Unlock()
}

// take returns and forgets frame's link time.
func (j *frameJoin) take(frame int64) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	d := j.link[frame]
	delete(j.link, frame)
	return d
}

// newWarmServer builds the served system — the library defaults except
// the small residency cap — and warms it with a closed-loop burst over
// the popular users. rec may be nil.
func newWarmServer(seed int64, rec obs.Recorder) (*serve.Server, error) {
	srv, err := serve.New(serve.Config{Seed: seed, SNRdB: snrDB, MaxGroups: maxGroups, Recorder: rec})
	if err != nil {
		return nil, err
	}
	pick := userPicker(seed, rand.New(rand.NewSource(rng.SubSeed(seed, -1))))
	warm := make([]uint64, warmupRequests)
	for i := range warm {
		warm[i] = pick()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(warm)) {
					return
				}
				if o, err := srv.Process(context.Background(), warm[i]); err != nil || !o.OK {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		srv.Close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", n, warmupRequests)
	}
	return srv, nil
}

// runStep offers one step's schedule from a single generator
// goroutine. Each request is sent at its due time, or as soon after as
// the generator gets there, by its own goroutine; latency runs from
// the due time, so a late generator or a stalled service shows in it.
func runStep(srv *serve.Server, join *frameJoin, seed int64, step int, rate float64, window time.Duration) stepRun {
	arr := schedule(seed, step, rate, settle+window)
	recs := make([]reqRec, len(arr))
	sr := stepRun{rate: rate, before: srv.Stats().Snapshot()}
	var wg sync.WaitGroup
	base := time.Now()
	for i, a := range arr {
		due := base.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		wg.Add(1)
		go func(rec *reqRec, user uint64, due time.Time) {
			defer wg.Done()
			o, err := srv.Process(context.Background(), user)
			rec.latency = time.Since(due)
			switch {
			case errors.Is(err, serve.ErrOverload):
				rec.refused = true
			case err != nil:
				rec.err = true
			case !o.OK:
				rec.crcFail = true
			}
			rec.tier, rec.frame = o.Tier, o.Frame
			if join != nil && err == nil {
				rec.linkTime = join.take(o.Frame)
			}
		}(&recs[i], a.user, due)
		recs[i].lag = lag
	}
	wg.Wait()
	sr.after = srv.Stats().Snapshot()
	for i, a := range arr {
		if a.at >= settle {
			recs[i].part = int((a.at - settle) * subWindows / window)
			sr.measured = append(sr.measured, recs[i])
		}
	}
	return sr
}

// summary folds a step's measured requests into the goodput test's
// inputs — the failure count over the whole window, and the median over
// its sub-windows of the p99 latency (failures count as infinitely
// late) and of the p99 generator lag — and returns the served
// requests' latencies.
func (s stepRun) summary() (stepResult, []float64) {
	r := stepResult{rate: s.rate, attempted: len(s.measured)}
	lat := make([]float64, 0, len(s.measured))
	var all, lag [subWindows][]float64
	for _, q := range s.measured {
		lag[q.part] = append(lag[q.part], msOf(q.lag))
		if q.refused || q.err || q.crcFail {
			r.failed++
			all[q.part] = append(all[q.part], math.Inf(1))
			continue
		}
		lat = append(lat, msOf(q.latency))
		all[q.part] = append(all[q.part], msOf(q.latency))
	}
	var p99s, lagP99s []float64
	for i := range all {
		p99s = append(p99s, percentile(all[i], 99))
		lagP99s = append(lagP99s, percentile(lag[i], 99))
	}
	r.p99ms = median(p99s)
	r.lagP99ms = median(lagP99s)
	return r, lat
}

// hardFailures counts the step's errors other than overload refusals
// and its CRC failures, which count at every step.
func (s stepRun) hardFailures() int {
	n := 0
	for _, q := range s.measured {
		if q.err || q.crcFail {
			n++
		}
	}
	return n
}

// ladder is a whole run of the rate steps.
type ladder struct {
	steps   []stepRun
	results []stepResult
	lat     [][]float64
	good    int     // index of the highest step meeting the SLO
	goodput float64 // interpolated goodput, frames per second
}

// stepWindow is one share of the measured time; the lowest step, whose
// latency the run reports, gets two shares.
func stepWindow(opt options, step int) time.Duration {
	w := opt.duration / time.Duration(len(stepRates)+1)
	if step == 0 {
		return 2 * w
	}
	return w
}

func runLadder(srv *serve.Server, join *frameJoin, opt options) ladder {
	var l ladder
	for i, rate := range stepRates {
		s := runStep(srv, join, opt.seed, i, rate, stepWindow(opt, i))
		r, lat := s.summary()
		l.steps = append(l.steps, s)
		l.results = append(l.results, r)
		l.lat = append(l.lat, lat)
	}
	l.good, l.goodput = slo.goodput(l.results)
	return l
}

// served returns the steps that count as served load: those up to the
// goodput step, or the lowest step when none meets the SLO.
func (l ladder) served() []stepRun {
	if l.good < 0 {
		return l.steps[:1]
	}
	return l.steps[:l.good+1]
}

// counts folds the attempts and failures: every request of the served
// steps is attempted and each refused or failed one fails; above the
// goodput step refusals are the designed overload response, while
// errors and CRC failures still count.
func (l ladder) counts() (attempted, failed int) {
	n := len(l.served())
	for i, s := range l.steps {
		if i < n {
			attempted += l.results[i].attempted
			failed += l.results[i].failed
			continue
		}
		failed += s.hardFailures()
		for _, q := range s.measured {
			if !q.refused {
				attempted++
			}
		}
	}
	return attempted, failed
}

func (l ladder) note(res *result) {
	for i, s := range l.steps {
		r := l.results[i]
		d := s.after
		b := s.before
		frames := d.Frames - b.Frames
		batches := d.Batches - b.Batches
		occ := d.RingOccupancy.Sum - b.RingOccupancy.Sum
		occN := d.RingOccupancy.Count - b.RingOccupancy.Count
		lat := append([]float64(nil), l.lat[i]...)
		res.note("step %4.0f fps: attempted=%d failed=%d p50_ms=%.3f p99_ms=%.3f lag_p99_ms=%.3f slo_ratio=%.3f batch_mean=%.3f ring_occ_mean=%.3f tiers geo/kbest/zf=%d/%d/%d evictions=%d",
			r.rate, r.attempted, r.failed, percentile(lat, 50), r.p99ms, r.lagP99ms, slo.ratio(r),
			ratio(float64(frames), float64(batches)), ratio(occ, float64(occN)),
			d.Tiers.Geosphere-b.Tiers.Geosphere, d.Tiers.KBest-b.Tiers.KBest, d.Tiers.ZF-b.Tiers.ZF,
			d.GroupsEvicted-b.GroupsEvicted)
	}
}

// runServe runs serve-open and fills the result.
func runServe(opt options, res *result) error {
	var srv *serve.Server
	var join *frameJoin
	closeSrv := func() {
		if srv != nil {
			srv.Close()
			srv = nil
		}
	}
	rawSetups, setups, err := timeSetups(closeSrv, func() error {
		var rec obs.Recorder
		if opt.trace {
			join = newFrameJoin()
			rec = join
		}
		var err error
		srv, err = newWarmServer(opt.seed, rec)
		return err
	})
	defer closeSrv()
	if err != nil {
		return err
	}
	res.note("setup_s as measured: %.6f", median(rawSetups))

	var untracedMeanMS float64
	if opt.trace {
		// The untraced reference for the tracing overhead: the lowest
		// step on a server without a recorder.
		plain, err := newWarmServer(opt.seed, nil)
		if err != nil {
			return err
		}
		s := runStep(plain, nil, opt.seed, 0, stepRates[0], stepWindow(opt, 0))
		plain.Close()
		_, lat := s.summary()
		untracedMeanMS = mean(lat)
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := startHeapSampler()
	l := runLadder(srv, join, opt)
	heapPeak := heap.stop()
	runtime.ReadMemStats(&ms1)
	l.note(res)

	res.Attempted, res.Failed = l.counts()
	for _, s := range l.steps {
		if s.hardFailures() > 0 {
			res.note("errors or CRC failures at %.0f fps: %d", s.rate, s.hardFailures())
		}
	}
	served := l.served()
	var geo, frames int64
	for _, s := range served {
		geo += s.after.Tiers.Geosphere - s.before.Tiers.Geosphere
		frames += s.after.Frames - s.before.Frames
	}
	res.note("goodput_fps=%.1f: from the highest step with refusals+failures <= %.1f%%, p99 <= %g ms and generator lag p99 <= %g ms, toward the next step",
		l.goodput, 100*slo.maxFailShare, slo.p99ms, slo.maxLagMS)
	last := l.steps[len(l.steps)-1]
	allFrames := float64(last.after.Frames - l.steps[0].before.Frames)
	if !opt.trace {
		res.set("goodput_fps", "1/s", l.goodput)
		res.set("latency_ms_p50", "ms", percentile(l.lat[0], 50))
		res.set("full_search_share", "share", ratio(float64(geo), float64(frames)))
		res.set("ok_share", "share", 1-ratio(float64(res.Failed), float64(res.Attempted)))
		res.set("alloc_kb_per_frame", "KB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/allFrames)
		res.set("setup_s", "s", median(setups))
		return nil
	}
	return serveLayers(opt, res, l, join, untracedMeanMS, ms0, ms1, heapPeak)
}

// serveLayers turns the traced ladder into the per-layer metrics and
// writes its spans.
func serveLayers(opt options, res *result, l ladder, join *frameJoin, untracedMeanMS float64, ms0, ms1 runtime.MemStats, heapPeakMB float64) error {
	low := l.steps[0]
	var queue, linkUS, lat []float64
	for _, q := range low.measured {
		if q.refused || q.err {
			continue
		}
		queue = append(queue, msOf(q.latency-q.linkTime))
		linkUS = append(linkUS, float64(q.linkTime)/1e3)
		lat = append(lat, msOf(q.latency))
	}
	delta := func(steps []stepRun, f func(serve.StatsSnapshot) float64) float64 {
		v := 0.0
		for _, s := range steps {
			v += f(s.after) - f(s.before)
		}
		return v
	}
	served := l.served()
	top := l.steps[len(l.steps)-1:]
	frames := func(s serve.StatsSnapshot) float64 { return float64(s.Frames) }
	batches := func(s serve.StatsSnapshot) float64 { return float64(s.Batches) }
	all := l.steps
	allFrames := delta(all, frames)
	res.set("latency_ms_p99", "ms", percentile(lat, 99))
	res.set("serve.queue_ms_p50", "ms", percentile(queue, 50))
	res.set("serve.queue_ms_p99", "ms", percentile(queue, 99))
	res.set("serve.batch_mean", "count", ratio(delta(served, frames), delta(served, batches)))
	res.set("serve.batch_mean_top", "count", ratio(delta(top, frames), delta(top, batches)))
	res.set("serve.ring_occ_mean", "count", ratio(
		delta(served, func(s serve.StatsSnapshot) float64 { return s.RingOccupancy.Sum }),
		delta(served, func(s serve.StatsSnapshot) float64 { return float64(s.RingOccupancy.Count) })))
	rejected := delta(all, func(s serve.StatsSnapshot) float64 { return float64(s.Rejected) })
	submitted := delta(all, func(s serve.StatsSnapshot) float64 { return float64(s.Submitted) })
	res.set("serve.reject_share", "share", ratio(rejected, rejected+submitted))
	res.set("serve.lazy_builds_per_kframe", "count", 1e3*ratio(delta(all, func(s serve.StatsSnapshot) float64 { return float64(s.LazyBuilds) }), allFrames))
	res.set("serve.evictions_per_kframe", "count", 1e3*ratio(delta(all, func(s serve.StatsSnapshot) float64 { return float64(s.GroupsEvicted) }), allFrames))
	res.set("serve.tier_kbest_share", "share", ratio(delta(all, func(s serve.StatsSnapshot) float64 { return float64(s.Tiers.KBest) }), allFrames))
	res.set("serve.tier_zf_share", "share", ratio(delta(all, func(s serve.StatsSnapshot) float64 { return float64(s.Tiers.ZF) }), allFrames))
	res.set("link.frame_us_p50", "us", percentile(linkUS, 50))
	sampled := float64(join.frames.Load())
	res.set("core.prepare_hit_share", "share", 1-ratio(float64(join.prepMisses.Load()), sampled*48))
	detects := float64(join.detects.Load())
	res.set("core.ped_per_detect", "count", ratio(float64(join.peds.Load()), detects))
	res.set("core.nodes_per_detect", "count", ratio(float64(join.nodes.Load()), detects))
	res.set("core.proj_reuse_per_detect", "count", ratio(float64(join.projReuse.Load()), detects))
	res.set("fec.decodes_per_frame", "count", ratio(float64(join.decodes.Load()), sampled))
	cfg := link.RunConfig{Cons: constellation.QAM16, Rate: fec.Rate12, NumSymbols: 8}
	res.set("fec.viterbi_us_per_stream", "us", viterbiProbe(cfg, opt.seed))
	res.set("go.gc_per_kframe", "count", 1e3*ratio(float64(ms1.NumGC-ms0.NumGC), allFrames))
	res.set("go.heap_mb_peak", "MB", heapPeakMB)
	var lags []float64
	for _, s := range served {
		for _, q := range s.measured {
			lags = append(lags, msOf(q.lag))
		}
	}
	res.set("bench.gen_lag_ms_p99", "ms", percentile(lags, 99))
	res.set("bench.trace_overhead_share", "share", ratio(mean(lat)-untracedMeanMS, untracedMeanMS))
	res.note("trace overhead at %.0f fps: untraced mean latency %.3f ms, traced %.3f ms", stepRates[0], untracedMeanMS, mean(lat))
	return writeServeTrace(opt, l)
}

// serveSpan is one request's spans: due time, generator send, reply,
// and the frame's link time inside the service.
type serveSpan struct {
	Step    int     `json:"step"`
	Frame   int64   `json:"frame"`
	Tier    string  `json:"tier"`
	LagMS   float64 `json:"gen_lag_ms"`
	Latency float64 `json:"latency_ms"`
	LinkMS  float64 `json:"link_ms"`
	Outcome string  `json:"outcome"`
}

func writeServeTrace(opt options, l ladder) error {
	tw, err := newTraceWriter(opt.traceDir(), opt.traceFile())
	if err != nil {
		return err
	}
	for i, s := range l.steps {
		for _, q := range s.measured {
			out := "ok"
			switch {
			case q.refused:
				out = "refused"
			case q.err:
				out = "error"
			case q.crcFail:
				out = "crc_fail"
			}
			sp := serveSpan{Step: i, Frame: q.frame, Tier: q.tier.String(), LagMS: msOf(q.lag), Latency: msOf(q.latency), LinkMS: msOf(q.linkTime), Outcome: out}
			if err := tw.write(&sp); err != nil {
				tw.close()
				return err
			}
		}
	}
	return tw.close()
}
