package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/phy"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it sorts in place: the smallest value with at least p% of
// the samples at or below it. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// span is one timed interval in nanoseconds on the monotonic clock
// relative to the run's start.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// selfNS returns the part of parent not covered by any child: the
// parent's duration minus the union of the children's intervals,
// clipped to the parent. Overlapping or nested children are counted
// once, so the self times of a span tree add back up to its root.
func selfNS(parent span, children []span) int64 {
	cs := make([]span, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	cur := span{start: math.MinInt64, end: math.MinInt64}
	for _, c := range cs {
		if c.start > cur.end {
			covered += cur.dur()
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	if cur.start != math.MinInt64 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// stepResult is one open-loop rate step of the serve workload.
type stepResult struct {
	rate      float64 // offered frames per second
	attempted int     // requests due inside the measured window
	failed    int     // refused, dropped, errored or CRC-failed requests
	p99ms     float64 // due-to-reply latency, nearest rank
	lagP99ms  float64 // generator lateness, nearest rank
}

// sloPolicy holds the conditions a step must meet to count toward
// goodput.
type sloPolicy struct {
	maxFailShare float64 // refused plus failed over attempted
	p99ms        float64 // latency limit on the 99th percentile
	maxLagMS     float64 // generator lateness limit on its 99th percentile
}

// Bounds on a step's SLO ratio when interpolating: a step with no
// latency at all, or with more than 1% of its requests refused (an
// infinite p99), still has a finite log.
const (
	minSLORatio = 1e-3
	maxSLORatio = 1e3
)

// ratio measures a step against the policy: the largest of its p99
// over the latency limit, its generator lag over the lag limit and its
// failure share over the failure limit. The step meets the policy when
// the ratio is at most 1.
func (p sloPolicy) ratio(s stepResult) float64 {
	if s.attempted == 0 {
		return math.Inf(1)
	}
	r := math.Max(s.p99ms/p.p99ms, s.lagP99ms/p.maxLagMS)
	return math.Max(r, float64(s.failed)/float64(s.attempted)/p.maxFailShare)
}

// meets reports whether one step satisfies every condition.
func (p sloPolicy) meets(s stepResult) bool { return p.ratio(s) <= 1 }

// goodput returns the index of the highest step, in ascending rate
// order, that meets the policy, and the goodput: that step's rate,
// moved toward the next step's by where the logarithm of the ratio
// crosses the limit between the two. The interpolation keeps the
// figure continuous when a step near the knee passes in one run and
// just misses in the next. It returns -1 and 0 when no step meets the
// policy, and the top rate when the top step does.
func (p sloPolicy) goodput(steps []stepResult) (int, float64) {
	best := -1
	for i, s := range steps {
		if p.meets(s) {
			best = i
		}
	}
	switch {
	case best < 0:
		return -1, 0
	case best == len(steps)-1:
		return best, steps[best].rate
	}
	lo := math.Max(p.ratio(steps[best]), minSLORatio)
	hi := math.Min(p.ratio(steps[best+1]), maxSLORatio)
	t := -math.Log(lo) / (math.Log(hi) - math.Log(lo))
	return best, steps[best].rate + t*(steps[best+1].rate-steps[best].rate)
}

// frameDigest hashes what a frame's decode produced: the frame index,
// every stream's CRC verdict, the pre-FEC symbol decisions' error and
// total counts, and the detector's PED and visited-node counts. Two
// pipelines that decide every symbol identically and search the same
// trees produce the same digest.
func frameDigest(frame int64, res *phy.Result, st core.Stats) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(frame)
	put(int64(len(res.StreamOK)))
	for _, ok := range res.StreamOK {
		if ok {
			put(1)
		} else {
			put(0)
		}
	}
	put(int64(res.SymbolErrors))
	put(int64(res.Symbols))
	put(st.PEDCalcs)
	put(st.VisitedNodes)
	return h.Sum64()
}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// slice is one timed part of a link run, followed by a calibration.
type slice struct {
	frames int           // frames completed in the slice
	dur    time.Duration // the slice's wall time
	cal    time.Duration // calibration kernel time right after it
}

// speed is how fast the program ran around the slice relative to the
// reference host, as the kernel predicts it: calibRef over the kernel's
// measured time, to the power speedElasticity.
func (s slice) speed() float64 {
	return math.Pow(float64(calibRef)/float64(s.cal), speedElasticity)
}

// scaledRate is the slice's completion rate at reference host speed.
func (s slice) scaledRate() float64 { return float64(s.frames) / s.dur.Seconds() / s.speed() }

// medianScaledRate returns the median slice's rate at reference speed.
func medianScaledRate(ss []slice) float64 {
	rates := make([]float64, len(ss))
	for i, s := range ss {
		rates[i] = s.scaledRate()
	}
	return median(rates)
}
