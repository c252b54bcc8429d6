package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
)

// Core-layer call kinds the timed detector records.
const (
	callPrepHit = iota
	callPrepMiss
	callDetect
)

// coreCall is one timed call into the detector.
type coreCall struct {
	kind uint8
	span
}

// clock reads nanoseconds since a fixed base on the monotonic clock.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// coreTimer collects the detector calls of the frame in progress. One
// timer belongs to one worker; tracedFrame resets calls per frame.
type coreTimer struct {
	clock
	calls []coreCall
}

func (t *coreTimer) add(kind uint8, start int64) {
	t.calls = append(t.calls, coreCall{kind: kind, span: span{start: start, end: t.now()}})
}

// timedDetector is a forwarding decorator that times every Prepare,
// PrepareShared and Detect call of the detector it wraps. It forwards
// every interface the link and phy pipelines type-assert: the
// core.SharedPreparer path the preparation cache takes, core.Counter
// for complexity statistics and obs.Target for sample streaming.
type timedDetector struct {
	inner  core.SharedPreparer
	cnt    core.Counter
	target obs.Target
	t      *coreTimer
}

// scheduler is the adaptive detector's counter surface
// (policy.Detector.Sched), which the link pipeline type-asserts.
type scheduler interface{ Sched() policy.Counters }

// schedTimedDetector adds the adaptive scheduler's counter surface,
// so pipelines that attribute scheduler deltas see the wrapped
// detector's counters.
type schedTimedDetector struct {
	*timedDetector
	sched scheduler
}

// Sched forwards the adaptive scheduler's counters.
func (d schedTimedDetector) Sched() policy.Counters { return d.sched.Sched() }

// wrapTimed decorates det. det must support shared preparation,
// statistics and recording, as every detector the benchmark builds
// does; the scheduler surface is forwarded when det has it.
func wrapTimed(det core.Detector, t *coreTimer) (core.Detector, error) {
	sp, ok1 := det.(core.SharedPreparer)
	cnt, ok2 := det.(core.Counter)
	tgt, ok3 := det.(obs.Target)
	if !ok1 || !ok2 || !ok3 {
		return nil, fmt.Errorf("timed detector: %s lacks shared preparation, counters or recording", det.Name())
	}
	td := &timedDetector{inner: sp, cnt: cnt, target: tgt, t: t}
	if s, ok := det.(scheduler); ok {
		return schedTimedDetector{timedDetector: td, sched: s}, nil
	}
	return td, nil
}

func (d *timedDetector) Name() string                                { return d.inner.Name() }
func (d *timedDetector) Constellation() *constellation.Constellation { return d.inner.Constellation() }
func (d *timedDetector) Stats() core.Stats                           { return d.cnt.Stats() }
func (d *timedDetector) ResetStats()                                 { d.cnt.ResetStats() }
func (d *timedDetector) SetRecorder(r obs.Recorder)                  { d.target.SetRecorder(r) }

// Prepare times an uncached preparation; it always derives the
// channel state, so it counts as a miss.
func (d *timedDetector) Prepare(h *cmplxmat.Matrix) error {
	start := d.t.now()
	err := d.inner.Prepare(h)
	d.t.add(callPrepMiss, start)
	return err
}

// PrepareShared times a cached preparation, classified by its hit
// return value.
func (d *timedDetector) PrepareShared(pc *core.PreparedChannel, h *cmplxmat.Matrix) (bool, error) {
	start := d.t.now()
	hit, err := d.inner.PrepareShared(pc, h)
	kind := uint8(callPrepMiss)
	if hit {
		kind = callPrepHit
	}
	d.t.add(kind, start)
	return hit, err
}

// Detect times one detection.
func (d *timedDetector) Detect(dst []int, y []complex128) ([]int, error) {
	start := d.t.now()
	out, err := d.inner.Detect(dst, y)
	d.t.add(callDetect, start)
	return out, err
}

// traceWriter streams span records as JSON lines into one file under
// the build directory, written once at the end of a run.
type traceWriter struct {
	f *os.File
	w *bufio.Writer
	e *json.Encoder
}

func newTraceWriter(dir, name string) (*traceWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	return &traceWriter{f: f, w: w, e: json.NewEncoder(w)}, nil
}

func (t *traceWriter) write(v any) error { return t.e.Encode(v) }

func (t *traceWriter) close() error {
	if err := t.w.Flush(); err != nil {
		t.f.Close()
		return err
	}
	return t.f.Close()
}
