// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time from a seed, checks every output, and
// prints its metrics as the last line of standard output:
//
//	bash _perfbench/run.sh --workload link-kappa --seed 1 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//   - link-kappa: closed loop through link.Processor.Process, 4×4
//     16-QAM rate-1/2 two-symbol frames on a static channel whose κ²
//     ramps 0–55 dB across the 48 subcarriers, condition-adaptive
//     detection, one preparation cache per worker. After warm-up every
//     preparation hits, so detection dominates.
//   - link-rayleigh: the same frames with plain Geosphere and a fresh
//     Rayleigh channel per frame, so every subcarrier's QR runs.
//   - serve-open: open-loop Poisson arrivals from one generator into
//     serve.Server, stepping through fixed offered rates past the knee.
//
// Load comes from one process: on link-* one goroutine per CPU, each
// owning one link.Processor; on serve-open one generator goroutine.
//
// With --trace 0 the run is untraced and reports the end-to-end
// metrics. With --trace 1 it records spans around the calls into each
// layer (held in memory, written under the -out directory at the end)
// and reports the per-layer metrics, the tracing overhead and, on
// link-*, a reconciliation of the layers' self times against the
// untraced frame time. Metrics of a layer a workload does not run read
// 0. Notes above the result give the figures as measured, a host stamp
// and the per-step table of serve-open.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"
)

// setupReps is how many times a run builds and warms its workload; the
// reported set-up time is the median at reference host speed (see
// timeSetups), and the last build is measured.
const setupReps = 9

// viterbiProbeTime bounds the isolated Viterbi probe of a traced run.
const viterbiProbeTime = 200 * time.Millisecond

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports
// all of them:
//
//   - goodput_fps: on link-*, frames decoded with every CRC passing per
//     second, the median over one-second slices, each at reference host
//     speed (see calib.go); on serve-open, the goodput at the SLO (see
//     sloPolicy.goodput and slo).
//   - latency_ms_p50: on link-*, one Process call, at reference host
//     speed; on serve-open, due time to reply at the lowest offered rate.
//   - full_search_share: the share of work given an exact-ML answer —
//     on link-*, detections not resolved by K-best; on serve-open,
//     frames served at the Geosphere tier at steps up to goodput.
//   - ok_share: operations that did not fail over operations attempted.
//   - alloc_kb_per_frame: heap allocated per frame in the timed window.
//   - setup_s: construction plus warm-up, median of setupReps builds,
//     at reference host speed.
var endToEnd = []metricDef{
	{"goodput_fps", "1/s"},
	{"latency_ms_p50", "ms"},
	{"full_search_share", "share"},
	{"ok_share", "share"},
	{"alloc_kb_per_frame", "KB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, named layer.metric.
var perLayer = []metricDef{
	{"latency_ms_p99", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p99", "ms"},
	{"serve.batch_mean", "count"},
	{"serve.batch_mean_top", "count"},
	{"serve.ring_occ_mean", "count"},
	{"serve.reject_share", "share"},
	{"serve.lazy_builds_per_kframe", "count"},
	{"serve.evictions_per_kframe", "count"},
	{"serve.tier_kbest_share", "share"},
	{"serve.tier_zf_share", "share"},
	{"link.frame_us_p50", "us"},
	{"phy.encode_us", "us"},
	{"phy.txrx_self_us", "us"},
	{"core.prepare_hit_share", "share"},
	{"core.prepare_hit_ns", "ns"},
	{"core.prepare_miss_us", "us"},
	{"core.detect_ns_p50", "ns"},
	{"core.detect_ns_p99", "ns"},
	{"core.ped_per_detect", "count"},
	{"core.nodes_per_detect", "count"},
	{"core.proj_reuse_per_detect", "count"},
	{"policy.gate_pass_share", "share"},
	{"policy.sphere_share", "share"},
	{"policy.fallbacks_per_frame", "count"},
	{"fec.decodes_per_frame", "count"},
	{"fec.viterbi_us_per_stream", "us"},
	{"go.gc_per_kframe", "count"},
	{"go.heap_mb_peak", "MB"},
	{"bench.gen_lag_ms_p99", "ms"},
	{"bench.trace_overhead_share", "share"},
	{"bench.reconcile_residual_share", "share"},
}

var workloads = []string{"link-kappa", "link-rayleigh", "serve-open"}

type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	out      string
}

func (o options) traceDir() string { return filepath.Join(o.out, "trace") }
func (o options) traceFile() string {
	return fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's report: the final JSON line plus the notes
// printed above it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// complete checks that the run set exactly the metrics its mode
// reports, with their declared units, and reads the ones of layers the
// workload does not run as 0.
func (r *result) complete(defs []metricDef) error {
	want := map[string]string{}
	var absent []string
	for _, d := range defs {
		want[d.name] = d.unit
		m, ok := r.Metrics[d.name]
		if !ok {
			r.set(d.name, d.unit, 0)
			absent = append(absent, d.name)
			continue
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
	for name := range r.Metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared for this mode", name)
		}
	}
	if len(absent) > 0 {
		r.note("not run by this workload, reported as 0: %s", strings.Join(absent, " "))
	}
	return nil
}

// hostStamp names the host and build a result was measured on.
func hostStamp() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), commit)
}

// heapSampler tracks the peak live heap while a run measures.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := 0.0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- peak / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	case seconds <= 0:
		return o, errors.New("--seconds must be positive")
	case trace != 0 && trace != 1:
		return o, errors.New("--trace must be 0 or 1")
	}
	o.duration = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	return o, nil
}

func run(o options) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var err error
	if o.workload == "serve-open" {
		err = runServe(o, res)
	} else {
		err = runLink(o, res)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := res.complete(defs); err != nil {
		return nil, err
	}
	return res, nil
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println("# " + hostStamp())
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println("# " + n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
