package main

import (
	"math/cmplx"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on changes speed by tens of percent
// over minutes (other tenants share its cores), which would swamp any
// change in the code. So a link run measures in slices, and after each
// one every worker pauses and all CPUs run a fixed calibration kernel
// that exercises none of the program under test; a slice's rates and
// latencies are reported at the speed of a host where the kernel takes
// calibRef. No change to the program can move the kernel's code, and
// since the workers are paused while it runs, the program's own load
// reaches it only through a concurrent garbage collection, which the
// median over every CPU's runs absorbs. The program does not slow
// down as much as the kernel does, so rates and latencies are scaled
// by only part of the kernel's change (speedElasticity).
const (
	// calibRef is the kernel's time on the reference host (a 2-vCPU
	// Intel Xeon VM in a typical phase).
	calibRef = 70 * time.Microsecond
	// calibReps is how many kernel runs each CPU makes per calibration.
	calibReps = 8
	// sliceLen is the work between two calibrations.
	sliceLen = time.Second
	// speedElasticity is how far the program's speed follows the
	// kernel's: the kernel's tight floating-point loop feels another
	// tenant's load more than the program does. It was chosen on 8 runs
	// of 20 s per link workload on the reference host, with kernel times
	// from 61 to 140 µs. The spread (IQR over median) of the runs' median
	// slice rate and latency, scaling by the power 0, 0.5, 0.75 and 1,
	// was 0.15/0.08/0.07/0.13 and 0.17/0.10/0.05/0.12 on link-kappa, and
	// 0.17/0.12/0.04/0.14 and 0.26/0.13/0.06/0.03 on link-rayleigh.
	// Set-up time, a single goroutine on link-*, followed the kernel
	// 0.86-0.98 per unit of log time and is scaled in full (timeSetups).
	speedElasticity = 0.75
)

// calibSink keeps the kernel's result live.
var calibSink float64

// calibrate times one run of the kernel: modified Gram-Schmidt on a
// 4×4 complex matrix, 400 times — small complex floating-point work in
// the L1 cache, like the detector and decoder inner loops.
func calibrate() time.Duration {
	var a [4][4]complex128
	start := time.Now()
	acc := 0.0
	for rep := 0; rep < 400; rep++ {
		for i := range a {
			for j := range a[i] {
				a[i][j] = complex(float64(i*j+rep%7)+1, float64(i-j))
			}
		}
		for k := 0; k < 4; k++ {
			n := 0.0
			for i := 0; i < 4; i++ {
				n += real(a[i][k])*real(a[i][k]) + imag(a[i][k])*imag(a[i][k])
			}
			inv := complex(1/n, 0)
			for j := k + 1; j < 4; j++ {
				var d complex128
				for i := 0; i < 4; i++ {
					d += cmplx.Conj(a[i][k]) * a[i][j]
				}
				d *= inv
				for i := 0; i < 4; i++ {
					a[i][j] -= d * a[i][k]
				}
			}
		}
		acc += real(a[3][3])
	}
	d := time.Since(start)
	calibSink += acc
	return d
}

// calibrateAll runs the kernel calibReps times on every CPU at once and
// returns the median time.
func calibrateAll() time.Duration {
	n := runtime.NumCPU()
	ds := make([]float64, n*calibReps)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(out []float64) {
			defer wg.Done()
			for i := range out {
				out[i] = float64(calibrate())
			}
		}(ds[c*calibReps : (c+1)*calibReps])
	}
	wg.Wait()
	sort.Float64s(ds)
	return time.Duration(median(ds))
}

// timeSetups runs build setupReps times, each after an untimed reset
// (nil for none), and returns each build's time in seconds, as measured
// and at reference host speed. Set-up is milliseconds of work, which
// the host's phase moves as much as it moves the frame rates: every
// build starts from a collected heap and is bracketed by two
// calibrations, whose mean scales its time.
func timeSetups(reset func(), build func() error) (raw, scaled []float64, err error) {
	for r := 0; r < setupReps; r++ {
		if reset != nil {
			reset()
		}
		runtime.GC()
		before := calibrateAll()
		start := time.Now()
		if err := build(); err != nil {
			return nil, nil, err
		}
		d := time.Since(start)
		cal := (before + calibrateAll()) / 2
		raw = append(raw, d.Seconds())
		scaled = append(scaled, d.Seconds()*float64(calibRef)/float64(cal))
	}
	return raw, scaled, nil
}
