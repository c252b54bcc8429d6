package core

import (
	"fmt"
	"math"

	"repro/internal/cmplxmat"
	"repro/internal/constellation"
)

// MLDetector is the brute-force maximum-likelihood reference
// (Equation 1 by exhaustive search). Its cost is |O|^nc Euclidean
// distance evaluations, so it is only usable for small systems; the
// test suite uses it as ground truth for every sphere decoder.
type MLDetector struct {
	cons *constellation.Constellation
	h    *cmplxmat.Matrix

	idx []int
	sym []complex128
}

var _ Detector = (*MLDetector)(nil)

// NewML returns an exhaustive maximum-likelihood detector.
func NewML(cons *constellation.Constellation) *MLDetector {
	return &MLDetector{cons: cons}
}

// Name implements Detector.
func (d *MLDetector) Name() string { return "ML-exhaustive" }

// Constellation implements Detector.
func (d *MLDetector) Constellation() *constellation.Constellation { return d.cons }

// Prepare implements Detector.
func (d *MLDetector) Prepare(h *cmplxmat.Matrix) error {
	if h == nil {
		return ErrNotPrepared
	}
	if h.Rows < h.Cols {
		return fmt.Errorf("core: ML detector needs na ≥ nc, got %d×%d channel", h.Rows, h.Cols)
	}
	if err := CheckFinite(h); err != nil {
		return err
	}
	// Refuse hopeless searches so a misconfigured test fails fast.
	cost := math.Pow(float64(d.cons.Size()), float64(h.Cols))
	if cost > 5e7 {
		return fmt.Errorf("core: exhaustive ML over %s with %d streams needs %.0f evaluations; use a sphere decoder", d.cons.Name(), h.Cols, cost)
	}
	d.h = h
	d.idx = make([]int, h.Cols)
	d.sym = make([]complex128, h.Cols)
	return nil
}

// Detect implements Detector by enumerating every symbol vector.
func (d *MLDetector) Detect(dst []int, y []complex128) ([]int, error) {
	if err := checkDims(d.h, y); err != nil {
		return nil, err
	}
	nc := d.h.Cols
	if dst == nil {
		dst = make([]int, nc)
	} else if len(dst) != nc {
		return nil, fmt.Errorf("core: dst has %d entries, want %d", len(dst), nc)
	}
	size := d.cons.Size()
	for i := range d.idx {
		d.idx[i] = 0
		d.sym[i] = d.cons.PointIndex(0)
	}
	bestDist := math.Inf(1)
	for {
		// ‖y − H·s‖² for the current odometer state.
		var dist float64
		for r := 0; r < d.h.Rows; r++ {
			row := d.h.Row(r)
			acc := y[r]
			for c := 0; c < nc; c++ {
				acc -= row[c] * d.sym[c]
			}
			dist += real(acc)*real(acc) + imag(acc)*imag(acc)
		}
		if dist < bestDist {
			bestDist = dist
			copy(dst, d.idx)
		}
		// Advance the odometer.
		k := 0
		for ; k < nc; k++ {
			d.idx[k]++
			if d.idx[k] < size {
				d.sym[k] = d.cons.PointIndex(d.idx[k])
				break
			}
			d.idx[k] = 0
			d.sym[k] = d.cons.PointIndex(0)
		}
		if k == nc {
			return dst, nil
		}
	}
}
