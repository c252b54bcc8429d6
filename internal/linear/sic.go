package linear

import (
	"fmt"
	"sort"

	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
)

// MMSESIC is the MMSE successive-interference-cancellation receiver of
// §5.2.1: streams are ordered by descending received SNR; at each
// stage the strongest remaining stream is detected with an MMSE filter
// over the residual channel, its reconstructed contribution is
// subtracted from the received vector, and the process repeats.
//
// MMSE-SIC can reach multi-user capacity with ideal per-stage decoding
// but suffers error propagation with hard symbol decisions, which is
// exactly the behaviour Figure 13 contrasts against Geosphere.
type MMSESIC struct {
	cons     *constellation.Constellation
	NoiseVar float64
	h        *cmplxmat.Matrix

	// Per-stage state prepared once per channel.
	order   []int          // stream detected at each stage
	filters [][]complex128 // MMSE filter row for that stream, per stage
	cols    [][]complex128 // channel column of that stream (for cancellation)
	resid   []complex128
}

var _ core.Detector = (*MMSESIC)(nil)

// NewMMSESIC returns an MMSE-SIC detector with the given total noise
// variance per receive antenna.
func NewMMSESIC(cons *constellation.Constellation, noiseVar float64) *MMSESIC {
	return &MMSESIC{cons: cons, NoiseVar: noiseVar}
}

// Name implements core.Detector.
func (d *MMSESIC) Name() string { return "MMSE-SIC" }

// Constellation implements core.Detector.
func (d *MMSESIC) Constellation() *constellation.Constellation { return d.cons }

// Prepare implements core.Detector. It fixes the detection order by
// descending per-stream received SNR (channel column energy) and
// precomputes one MMSE filter row per cancellation stage.
func (d *MMSESIC) Prepare(h *cmplxmat.Matrix) error {
	if h == nil {
		return core.ErrNotPrepared
	}
	if err := core.CheckFinite(h); err != nil {
		return err
	}
	na, nc := h.Rows, h.Cols
	// Column energies determine the SNR ordering.
	energy := make([]float64, nc)
	for c := 0; c < nc; c++ {
		for r := 0; r < na; r++ {
			v := h.At(r, c)
			energy[c] += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return energy[order[i]] > energy[order[j]] })

	remaining := make([]int, nc)
	copy(remaining, order)
	filters := make([][]complex128, nc)
	cols := make([][]complex128, nc)
	for stage := 0; stage < nc; stage++ {
		k := order[stage]
		// Residual channel: the columns of the not-yet-cancelled
		// streams, in their remaining order.
		sub := cmplxmat.New(na, len(remaining))
		for j, s := range remaining {
			for r := 0; r < na; r++ {
				sub.Set(r, j, h.At(r, s))
			}
		}
		w, err := mmseFilter(sub, d.NoiseVar)
		if err != nil {
			return fmt.Errorf("linear: MMSE-SIC stage %d: %w", stage, err)
		}
		// Locate k's row within the residual filter.
		pos := -1
		for j, s := range remaining {
			if s == k {
				pos = j
				break
			}
		}
		row := make([]complex128, na)
		copy(row, w.Row(pos))
		filters[stage] = row
		col := make([]complex128, na)
		for r := 0; r < na; r++ {
			col[r] = h.At(r, k)
		}
		cols[stage] = col
		remaining = append(remaining[:pos], remaining[pos+1:]...)
	}

	d.h = h
	d.order = order
	d.filters = filters
	d.cols = cols
	d.resid = make([]complex128, na)
	return nil
}

// Detect implements core.Detector.
func (d *MMSESIC) Detect(dst []int, y []complex128) ([]int, error) {
	if d.h == nil {
		return nil, core.ErrNotPrepared
	}
	if len(y) != d.h.Rows {
		return nil, fmt.Errorf("linear: received vector has %d entries, channel has %d rows", len(y), d.h.Rows)
	}
	if dst == nil {
		dst = make([]int, d.h.Cols)
	} else if len(dst) != d.h.Cols {
		return nil, fmt.Errorf("linear: dst has %d entries, want %d", len(dst), d.h.Cols)
	}
	copy(d.resid, y)
	for stage, k := range d.order {
		var est complex128
		for r, w := range d.filters[stage] {
			est += w * d.resid[r]
		}
		col, row := d.cons.Slice(est)
		dst[k] = d.cons.Index(col, row)
		sym := d.cons.Point(col, row)
		for r, hr := range d.cols[stage] {
			d.resid[r] -= hr * sym
		}
	}
	return dst, nil
}
