// Package linear implements the linear MIMO detectors Geosphere is
// compared against: zero-forcing (the baseline of SAM, BigStation,
// IAC and 802.11n+), MMSE, and MMSE with successive interference
// cancellation ordered by descending post-detection SNR (§5.2.1).
package linear

import (
	"fmt"

	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
)

// ZF is the zero-forcing detector: it left-multiplies the received
// vector with the channel pseudo-inverse (H*H)⁻¹H* and slices each
// decoupled stream independently. On poorly-conditioned channels the
// inverse amplifies noise, which is the performance gap Geosphere
// closes.
type ZF struct {
	cons *constellation.Constellation
	h    *cmplxmat.Matrix
	w    *cmplxmat.Matrix // pseudo-inverse filter, nc×na
	est  []complex128
}

var _ core.Detector = (*ZF)(nil)

// NewZF returns a zero-forcing detector over cons.
func NewZF(cons *constellation.Constellation) *ZF { return &ZF{cons: cons} }

// Name implements core.Detector.
func (d *ZF) Name() string { return "Zero-forcing" }

// Constellation implements core.Detector.
func (d *ZF) Constellation() *constellation.Constellation { return d.cons }

// Prepare implements core.Detector by computing the ZF filter.
func (d *ZF) Prepare(h *cmplxmat.Matrix) error {
	if h == nil {
		return core.ErrNotPrepared
	}
	if err := core.CheckFinite(h); err != nil {
		return err
	}
	w, err := h.PseudoInverse()
	if err != nil {
		return fmt.Errorf("linear: zero-forcing filter: %w", err)
	}
	d.attach(h, w)
	return nil
}

// attach points the detector at a prepared filter, resizing the
// estimate scratch only on a shape change.
func (d *ZF) attach(h, w *cmplxmat.Matrix) {
	d.h = h
	d.w = w
	if cap(d.est) < h.Cols {
		d.est = make([]complex128, h.Cols)
	}
	d.est = d.est[:h.Cols]
}

var _ core.SharedPreparer = (*ZF)(nil)

// PrepareShared implements core.SharedPreparer: the same filter bits
// Prepare computes, but cached in pc — against the serving layer's
// per-subcarrier preparation caches a static channel's pseudo-inverse
// becomes a one-time cost instead of a per-frame one, which is what
// makes the ZF rung of the degradation ladder actually cheap.
func (d *ZF) PrepareShared(pc *core.PreparedChannel, h *cmplxmat.Matrix) (bool, error) {
	if h == nil {
		return false, core.ErrNotPrepared
	}
	w, hit, err := pc.PrepareZF(h)
	if err != nil {
		return false, fmt.Errorf("linear: zero-forcing filter: %w", err)
	}
	d.attach(h, w)
	return hit, nil
}

// Detect implements core.Detector.
func (d *ZF) Detect(dst []int, y []complex128) ([]int, error) {
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
	d.w.MulVec(d.est, y)
	for k, e := range d.est {
		col, row := d.cons.Slice(e)
		dst[k] = d.cons.Index(col, row)
	}
	return dst, nil
}

// SolveZF computes the zero-forcing decisions from a thin-QR
// factorization of the channel: back-substitution of R·ŝ = Q*y (the
// exact unconstrained least-squares solution — the same estimate the
// pseudo-inverse filter produces) followed by per-stream slicing. It
// also returns the sliced decision's squared lattice residual
// r₀² = ‖Q*y − R·s₀‖², the quantity the adaptive scheduler's
// maximum-likelihood equality gate tests (DESIGN.md §14): since
// ‖y − Hs‖² decomposes as ‖P⊥y‖² + ‖R(ŝ−s)‖², r₀² is exactly the
// lattice part of the ZF decision's metric.
//
// Everything works in QR-column order: yhat is Q*y, rll2/rinv the
// diagonal tables, and dst[l] receives the flat point index for QR
// column l (the caller undoes any column ordering). est is caller
// scratch holding the unquantized back-substituted estimate. All
// slices must have length n = R's dimension; the steady state
// allocates nothing.
//
//geolint:noalloc
func SolveZF(cons *constellation.Constellation, r *cmplxmat.Matrix, rinv []complex128, yhat []complex128, est []complex128, dst []int) float64 {
	n := len(dst)
	for l := n - 1; l >= 0; l-- {
		row := r.Row(l)
		s := yhat[l]
		for j := l + 1; j < n; j++ {
			s -= row[j] * est[j]
		}
		e := s * rinv[l]
		est[l] = e // back-substitution continues on the unquantized value
		col, rw := cons.Slice(e)
		dst[l] = cons.Index(col, rw)
	}
	var r2 float64
	for l := 0; l < n; l++ {
		row := r.Row(l)
		s := yhat[l]
		for j := l; j < n; j++ {
			s -= row[j] * cons.PointIndex(dst[j])
		}
		r2 += real(s)*real(s) + imag(s)*imag(s)
	}
	return r2
}

// MMSE is the minimum mean-squared-error detector: the filter
// (H*H + σ²I)⁻¹H* balances stream decoupling against noise
// amplification. NoiseVar must be set (per complex dimension, total)
// before Prepare; zero noise variance reduces MMSE to ZF.
type MMSE struct {
	cons     *constellation.Constellation
	NoiseVar float64
	h        *cmplxmat.Matrix
	w        *cmplxmat.Matrix
	est      []complex128
}

var _ core.Detector = (*MMSE)(nil)

// NewMMSE returns an MMSE detector with the given total noise variance
// per receive antenna (E|w_i|²).
func NewMMSE(cons *constellation.Constellation, noiseVar float64) *MMSE {
	return &MMSE{cons: cons, NoiseVar: noiseVar}
}

// Name implements core.Detector.
func (d *MMSE) Name() string { return "MMSE" }

// Constellation implements core.Detector.
func (d *MMSE) Constellation() *constellation.Constellation { return d.cons }

// mmseFilter computes (H*H + σ²I)⁻¹H*.
func mmseFilter(h *cmplxmat.Matrix, noiseVar float64) (*cmplxmat.Matrix, error) {
	ht := h.ConjT()
	gram := cmplxmat.Mul(ht, h)
	for i := 0; i < gram.Rows; i++ {
		gram.Set(i, i, gram.At(i, i)+complex(noiseVar, 0))
	}
	gi, err := gram.Inverse()
	if err != nil {
		return nil, err
	}
	return cmplxmat.Mul(gi, ht), nil
}

// Prepare implements core.Detector.
func (d *MMSE) Prepare(h *cmplxmat.Matrix) error {
	if h == nil {
		return core.ErrNotPrepared
	}
	if err := core.CheckFinite(h); err != nil {
		return err
	}
	w, err := mmseFilter(h, d.NoiseVar)
	if err != nil {
		return fmt.Errorf("linear: MMSE filter: %w", err)
	}
	d.h = h
	d.w = w
	d.est = make([]complex128, h.Cols)
	return nil
}

// Detect implements core.Detector.
func (d *MMSE) Detect(dst []int, y []complex128) ([]int, error) {
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
	d.w.MulVec(d.est, y)
	for k, e := range d.est {
		col, row := d.cons.Slice(e)
		dst[k] = d.cons.Index(col, row)
	}
	return dst, nil
}
