package core

import (
	"fmt"

	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/obs"
)

// HybridDetector implements the condition-number-threshold scheme of
// Maurer et al. discussed in §6.1: it measures κ(H) at Prepare time
// and routes detection to a cheap linear detector when the channel is
// well conditioned, falling back to the sphere decoder otherwise.
//
// The paper argues such designs are unnecessary because Geosphere's
// complexity already adapts to channel conditioning (§5.3.1); the
// hybrid exists here as the ablation that demonstrates it, and because
// it needs a threshold that no principled procedure chooses.
type HybridDetector struct {
	cons *constellation.Constellation
	// ThresholdKappa is the κ(H) above which the sphere decoder is
	// used.
	ThresholdKappa float64

	linear Detector
	sphere *SphereDecoder
	active Detector
	// SphereSelections counts how often Prepare picked the sphere
	// decoder, for experiment reporting.
	SphereSelections int
	Preparations     int
}

var _ Detector = (*HybridDetector)(nil)
var _ Counter = (*HybridDetector)(nil)

// NewHybrid returns a threshold-switched ZF/Geosphere detector.
func NewHybrid(cons *constellation.Constellation, linear Detector, thresholdKappa float64) (*HybridDetector, error) {
	if thresholdKappa < 1 {
		return nil, fmt.Errorf("core: κ threshold must be ≥ 1, got %g", thresholdKappa)
	}
	if linear == nil {
		return nil, fmt.Errorf("core: hybrid needs a linear detector")
	}
	return &HybridDetector{
		cons:           cons,
		ThresholdKappa: thresholdKappa,
		linear:         linear,
		sphere:         NewGeosphere(cons),
	}, nil
}

// Name implements Detector.
func (d *HybridDetector) Name() string {
	return fmt.Sprintf("Hybrid(κ>%g→SD)", d.ThresholdKappa)
}

// Constellation implements Detector.
func (d *HybridDetector) Constellation() *constellation.Constellation { return d.cons }

// Stats implements Counter, reporting the sphere decoder's work (the
// linear branch performs no tree search).
func (d *HybridDetector) Stats() Stats { return d.sphere.Stats() }

// ResetStats implements Counter.
func (d *HybridDetector) ResetStats() {
	d.sphere.ResetStats()
	d.SphereSelections = 0
	d.Preparations = 0
}

// SetRecorder implements obs.Target by forwarding to the sphere
// branch; the linear branch performs no tree search and records
// nothing.
func (d *HybridDetector) SetRecorder(r obs.Recorder) { d.sphere.SetRecorder(r) }

// Prepare implements Detector: it computes κ(H) and selects a branch.
func (d *HybridDetector) Prepare(h *cmplxmat.Matrix) error {
	if h == nil {
		return ErrNotPrepared
	}
	if err := CheckFinite(h); err != nil {
		return err
	}
	d.Preparations++
	if h.Cond2() > d.ThresholdKappa {
		d.SphereSelections++
		d.active = d.sphere
	} else {
		d.active = d.linear
	}
	return d.active.Prepare(h)
}

// Detect implements Detector.
func (d *HybridDetector) Detect(dst []int, y []complex128) ([]int, error) {
	if d.active == nil {
		return nil, ErrNotPrepared
	}
	return d.active.Detect(dst, y)
}
