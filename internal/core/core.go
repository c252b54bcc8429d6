// Package core implements the paper's primary contribution: a
// depth-first Schnorr-Euchner sphere decoder with Geosphere's
// two-dimensional zigzag enumeration (§3.1.1) and geometrical pruning
// (§3.2), alongside the ETH-SD baseline (Burg et al. with Hess et al.
// row-subconstellation enumeration) and an exhaustive maximum-
// likelihood reference.
//
// All decoders share the same tree-search framework and differ only in
// their child-enumeration strategy, mirroring the paper's observation
// that every exact Schnorr-Euchner decoder visits the same tree nodes
// and differs only in how much computation it spends deciding which
// node to visit next. Complexity is accounted the way §5.3 does: the
// number of exact partial-Euclidean-distance (PED) computations is the
// primary metric, visited tree nodes the secondary one.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cmplxmat"
	"repro/internal/constellation"
)

// ErrNotPrepared is returned by Detect when no channel has been set.
var ErrNotPrepared = errors.New("core: detector not prepared with a channel")

// ErrNonFinite is returned by Prepare when the channel holds a NaN or
// infinite entry: every decision derived from such a channel would be
// silent garbage.
var ErrNonFinite = errors.New("core: non-finite channel entry")

// CheckFinite returns an ErrNonFinite error naming the first NaN or
// infinite entry of h, or nil when every entry is finite. Preparation
// runs it only on a cache miss, before deriving any state from h, so
// the hit path costs nothing extra; a rejected channel never enters a
// cache, so it can never hit either.
//
//geolint:noalloc
func CheckFinite(h *cmplxmat.Matrix) error {
	for i, v := range h.Data {
		if math.IsNaN(real(v)) || math.IsInf(real(v), 0) || math.IsNaN(imag(v)) || math.IsInf(imag(v), 0) {
			//geolint:alloc-ok error path
			return fmt.Errorf("%w at (%d, %d): %v", ErrNonFinite, i/h.Cols, i%h.Cols, v)
		}
	}
	return nil
}

// Stats counts the work a detector has performed since the last reset.
// PEDCalcs is the paper's primary complexity metric (§5.3): the number
// of exact partial Euclidean distance computations. BoundChecks counts
// geometric lower-bound table lookups (these are deliberately *not*
// PEDs; they cost one multiply). VisitedNodes counts tree nodes
// expanded, which the paper reports for completeness and which must be
// identical across all exact Schnorr-Euchner decoders. Prunes counts
// backtrack events: a level's sibling enumeration ended because every
// remaining child was outside the sphere (or the level was exhausted).
// ProjReuse counts interference-projection terms served from the
// incremental projection stack instead of being recomputed — the
// Ghasemmehdi-Agrell redundancy the search no longer pays for.
type Stats struct {
	PEDCalcs     int64
	VisitedNodes int64
	BoundChecks  int64
	Prunes       int64
	Leaves       int64
	Detections   int64
	ProjReuse    int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.PEDCalcs += other.PEDCalcs
	s.VisitedNodes += other.VisitedNodes
	s.BoundChecks += other.BoundChecks
	s.Prunes += other.Prunes
	s.Leaves += other.Leaves
	s.Detections += other.Detections
	s.ProjReuse += other.ProjReuse
}

// Sub returns s − other, the per-interval delta between two snapshots
// of one detector's monotonically growing counters. The link pipeline
// uses it to attribute work to individual frames when a worker's
// detector persists across frames.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		PEDCalcs:     s.PEDCalcs - other.PEDCalcs,
		VisitedNodes: s.VisitedNodes - other.VisitedNodes,
		BoundChecks:  s.BoundChecks - other.BoundChecks,
		Prunes:       s.Prunes - other.Prunes,
		Leaves:       s.Leaves - other.Leaves,
		Detections:   s.Detections - other.Detections,
		ProjReuse:    s.ProjReuse - other.ProjReuse,
	}
}

// PEDPerDetection returns the average PED computations per Detect
// call, the per-subcarrier quantity plotted in Figures 14 and 15.
func (s Stats) PEDPerDetection() float64 {
	if s.Detections == 0 {
		return 0
	}
	return float64(s.PEDCalcs) / float64(s.Detections)
}

// NodesPerDetection returns the average visited tree nodes per Detect.
func (s Stats) NodesPerDetection() float64 {
	if s.Detections == 0 {
		return 0
	}
	return float64(s.VisitedNodes) / float64(s.Detections)
}

// Detector is the common interface of every MIMO detector in this
// repository (sphere decoders, linear detectors, K-best, ...).
//
// Prepare fixes the channel matrix (one per OFDM subcarrier in
// practice); Detect then demultiplexes a received vector into one
// constellation point index per transmit stream. Splitting the two
// lets per-channel work (QR decompositions, filter inverses) be reused
// across the many received vectors that share a subcarrier's channel.
type Detector interface {
	// Name identifies the detector in experiment output.
	Name() string
	// Constellation returns the alphabet the detector decides over.
	Constellation() *constellation.Constellation
	// Prepare fixes the channel. The matrix is na×nc with na ≥ nc.
	Prepare(h *cmplxmat.Matrix) error
	// Detect writes the detected flat constellation index for each of
	// the nc streams into dst (allocating if dst is nil) and returns
	// it. len(y) must equal the prepared channel's row count.
	Detect(dst []int, y []complex128) ([]int, error)
}

// Counter is implemented by detectors that track complexity Stats.
type Counter interface {
	Stats() Stats
	ResetStats()
}

// StatsOf returns det's complexity statistics and whether det tracks
// any. It is the supported way to read Stats from a Detector-typed
// value — linear detectors report (zero, false), every tree-search
// detector reports its counters — replacing ad-hoc type assertions on
// Counter at call sites.
func StatsOf(det Detector) (Stats, bool) {
	if c, ok := det.(Counter); ok {
		return c.Stats(), true
	}
	return Stats{}, false
}

// ResetStatsOf zeroes det's complexity statistics, reporting whether
// det tracks any. It is StatsOf's companion for the write side, so
// call sites never assert on Counter directly.
func ResetStatsOf(det Detector) bool {
	c, ok := det.(Counter)
	if ok {
		c.ResetStats()
	}
	return ok
}

// checkDims validates a received vector against a prepared channel.
func checkDims(h *cmplxmat.Matrix, y []complex128) error {
	if h == nil {
		return ErrNotPrepared
	}
	if len(y) != h.Rows {
		return fmt.Errorf("core: received vector has %d entries, channel has %d rows: dimension mismatch", len(y), h.Rows)
	}
	return nil
}

// SymbolsFromIndices maps detected point indices to complex symbols,
// a convenience for computing residuals and in examples.
func SymbolsFromIndices(cons *constellation.Constellation, idx []int) []complex128 {
	out := make([]complex128, len(idx))
	for i, ix := range idx {
		out[i] = cons.PointIndex(ix)
	}
	return out
}
