// Package kbest implements the breadth-first baselines surveyed in
// §6.1: the K-best sphere decoder and the fixed-complexity sphere
// decoder (FCSD). Both trade the exact maximum-likelihood guarantee of
// depth-first search for a fixed, parallelizable amount of work; the
// paper's related-work discussion (and our ablation benches) show why
// that trade is a poor fit for dense constellations.
package kbest

import (
	"fmt"
	"math"

	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
)

// KBest is a breadth-first decoder that retains the K lowest-distance
// partial paths at every tree level. K must grow with constellation
// density to stay near maximum likelihood, which is exactly the
// scaling problem §6.1 describes.
//
// Survivor selection is a lazy Schnorr-Euchner merge rather than a
// full expansion: each parent's children factor into per-row column
// streams that are sorted by construction (the row/column PAM
// decomposition of Figure 4), the level's K best children are drawn
// from a min-heap over the stream heads, and rows are opened lazily in
// increasing row distance — their heads are dominated by the open ones
// until then. A level therefore evaluates at most ~3K partial
// distances instead of K·|O|, which is what makes K-best usable as the
// bounded-cost tier of the condition-adaptive scheduler on dense
// constellations.
type KBest struct {
	cons *constellation.Constellation
	k    int

	h     *cmplxmat.Matrix
	qr    *cmplxmat.QR
	ownQR cmplxmat.QR // workspace backing plain Prepare calls
	perm  []int       // QR column → original stream, factors mode only
	nc    int
	stats core.Stats

	yhat []complex128
	// Breadth-first scratch, sized once per shape: survivor paths live
	// in flat stride-nc index arrays (path position p holds the symbol
	// of tree level nc−1−p) with parallel PED arrays; cur and next swap
	// every level — the steady-state Detect allocates nothing.
	curIdx  []int // ≤ k survivor paths, stride nc
	nextIdx []int // ≤ k selected children, stride nc
	curPED  []float64
	nextPED []float64
	parents []kParent // per-survivor expansion state for one level
	heap    []kStream // merge heap over per-(parent,row) column streams
	nextPar []int     // selected child → parent survivor
	nextPt  []int     // selected child → constellation point
}

// kParent is one survivor's expansion state at the current level: the
// normalized target t = s/r_ll its children are measured against, the
// accumulated distance of its path, and the zigzag frontier over row
// (Q-axis) PAM lines.
type kParent struct {
	tr, ti float64
	a2     float64 // |r_ll|²
	base   float64
	cdist2 float64 // squared I-axis distance of the nearest column
	col0   int32   // nearest I-axis PAM line to tr
	rowLo  int32   // consumed row window [rowLo, rowHi]
	rowHi  int32
}

// kStream is one heap entry: the head of a (parent, row) column
// stream. ped/ord order the heap (ord is the parent-major generation
// index, matching the tie-break of a full sorted expansion); colLo and
// colHi track the consumed column window of this stream.
type kStream struct {
	ped    float64
	rdist2 float64
	ord    int32
	parent int32
	row    int32 // Q-axis PAM line of this stream
	col    int32 // current head's I-axis PAM line
	colLo  int32 // consumed column window [colLo, colHi]
	colHi  int32
	first  bool // head not yet popped; popping it opens the next row
}

var _ core.Detector = (*KBest)(nil)
var _ core.Counter = (*KBest)(nil)

// NewKBest returns a K-best decoder keeping k survivors per level.
func NewKBest(cons *constellation.Constellation, k int) (*KBest, error) {
	if k <= 0 {
		return nil, fmt.Errorf("kbest: K must be positive, got %d", k)
	}
	return &KBest{cons: cons, k: k}, nil
}

// Name implements core.Detector.
func (d *KBest) Name() string { return fmt.Sprintf("K-best(K=%d)", d.k) }

// Constellation implements core.Detector.
func (d *KBest) Constellation() *constellation.Constellation { return d.cons }

// Stats implements core.Counter.
func (d *KBest) Stats() core.Stats { return d.stats }

// ResetStats implements core.Counter.
func (d *KBest) ResetStats() { d.stats = core.Stats{} }

// Prepare implements core.Detector. The factorization fills the
// decoder-owned workspace (QRDecomposeInto is bitwise QRDecompose), so
// re-preparing a same-shaped channel allocates nothing.
func (d *KBest) Prepare(h *cmplxmat.Matrix) error {
	if h == nil {
		return core.ErrNotPrepared
	}
	if h.Rows < h.Cols {
		return fmt.Errorf("kbest: need na ≥ nc, got %d×%d channel", h.Rows, h.Cols)
	}
	if err := core.CheckFinite(h); err != nil {
		return err
	}
	d.h = h
	cmplxmat.QRDecomposeInto(&d.ownQR, h)
	d.qr = &d.ownQR
	d.perm = nil
	d.nc = h.Cols
	d.sizeScratch(h.Cols)
	return nil
}

var _ core.SharedPreparer = (*KBest)(nil)

// PrepareShared implements core.SharedPreparer: the K-best search runs
// on the pool's cached plain thin QR of h — the same derivation the
// unordered sphere decoders cache, and bitwise the factorization
// Prepare would compute itself (QRDecomposeInto is deterministic on
// identical input bits) — so decisions are identical to Prepare's and
// a group whose frames alternate between the sphere and K-best tiers
// never pays a second factorization.
//
//geolint:noalloc
func (d *KBest) PrepareShared(pc *core.PreparedChannel, h *cmplxmat.Matrix) (bool, error) {
	if h == nil {
		return false, core.ErrNotPrepared
	}
	if h.Rows < h.Cols {
		//geolint:alloc-ok error path
		return false, fmt.Errorf("kbest: need na ≥ nc, got %d×%d channel", h.Rows, h.Cols)
	}
	hit, err := pc.PrepareQR(h)
	if err != nil {
		return false, err
	}
	d.h = h
	d.qr = pc.QRFactors()
	d.perm = nil
	d.nc = h.Cols
	d.sizeScratch(h.Cols)
	return hit, nil
}

// PrepareFactors attaches an externally computed thin-QR factorization
// of h instead of refactorizing: qr holds Q and R (of h's columns
// permuted by perm when perm is non-nil, with perm[l] naming the
// original stream of QR column l — the ordered-QR layout of
// core.PreparedChannel). Detect then reports decisions in original
// stream order. The adaptive scheduler uses this to run its K-best
// tier on the very factorization the sphere tier's preparation cache
// already built, so tiering down never costs a second QR.
//
//geolint:noalloc
func (d *KBest) PrepareFactors(h *cmplxmat.Matrix, qr *cmplxmat.QR, perm []int) error {
	if h == nil || qr == nil {
		return core.ErrNotPrepared
	}
	if h.Rows < h.Cols {
		//geolint:alloc-ok error path
		return fmt.Errorf("kbest: need na ≥ nc, got %d×%d channel", h.Rows, h.Cols)
	}
	if perm != nil && len(perm) != h.Cols {
		//geolint:alloc-ok error path
		return fmt.Errorf("kbest: perm has %d entries, want %d", len(perm), h.Cols)
	}
	d.h = h
	d.qr = qr
	d.perm = perm
	d.nc = h.Cols
	d.sizeScratch(h.Cols)
	return nil
}

// sizeScratch (re)sizes the breadth-first buffers for nc tree levels.
// Same-shape calls touch nothing but slice headers. Every buffer is
// O(K): the lazy merge never materializes the K·|O| expansion.
//
//geolint:noalloc
func (d *KBest) sizeScratch(nc int) {
	k := d.k
	if cap(d.yhat) < nc || cap(d.curIdx) < k*nc {
		d.yhat = make([]complex128, nc)    //geolint:alloc-ok first use or reshape only
		d.curIdx = make([]int, k*nc)       //geolint:alloc-ok first use or reshape only
		d.nextIdx = make([]int, k*nc)      //geolint:alloc-ok first use or reshape only
		d.curPED = make([]float64, k)      //geolint:alloc-ok first use or reshape only
		d.nextPED = make([]float64, k)     //geolint:alloc-ok first use or reshape only
		d.parents = make([]kParent, k)     //geolint:alloc-ok first use or reshape only
		d.heap = make([]kStream, 0, 2*k+1) //geolint:alloc-ok first use or reshape only
		d.nextPar = make([]int, k)         //geolint:alloc-ok first use or reshape only
		d.nextPt = make([]int, k)          //geolint:alloc-ok first use or reshape only
		return
	}
	d.yhat = d.yhat[:nc]
	d.curIdx = d.curIdx[:k*nc]
	d.nextIdx = d.nextIdx[:k*nc]
	d.curPED = d.curPED[:k]
	d.nextPED = d.nextPED[:k]
}

// Detect implements core.Detector. The steady-state path (non-nil dst,
// no errors) is allocation-free: expansions, PEDs and the survivor
// selection all run in preallocated scratch.
//
//geolint:noalloc
func (d *KBest) Detect(dst []int, y []complex128) ([]int, error) {
	if d.h == nil {
		return nil, core.ErrNotPrepared
	}
	if len(y) != d.h.Rows {
		//geolint:alloc-ok error path
		return nil, fmt.Errorf("kbest: received vector has %d entries, channel has %d rows", len(y), d.h.Rows)
	}
	if dst == nil {
		dst = make([]int, d.nc) //geolint:alloc-ok one-time convenience path; steady state passes dst
	} else if len(dst) != d.nc {
		//geolint:alloc-ok error path
		return nil, fmt.Errorf("kbest: dst has %d entries, want %d", len(dst), d.nc)
	}
	d.qr.ApplyQConjT(d.yhat, y)
	size := d.cons.Size()
	nc := d.nc
	nCur := 1
	d.curPED[0] = 0
	depth := 0 // filled path positions; position p holds level nc−1−p
	for l := nc - 1; l >= 0; l-- {
		rll := d.qr.R.At(l, l)
		row := d.qr.R.Row(l)
		// Per-parent expansion state: normalized target and the lazily
		// opened zigzag frontiers.
		a2 := real(rll)*real(rll) + imag(rll)*imag(rll)
		var invRll complex128
		if a2 > 0 {
			invRll = 1 / rll
		}
		for c := 0; c < nCur; c++ {
			path := d.curIdx[c*nc : c*nc+nc]
			// Interference-reduced target for this level.
			s := d.yhat[l]
			for j := l + 1; j < nc; j++ {
				s -= row[j] * d.cons.PointIndex(path[nc-1-j])
			}
			p := &d.parents[c]
			p.a2 = a2
			p.base = d.curPED[c]
			p.rowLo, p.rowHi = 1, 0 // empty window: no row opened yet
			if a2 > 0 {
				t := s * invRll
				p.tr, p.ti = real(t), imag(t)
			} else {
				// Rank-deficient diagonal: every child costs
				// base + |s|²; enumerate from the origin.
				p.tr, p.ti = 0, 0
				p.base += real(s)*real(s) + imag(s)*imag(s)
			}
			// Every row stream of this parent starts at the same nearest
			// column; slice it once here instead of per opened row.
			col0 := d.cons.SliceAxis(p.tr)
			dx := p.tr - d.cons.AxisCoord(col0)
			p.col0, p.cdist2 = int32(col0), dx*dx
		}
		keep := nCur * size
		if keep > d.k {
			keep = d.k
		}
		d.expandLevel(nCur, keep)
		// Materialize the selected children into the spare path buffer,
		// then promote it: child paths alias parent rows of curIdx, so
		// writing in place could clobber a parent still referenced by a
		// later child.
		for i := 0; i < keep; i++ {
			par := d.nextPar[i]
			np := d.nextIdx[i*nc : i*nc+nc]
			copy(np[:depth], d.curIdx[par*nc:par*nc+depth])
			np[depth] = d.nextPt[i]
		}
		d.curIdx, d.nextIdx = d.nextIdx, d.curIdx
		d.curPED, d.nextPED = d.nextPED, d.curPED
		d.stats.VisitedNodes += int64(keep)
		nCur = keep
		depth++
	}
	d.stats.Detections++
	d.stats.Leaves += int64(nCur)
	// The survivor buffer is sorted; position 0 is the decision. Paths
	// are stored top-of-tree first (level nc−1 at position 0); factors
	// mode additionally maps QR column l back to stream perm[l].
	best := d.curIdx[:nc]
	for pos, pt := range best {
		l := nc - 1 - pos
		if d.perm != nil {
			dst[d.perm[l]] = pt
		} else {
			dst[l] = pt
		}
	}
	return dst, nil
}

// expandLevel draws the keep best children of the nCur current
// survivors in ascending (PED, generation order), filling
// nextPED/nextPar/nextPt. It is an exact K-way merge: every (parent,
// row) pair is a column stream sorted by construction, the heap holds
// the active stream heads, advancing a popped stream re-inserts its
// next column, and a parent's next row is opened the first time one of
// its row heads pops — until then the unopened head is dominated by an
// in-heap entry, so laziness never changes the selection.
//
//geolint:noalloc
func (d *KBest) expandLevel(nCur, keep int) {
	d.heap = d.heap[:0]
	for c := 0; c < nCur; c++ {
		d.openNextRow(c)
	}
	for n := 0; n < keep; n++ {
		e := d.heap[0]
		d.nextPED[n] = e.ped
		d.nextPar[n] = int(e.parent)
		d.nextPt[n] = d.cons.Index(int(e.col), int(e.row))
		first := e.first
		p := &d.parents[e.parent]
		if col, lo, hi, ok := d.nextLine(int(e.colLo), int(e.colHi), p.tr); ok {
			// Advance the column stream in place: replacing the root and
			// sifting once costs half of a pop followed by a push.
			dx := p.tr - d.cons.AxisCoord(col)
			e.col, e.colLo, e.colHi = int32(col), int32(lo), int32(hi)
			e.ped = p.base + p.a2*(e.rdist2+dx*dx)
			e.ord = e.parent*int32(d.cons.Size()) + int32(d.cons.Index(col, int(e.row)))
			e.first = false
			d.stats.PEDCalcs++
			d.siftDown(e)
		} else {
			d.removeTop()
		}
		if first {
			d.openNextRow(int(e.parent))
		}
	}
}

// openNextRow opens parent c's next-nearest row (Q-axis line) as a
// fresh column stream and pushes its head. The first call slices the
// target's row; later calls advance the row zigzag frontier.
//
//geolint:noalloc
func (d *KBest) openNextRow(c int) {
	p := &d.parents[c]
	var row int
	if p.rowHi < p.rowLo {
		row = d.cons.SliceAxis(p.ti)
		p.rowLo, p.rowHi = int32(row), int32(row)
	} else {
		nrow, lo, hi, ok := d.nextLine(int(p.rowLo), int(p.rowHi), p.ti)
		if !ok {
			return
		}
		row = nrow
		p.rowLo, p.rowHi = int32(lo), int32(hi)
	}
	dy := p.ti - d.cons.AxisCoord(row)
	rdist2 := dy * dy
	d.stats.PEDCalcs++
	d.pushStream(kStream{
		ped:    p.base + p.a2*(rdist2+p.cdist2),
		rdist2: rdist2,
		ord:    int32(c*d.cons.Size() + d.cons.Index(int(p.col0), row)),
		parent: int32(c),
		row:    int32(row),
		col:    p.col0,
		colLo:  p.col0,
		colHi:  p.col0,
		first:  true,
	})
}

// nextLine advances a one-axis zigzag frontier: given the consumed
// window [lo, hi] around a target coordinate t, it returns the nearer
// of the two untried neighbouring PAM lines (ties toward the lower
// line) and the widened window.
func (d *KBest) nextLine(lo, hi int, t float64) (line, nlo, nhi int, ok bool) {
	below, above := lo > 0, hi < d.cons.Side()-1
	switch {
	case !below && !above:
		return 0, lo, hi, false
	case below && above:
		dl := t - d.cons.AxisCoord(lo-1)
		dh := d.cons.AxisCoord(hi+1) - t
		if dl*dl <= dh*dh {
			return lo - 1, lo - 1, hi, true
		}
		return hi + 1, lo, hi + 1, true
	case below:
		return lo - 1, lo - 1, hi, true
	default:
		return hi + 1, lo, hi + 1, true
	}
}

// streamLess orders heap entries by ascending PED, breaking exact ties
// by generation order so the survivor set stays a deterministic
// function of the expansion sequence.
func streamLess(a, b kStream) bool {
	if a.ped != b.ped { //geolint:float-ok exact-tie detection only orders identical distances deterministically
		return a.ped < b.ped
	}
	return a.ord < b.ord
}

// pushStream inserts e, shifting ancestors down into the hole instead
// of swapping pairwise — the entries are 48 bytes, so halving the
// copies matters on the profile.
//
//geolint:noalloc
func (d *KBest) pushStream(e kStream) {
	d.heap = append(d.heap, e)
	i := len(d.heap) - 1
	for i > 0 {
		par := (i - 1) / 2
		if !streamLess(e, d.heap[par]) {
			break
		}
		d.heap[i] = d.heap[par]
		i = par
	}
	d.heap[i] = e
}

// siftDown re-seats e as the root, shifting smaller children up into
// the hole.
//
//geolint:noalloc
func (d *KBest) siftDown(e kStream) {
	n := len(d.heap)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && streamLess(d.heap[r], d.heap[l]) {
			m = r
		}
		if !streamLess(d.heap[m], e) {
			break
		}
		d.heap[i] = d.heap[m]
		i = m
	}
	d.heap[i] = e
}

// removeTop drops the root when its stream is exhausted.
//
//geolint:noalloc
func (d *KBest) removeTop() {
	last := len(d.heap) - 1
	e := d.heap[last]
	d.heap = d.heap[:last]
	if last > 0 {
		d.siftDown(e)
	}
}

// FCSD is the fixed-complexity sphere decoder of Barbero & Thompson:
// the top fullLevels tree levels are expanded exhaustively and every
// partial path is then completed by single-branch (slicing) descent.
// Its complexity is constant — |O|^fullLevels leaf evaluations — but
// it only approaches maximum likelihood asymptotically in SNR.
type FCSD struct {
	cons       *constellation.Constellation
	fullLevels int

	h     *cmplxmat.Matrix
	qr    *cmplxmat.QR
	nc    int
	stats core.Stats

	yhat []complex128
	path []int
}

var _ core.Detector = (*FCSD)(nil)
var _ core.Counter = (*FCSD)(nil)

// NewFCSD returns a fixed-complexity sphere decoder that fully expands
// the top fullLevels levels (commonly 1).
func NewFCSD(cons *constellation.Constellation, fullLevels int) (*FCSD, error) {
	if fullLevels < 0 {
		return nil, fmt.Errorf("kbest: fullLevels must be ≥ 0, got %d", fullLevels)
	}
	return &FCSD{cons: cons, fullLevels: fullLevels}, nil
}

// Name implements core.Detector.
func (d *FCSD) Name() string { return fmt.Sprintf("FCSD(p=%d)", d.fullLevels) }

// Constellation implements core.Detector.
func (d *FCSD) Constellation() *constellation.Constellation { return d.cons }

// Stats implements core.Counter.
func (d *FCSD) Stats() core.Stats { return d.stats }

// ResetStats implements core.Counter.
func (d *FCSD) ResetStats() { d.stats = core.Stats{} }

// Prepare implements core.Detector.
func (d *FCSD) Prepare(h *cmplxmat.Matrix) error {
	if h == nil {
		return core.ErrNotPrepared
	}
	if h.Rows < h.Cols {
		return fmt.Errorf("kbest: need na ≥ nc, got %d×%d channel", h.Rows, h.Cols)
	}
	if d.fullLevels > h.Cols {
		return fmt.Errorf("kbest: fullLevels %d exceeds %d streams", d.fullLevels, h.Cols)
	}
	if err := core.CheckFinite(h); err != nil {
		return err
	}
	d.h = h
	d.qr = cmplxmat.QRDecompose(h)
	d.nc = h.Cols
	d.yhat = make([]complex128, d.nc)
	d.path = make([]int, d.nc)
	return nil
}

// Detect implements core.Detector.
func (d *FCSD) Detect(dst []int, y []complex128) ([]int, error) {
	if d.h == nil {
		return nil, core.ErrNotPrepared
	}
	if len(y) != d.h.Rows {
		return nil, fmt.Errorf("kbest: received vector has %d entries, channel has %d rows", len(y), d.h.Rows)
	}
	if dst == nil {
		dst = make([]int, d.nc)
	} else if len(dst) != d.nc {
		return nil, fmt.Errorf("kbest: dst has %d entries, want %d", len(dst), d.nc)
	}
	d.qr.ApplyQConjT(d.yhat, y)
	bestPED := math.Inf(1)
	d.enumerateFull(d.nc-1, 0, &bestPED, dst)
	d.stats.Detections++
	if math.IsInf(bestPED, 1) {
		return nil, fmt.Errorf("kbest: FCSD found no candidate")
	}
	return dst, nil
}

// enumerateFull expands level l exhaustively while l is within the
// full-expansion region, otherwise plunges by slicing.
func (d *FCSD) enumerateFull(l int, ped float64, bestPED *float64, dst []int) {
	if d.nc-1-l >= d.fullLevels {
		// Single-branch descent: slice every remaining level.
		p := ped
		for ll := l; ll >= 0; ll-- {
			ytilde := d.reduced(ll)
			col, row := d.cons.Slice(ytilde)
			d.path[ll] = d.cons.Index(col, row)
			diff := ytilde - d.cons.Point(col, row)
			rll := real(d.qr.R.At(ll, ll))
			d.stats.PEDCalcs++
			p += rll * rll * (real(diff)*real(diff) + imag(diff)*imag(diff))
		}
		d.stats.Leaves++
		if p < *bestPED {
			*bestPED = p
			copy(dst, d.path)
		}
		return
	}
	size := d.cons.Size()
	for pt := 0; pt < size; pt++ {
		d.path[l] = pt
		ytilde := d.reduced(l)
		diff := ytilde - d.cons.PointIndex(pt)
		rll := real(d.qr.R.At(l, l))
		d.stats.PEDCalcs++
		child := ped + rll*rll*(real(diff)*real(diff)+imag(diff)*imag(diff))
		d.stats.VisitedNodes++
		d.enumerateFull(l-1, child, bestPED, dst)
	}
}

// reduced returns the interference-reduced, normalized target ỹ_l for
// the current partial path above level l.
func (d *FCSD) reduced(l int) complex128 {
	s := d.yhat[l]
	row := d.qr.R.Row(l)
	for j := l + 1; j < d.nc; j++ {
		s -= row[j] * d.cons.PointIndex(d.path[j])
	}
	return s / d.qr.R.At(l, l)
}
