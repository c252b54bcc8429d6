package core

import (
	"fmt"
	"math"

	"repro/internal/cmplxmat"
)

// prepMode identifies which derivation of the channel matrix a
// PreparedChannel holds. Detectors that share a derivation (the
// unordered sphere decoders and the soft decoder both consume the
// plain thin QR of H) can share one cached PreparedChannel; a mode
// mismatch simply refills the cache.
type prepMode uint8

const (
	prepModeNone      prepMode = iota // empty / invalidated
	prepModeQR                        // thin QR of H itself
	prepModeOrderedQR                 // QR of column-energy-ordered H, with perm
	prepModeRVD                       // QR of the 2na×2nc real embedding of H
)

// PreparedChannel caches everything a detector's Prepare derives from
// one channel matrix: the QR factorization (with its reusable
// workspace), the column permutation when ordering is on, and the
// diagonal tables (|R[l][l]|² and 1/R[l][l]) the tree search consumes.
//
// A PreparedChannel is filled on the first PrepareShared against a
// channel and then revalidated by an exact elementwise comparison of
// the incoming matrix with the cached copy: a fingerprint or pointer
// check alone cannot guarantee the byte-identical results the golden
// regression suite pins (hashes collide; callers may redraw into the
// same matrix object), whereas the exact compare early-outs on the
// first differing element for genuinely new channels and costs only
// na·nc equality tests on a hit — far less than one Householder
// reflection. Epoch counts refills.
//
// A zero PreparedChannel is ready to use. The struct is not safe for
// concurrent use; the link layer keeps one pool per worker.
type PreparedChannel struct {
	hcopy *cmplxmat.Matrix // private copy of the last-prepared channel
	mode  prepMode
	epoch uint64 // refill count; 0 means never filled

	qr   cmplxmat.QR      // factorization + its workspace
	perm []int            // QR column → original stream, ordered mode only
	rll2 []float64        // |R[l][l]|² per tree level
	rinv []complex128     // 1/R[l][l] per tree level
	hq   *cmplxmat.Matrix // derived QR input (permuted copy / real embedding)

	// kappa2 is the diagonal condition estimate κ̂² = max|R[l][l]|² /
	// min|R[l][l]|², derived for free from the diagonal tables whenever
	// they are (re)built. It lower-bounds the true κ²(H) (the singular
	// values interlace the R diagonal), which makes it a cheap
	// per-subcarrier difficulty signal: no SVD, no Cond2, no extra
	// arithmetic on the hot path.
	kappa2 float64

	energy []float64 // column-energy scratch for the ordering pass

	// Zero-forcing filter side-cache: zfw is the cached pseudo-inverse
	// of zfcopy. It lives beside the QR derivations rather than in the
	// mode machinery, so a group alternating between a sphere tier and
	// the ZF tier — the serving layer's degradation ladder does exactly
	// that — thrashes neither cache.
	zfw    *cmplxmat.Matrix
	zfcopy *cmplxmat.Matrix

	// Incremental re-preparation (opt-in via SetIncremental): a miss
	// whose cached channel has the same shape and mode and has only
	// drifted slightly is absorbed by per-column rank-1 QR updates
	// instead of a full refactorization. updates counts incremental
	// refills, chain the consecutive ones since the last full
	// factorization — capped so accumulated rotation roundoff is
	// periodically squeezed back out by a fresh decomposition.
	incremental bool
	updates     uint64
	chain       int
	ucol        []complex128 // rank-1 update column scratch
	ucol2       []complex128 // second embedding column, RVD mode
	vcol        []complex128 // one-hot right factor scratch
	permScratch []int        // reordering probe, ordered mode
}

// maxUpdateChain bounds consecutive rank-1 re-preparations between
// full factorizations, keeping accumulated Givens roundoff far below
// detection-relevant scales while still amortizing nearly every
// refactorization of a drifting channel.
const maxUpdateChain = 64

// qrUpdateMaxDrift is the relative Frobenius drift above which an
// incremental re-preparation falls back to a full factorization: past
// it the channel is not "slowly drifting" and the rank-1 chain loses
// both its speed and its accuracy advantage.
const qrUpdateMaxDrift = 0.25

// SetIncremental toggles the incremental re-preparation path. Off (the
// default) every miss refactorizes from scratch, preserving the
// bit-identical refill semantics the golden suite pins; on, a
// same-shape slowly-drifted miss is absorbed by rank-1 QR updates.
func (pc *PreparedChannel) SetIncremental(on bool) { pc.incremental = on }

// Updates returns the number of incremental (rank-1 QR update)
// re-preparations performed since the PreparedChannel was created.
func (pc *PreparedChannel) Updates() uint64 { return pc.updates }

// Epoch returns the number of times this cache has been (re)filled;
// zero means it has never held a channel.
func (pc *PreparedChannel) Epoch() uint64 { return pc.epoch }

// Kappa2 returns the cached diagonal condition estimate κ̂² =
// max|R[l][l]|²/min|R[l][l]|² of the prepared channel, or zero when the
// cache is empty. It is computed as a byproduct of the diagonal tables
// at preparation time, so reading it costs nothing — the point of
// caching it here is that the serving layer and the adaptive scheduler
// never call the SVD-based metrics.Kappa2dB per frame. κ̂² lower-bounds
// the true κ²(H); it is a scheduling signal, not a bound certificate.
func (pc *PreparedChannel) Kappa2() float64 { return pc.kappa2 }

// Kappa2dB returns Kappa2 in decibels (the paper's Figure 9 scale), or
// NaN when the cache is empty.
func (pc *PreparedChannel) Kappa2dB() float64 {
	if pc.kappa2 <= 0 {
		return math.NaN()
	}
	return 10 * math.Log10(pc.kappa2)
}

// QRFactors returns the cached factorization, valid until the next
// refill. Callers must treat it as read-only.
func (pc *PreparedChannel) QRFactors() *cmplxmat.QR { return &pc.qr }

// Perm returns the QR-column → original-stream permutation of the
// ordered mode, nil otherwise. The slice aliases cache state.
func (pc *PreparedChannel) Perm() []int {
	if pc.mode != prepModeOrderedQR {
		return nil
	}
	return pc.perm
}

// DiagTables returns the cached per-level diagonal tables |R[l][l]|²
// and 1/R[l][l]. Both slices alias cache state and are read-only.
func (pc *PreparedChannel) DiagTables() (rll2 []float64, rinv []complex128) {
	return pc.rll2, pc.rinv
}

// matches reports whether the cache already holds the derivation of h
// for mode: same mode, same shape, elementwise-identical contents.
//
//geolint:noalloc
func (pc *PreparedChannel) matches(h *cmplxmat.Matrix, mode prepMode) bool {
	if pc.epoch == 0 || pc.mode != mode || pc.hcopy == nil {
		return false
	}
	if pc.hcopy.Rows != h.Rows || pc.hcopy.Cols != h.Cols {
		return false
	}
	for i, v := range pc.hcopy.Data {
		if v != h.Data[i] { //geolint:float-ok exact cache-identity test: a hit must guarantee bit-identical prepared state, so only exact equality qualifies
			return false
		}
	}
	return true
}

// fill (re)derives the cached state from h for mode. On error the
// cache is left invalidated so a later matches cannot report a stale
// hit.
//
//geolint:noalloc
func (pc *PreparedChannel) fill(h *cmplxmat.Matrix, mode prepMode) error {
	pc.mode = prepModeNone
	na, nc := h.Rows, h.Cols
	if pc.hcopy == nil || pc.hcopy.Rows != na || pc.hcopy.Cols != nc {
		pc.hcopy = cmplxmat.New(na, nc)
	}
	copy(pc.hcopy.Data, h.Data)

	// Build the QR input. The plain mode factorizes the cached copy
	// directly (same bits as the caller's matrix, so the factors are
	// bitwise those of QRDecompose(h)); the other modes derive it into
	// a cache-owned workspace matrix.
	hq := pc.hcopy
	levels := nc
	switch mode {
	case prepModeOrderedQR:
		if cap(pc.perm) < nc {
			pc.perm = make([]int, nc) //geolint:alloc-ok first use or reshape only
		}
		pc.perm = pc.perm[:nc]
		if cap(pc.energy) < nc {
			pc.energy = make([]float64, nc) //geolint:alloc-ok first use or reshape only
		}
		columnOrderInto(pc.perm, pc.energy[:nc], h)
		if pc.hq == nil || pc.hq.Rows != na || pc.hq.Cols != nc {
			pc.hq = cmplxmat.New(na, nc)
		}
		permuteColumnsInto(pc.hq, h, pc.perm)
		hq = pc.hq
	case prepModeRVD:
		if pc.hq == nil || pc.hq.Rows != 2*na || pc.hq.Cols != 2*nc {
			pc.hq = cmplxmat.New(2*na, 2*nc)
		}
		embedReal(pc.hq, h)
		hq = pc.hq
		levels = 2 * nc
	default:
		pc.perm = pc.perm[:0]
	}

	cmplxmat.QRDecomposeInto(&pc.qr, hq)

	if err := pc.rebuildDiagTables(levels); err != nil {
		return err
	}
	pc.mode = mode
	pc.epoch++
	pc.chain = 0
	return nil
}

// rebuildDiagTables re-derives the |R[l][l]|² and 1/R[l][l] tables the
// tree search consumes from the current factorization, reporting rank
// deficiency as an error.
//
//geolint:noalloc
func (pc *PreparedChannel) rebuildDiagTables(levels int) error {
	if cap(pc.rll2) < levels {
		pc.rll2 = make([]float64, levels)    //geolint:alloc-ok first use or reshape only
		pc.rinv = make([]complex128, levels) //geolint:alloc-ok first use or reshape only
	}
	pc.rll2 = pc.rll2[:levels]
	pc.rinv = pc.rinv[:levels]
	for l := 0; l < levels; l++ {
		rll := pc.qr.R.At(l, l)
		mag2 := real(rll)*real(rll) + imag(rll)*imag(rll)
		if mag2 == 0 { //geolint:float-ok exact-zero test for rank deficiency, not a tolerance comparison
			//geolint:alloc-ok error path
			return fmt.Errorf("core: rank-deficient channel (zero R[%d][%d]): %w", l, l, cmplxmat.ErrSingular)
		}
		pc.rll2[l] = mag2
		pc.rinv[l] = 1 / rll
	}
	// κ̂² rides along for free: the extremes of the diagonal just built.
	minR2, maxR2 := pc.rll2[0], pc.rll2[0]
	for _, m2 := range pc.rll2[1:] {
		if m2 < minR2 {
			minR2 = m2
		}
		if m2 > maxR2 {
			maxR2 = m2
		}
	}
	pc.kappa2 = maxR2 / minR2
	return nil
}

// tryUpdate attempts to absorb a cache miss by rank-1 QR updates: when
// the cached channel has the same shape and mode and the incoming one
// is a small drift of it, each changed column contributes a rank-1
// correction (two for the real embedding, whose columns pair up per
// complex column) applied with cmplxmat.QRUpdateInto in O(mn+n²)
// instead of the O(mn²) full refactorization. Returns false whenever a
// full fill is required — too much drift, a changed detection order,
// an exhausted update chain, or a (near-)rank-deficient result — and
// in that case may leave the cached state partially mutated; the
// caller must follow up with fill, which rederives everything from h.
//
//geolint:noalloc
func (pc *PreparedChannel) tryUpdate(h *cmplxmat.Matrix, mode prepMode) bool {
	if pc.epoch == 0 || pc.mode != mode || pc.hcopy == nil || pc.chain >= maxUpdateChain {
		return false
	}
	if pc.hcopy.Rows != h.Rows || pc.hcopy.Cols != h.Cols {
		return false
	}
	na, nc := h.Rows, h.Cols

	// Drift gate: rank-1 chains only beat refactorization — in time and
	// in accumulated roundoff — while the channel is slowly drifting.
	var drift2, norm2 float64
	for i, v := range pc.hcopy.Data {
		d := h.Data[i] - v
		drift2 += real(d)*real(d) + imag(d)*imag(d)
		norm2 += real(v)*real(v) + imag(v)*imag(v)
	}
	if norm2 == 0 || drift2 > qrUpdateMaxDrift*qrUpdateMaxDrift*norm2 { //geolint:float-ok drift-gate threshold, an explicit policy comparison
		return false
	}

	rows, levels := na, nc
	if mode == prepModeRVD {
		rows, levels = 2*na, 2*nc
	}
	if cap(pc.ucol) < rows || cap(pc.vcol) < levels || cap(pc.permScratch) < nc {
		pc.ucol = make([]complex128, rows)   //geolint:alloc-ok first use or reshape only
		pc.ucol2 = make([]complex128, rows)  //geolint:alloc-ok first use or reshape only
		pc.vcol = make([]complex128, levels) //geolint:alloc-ok first use or reshape only
		pc.permScratch = make([]int, nc)     //geolint:alloc-ok first use or reshape only
	}
	pc.ucol = pc.ucol[:rows]
	pc.ucol2 = pc.ucol2[:rows]
	pc.vcol = pc.vcol[:levels]
	for i := range pc.vcol {
		pc.vcol[i] = 0
	}

	if mode == prepModeOrderedQR {
		// The update only preserves the cached derivation when the
		// column-energy ordering is unchanged; a reordering permutes the
		// QR input wholesale and needs a fresh factorization.
		pc.permScratch = pc.permScratch[:nc]
		if cap(pc.energy) < nc {
			pc.energy = make([]float64, nc) //geolint:alloc-ok first use or reshape only
		}
		columnOrderInto(pc.permScratch, pc.energy[:nc], h)
		for i, p := range pc.permScratch {
			if pc.perm[i] != p {
				return false
			}
		}
	}

	for c := 0; c < nc; c++ {
		changed := false
		for r := 0; r < na; r++ {
			if h.At(r, c) != pc.hcopy.At(r, c) { //geolint:float-ok exact change detection: unchanged columns must contribute exactly nothing
				changed = true
				break
			}
		}
		if !changed {
			continue
		}
		switch mode {
		case prepModeRVD:
			// Complex column c spans embedding columns c (its real part
			// stacked over its imaginary part) and c+nc (−imag over
			// real): one drifted complex column is two rank-1 updates.
			for r := 0; r < na; r++ {
				d := h.At(r, c) - pc.hcopy.At(r, c)
				pc.ucol[r] = complex(real(d), 0)
				pc.ucol[r+na] = complex(imag(d), 0)
				pc.ucol2[r] = complex(-imag(d), 0)
				pc.ucol2[r+na] = complex(real(d), 0)
			}
			pc.vcol[c] = 1
			cmplxmat.QRUpdateInto(&pc.qr, pc.ucol, pc.vcol)
			pc.vcol[c] = 0
			pc.vcol[c+nc] = 1
			cmplxmat.QRUpdateInto(&pc.qr, pc.ucol2, pc.vcol)
			pc.vcol[c+nc] = 0
			for r := 0; r < na; r++ {
				v := h.At(r, c)
				pc.hq.Set(r, c, complex(real(v), 0))
				pc.hq.Set(r, c+nc, complex(-imag(v), 0))
				pc.hq.Set(r+na, c, complex(imag(v), 0))
				pc.hq.Set(r+na, c+nc, complex(real(v), 0))
			}
		case prepModeOrderedQR:
			j := 0 // QR input column holding stream c under the ordering
			for ; j < nc; j++ {
				if pc.perm[j] == c {
					break
				}
			}
			for r := 0; r < na; r++ {
				pc.ucol[r] = h.At(r, c) - pc.hcopy.At(r, c)
			}
			pc.vcol[j] = 1
			cmplxmat.QRUpdateInto(&pc.qr, pc.ucol, pc.vcol)
			pc.vcol[j] = 0
			for r := 0; r < na; r++ {
				pc.hq.Set(r, j, h.At(r, c))
			}
		default: // prepModeQR: the QR input is the cached copy itself
			for r := 0; r < na; r++ {
				pc.ucol[r] = h.At(r, c) - pc.hcopy.At(r, c)
			}
			pc.vcol[c] = 1
			cmplxmat.QRUpdateInto(&pc.qr, pc.ucol, pc.vcol)
			pc.vcol[c] = 0
		}
	}

	copy(pc.hcopy.Data, h.Data)
	if err := pc.rebuildDiagTables(levels); err != nil {
		// Updated factors went (numerically) rank deficient; hand the
		// channel to the full path, which overwrites everything anyway.
		pc.mode = prepModeNone
		return false
	}
	pc.epoch++
	pc.updates++
	pc.chain++
	return true
}

// prepare is the shared fast-path/refill sequence every SharedPreparer
// runs: revalidate the cache against h, reject a non-finite miss
// without touching the cache, absorb a slowly-drifted miss with rank-1
// QR updates when the incremental path is enabled, and fall back to a
// full refill otherwise.
//
//geolint:noalloc
func (pc *PreparedChannel) prepare(h *cmplxmat.Matrix, mode prepMode) (bool, error) {
	if pc.matches(h, mode) {
		return true, nil
	}
	if err := CheckFinite(h); err != nil {
		return false, err
	}
	if pc.incremental && pc.tryUpdate(h, mode) {
		return false, nil
	}
	return false, pc.fill(h, mode)
}

// PrepareQR revalidates-or-fills the cache with the plain thin QR of h
// and reports whether the cached derivation was reused. It is the
// exported entry for detectors outside this package (K-best) that
// implement SharedPreparer against the same plain-QR derivation the
// unordered sphere decoders cache — sharing it means a group whose
// frames alternate between those tiers never pays a second
// factorization.
//
//geolint:noalloc
func (pc *PreparedChannel) PrepareQR(h *cmplxmat.Matrix) (bool, error) {
	return pc.prepare(h, prepModeQR)
}

// PrepareZF returns the zero-forcing (pseudo-inverse) filter of h,
// served from the side-cache when h matches the filter's source copy
// exactly and rederived — bitwise h.PseudoInverse() — otherwise. The
// returned matrix is cache-owned and read-only. hit reports reuse.
func (pc *PreparedChannel) PrepareZF(h *cmplxmat.Matrix) (w *cmplxmat.Matrix, hit bool, err error) {
	if h == nil {
		return nil, false, ErrNotPrepared
	}
	if pc.zfw != nil && pc.zfcopy.Rows == h.Rows && pc.zfcopy.Cols == h.Cols {
		same := true
		for i, v := range pc.zfcopy.Data {
			if v != h.Data[i] { //geolint:float-ok exact cache-identity test: a hit must guarantee the bitwise-identical filter, so only exact equality qualifies
				same = false
				break
			}
		}
		if same {
			return pc.zfw, true, nil
		}
	}
	if err := CheckFinite(h); err != nil {
		return nil, false, err
	}
	w, err = h.PseudoInverse()
	if err != nil {
		return nil, false, err
	}
	if pc.zfcopy == nil || pc.zfcopy.Rows != h.Rows || pc.zfcopy.Cols != h.Cols {
		pc.zfcopy = cmplxmat.New(h.Rows, h.Cols)
	}
	copy(pc.zfcopy.Data, h.Data)
	pc.zfw = w
	return w, false, nil
}

// SharedPreparer is implemented by detectors whose Prepare can attach
// to an externally cached PreparedChannel instead of rederiving the
// channel state. PrepareShared behaves exactly like Prepare — same
// validation, same resulting detector state bit for bit — but consults
// pc first: on a hit (pc already holds this channel's derivation) the
// factorization, ordering and table construction are all skipped.
//
// The hit return value reports whether the cache was reused; it feeds
// the hit/miss counters the observability layer publishes and is never
// allowed to influence detection results.
type SharedPreparer interface {
	Detector
	PrepareShared(pc *PreparedChannel, h *cmplxmat.Matrix) (hit bool, err error)
}

// PrepPool holds one PreparedChannel per slot — one per OFDM data
// subcarrier in the link pipeline — so a worker's detector re-prepares
// each subcarrier only when that subcarrier's channel actually
// changes. It is not safe for concurrent use: every pipeline worker
// owns its own pool.
type PrepPool struct {
	pcs          []PreparedChannel
	hits, misses uint64
	qrUpdates    uint64
}

// NewPrepPool returns a pool with `slots` empty cache entries.
func NewPrepPool(slots int) *PrepPool {
	if slots <= 0 {
		panic(fmt.Sprintf("core: PrepPool needs at least one slot, got %d", slots))
	}
	return &PrepPool{pcs: make([]PreparedChannel, slots)}
}

// Slots returns the number of cache entries.
func (p *PrepPool) Slots() int { return len(p.pcs) }

// Prepare prepares det for h using slot's cache when det supports
// shared preparation, falling back to det.Prepare otherwise (linear
// detectors, K-best, the hybrid switch). Out-of-range slots also fall
// back rather than panic, so callers with odd geometries degrade to
// the uncached behavior.
//
//geolint:noalloc
func (p *PrepPool) Prepare(det Detector, slot int, h *cmplxmat.Matrix) error {
	if sp, ok := det.(SharedPreparer); ok && slot >= 0 && slot < len(p.pcs) {
		pc := &p.pcs[slot]
		before := pc.updates
		hit, err := sp.PrepareShared(pc, h)
		if err != nil {
			return err
		}
		switch {
		case hit:
			p.hits++
		case pc.updates != before:
			p.qrUpdates++
		default:
			p.misses++
		}
		return nil
	}
	p.misses++
	return det.Prepare(h)
}

// Counters returns the cumulative cache hit and miss counts. A miss
// absorbed by the incremental QR-update path counts as neither; it is
// reported separately by QRUpdates.
func (p *PrepPool) Counters() (hits, misses uint64) { return p.hits, p.misses }

// QRUpdates returns the number of cache misses that were absorbed by
// rank-1 QR updates instead of full refactorizations. Always zero
// unless SetIncremental(true) has been called.
func (p *PrepPool) QRUpdates() uint64 { return p.qrUpdates }

// SetIncremental toggles the incremental re-preparation path on every
// slot in the pool. See PreparedChannel.SetIncremental.
func (p *PrepPool) SetIncremental(on bool) {
	for i := range p.pcs {
		p.pcs[i].SetIncremental(on)
	}
}

// AppendKappa2dB appends the cached diagonal condition estimate (in
// dB) of every filled slot to dst and returns it. Empty slots (never
// prepared through a SharedPreparer) are skipped, so on the batched
// link path the result holds one value per data subcarrier. The caller
// reuses dst across frames to keep the observability path
// allocation-free.
//
//geolint:noalloc
func (p *PrepPool) AppendKappa2dB(dst []float64) []float64 {
	for i := range p.pcs {
		if p.pcs[i].epoch == 0 {
			continue
		}
		dst = append(dst, p.pcs[i].Kappa2dB()) //geolint:alloc-ok caller presizes dst; growth only on first frame
	}
	return dst
}

// MeanKappa2dB returns the mean cached condition estimate (in dB)
// across the pool's filled slots, or NaN when no slot has been filled
// yet. The serving layer uses it as a per-group conditioning summary —
// read from state the first processed frame already built, never
// recomputed.
//
//geolint:noalloc
func (p *PrepPool) MeanKappa2dB() float64 {
	var sum float64
	n := 0
	for i := range p.pcs {
		if p.pcs[i].epoch == 0 {
			continue
		}
		sum += p.pcs[i].Kappa2dB()
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// embedReal writes the real-valued decomposition of h into dst
// (2na×2nc, imaginary parts identically zero):
//
//	[Re H, −Im H; Im H, Re H]
//
//geolint:noalloc
func embedReal(dst, h *cmplxmat.Matrix) {
	na, nc := h.Rows, h.Cols
	for r := 0; r < na; r++ {
		for c := 0; c < nc; c++ {
			v := h.At(r, c)
			dst.Set(r, c, complex(real(v), 0))
			dst.Set(r, c+nc, complex(-imag(v), 0))
			dst.Set(r+na, c, complex(imag(v), 0))
			dst.Set(r+na, c+nc, complex(real(v), 0))
		}
	}
}
