// Package phy implements the coded MIMO-OFDM frame pipeline of §4:
// per-client scrambling, CRC framing, rate-1/2 (optionally punctured)
// convolutional coding, per-OFDM-symbol interleaving, QAM mapping onto
// 48 data subcarriers, per-subcarrier MIMO detection at the AP, and
// soft Viterbi decoding back to payload bits.
//
// Uplink multi-user MIMO means every client encodes independently —
// there is no coding across streams — so the receiver's only coupling
// between clients is the per-subcarrier MIMO detector, exactly the
// component the paper replaces.
package phy

import (
	"bytes"
	"fmt"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/obs"
	"repro/internal/ofdm"
	"repro/internal/rng"
)

// Config describes one frame format.
type Config struct {
	Cons       *constellation.Constellation
	Rate       fec.Rate
	NumSymbols int // OFDM symbols per frame
	// SoftDecoding feeds per-bit LLRs from the detector into the
	// Viterbi decoder instead of hard decisions. It requires a
	// detector implementing core.SoftDetector (see
	// core.NewListSphereDecoder), the §7 future-work receiver.
	SoftDecoding bool
	// Recorder, when non-nil, receives one obs.DecodeSample per stream
	// decode (Viterbi path metric and CRC outcome). It must be safe
	// for concurrent use when Links run on multiple workers.
	Recorder obs.Recorder
}

// Validate checks the configuration and returns derived sizes.
func (c Config) Validate() error {
	if c.Cons == nil {
		return fmt.Errorf("phy: no constellation configured")
	}
	if c.NumSymbols <= 0 {
		return fmt.Errorf("phy: NumSymbols must be positive, got %d", c.NumSymbols)
	}
	if c.PayloadBits() <= 0 {
		return fmt.Errorf("phy: frame of %d symbols too short for CRC and tail", c.NumSymbols)
	}
	// Puncturing must tile the coded length exactly.
	coded := c.CodedBits()
	switch c.Rate {
	case fec.Rate23:
		if coded%3 != 0 {
			return fmt.Errorf("phy: coded length %d not divisible by 3 for rate 2/3", coded)
		}
	case fec.Rate34:
		if coded%4 != 0 {
			return fmt.Errorf("phy: coded length %d not divisible by 4 for rate 3/4", coded)
		}
	}
	return nil
}

// BitsPerSymbol returns the coded bits carried by one OFDM symbol of
// one stream (N_CBPS).
func (c Config) BitsPerSymbol() int { return ofdm.NumData * c.Cons.Bits() }

// CodedBits returns the coded bits per frame per stream.
func (c Config) CodedBits() int { return c.BitsPerSymbol() * c.NumSymbols }

// InfoBits returns the information bits per frame per stream,
// including the CRC but excluding the convolutional tail.
func (c Config) InfoBits() int {
	return int(float64(c.CodedBits())*c.Rate.Fraction()) - (fec.ConstraintLength - 1)
}

// PayloadBits returns the user payload bits per frame per stream.
func (c Config) PayloadBits() int { return c.InfoBits() - 32 }

// PHYRateMbps returns the per-stream PHY bit rate in Mbit/s for this
// format over 20 MHz (48 data subcarriers, 4 µs symbols).
func (c Config) PHYRateMbps() float64 {
	return float64(c.BitsPerSymbol()) * c.Rate.Fraction() / (ofdm.SymbolDuration * 1e6)
}

// Frame is one encoded multi-stream frame in the frequency domain.
type Frame struct {
	Config   Config
	Payloads [][]byte // [stream][payload bit]
	// X[t][s] is the transmit vector across streams at OFDM symbol t,
	// data subcarrier s.
	X [][][]complex128
}

// Link runs frames through encode → channel → detect → decode.
//
// A Link owns reusable receive/decode scratch (detector outputs,
// deinterleave and depuncture buffers, a Viterbi workspace), so it is
// not safe for concurrent use: the link pipeline builds one Link per
// worker.
type Link struct {
	cfg  Config
	il   *fec.Interleaver
	nbps int

	// prep, when set via SetPrepPool, routes per-subcarrier detector
	// preparation through a per-worker PreparedChannel cache.
	prep *core.PrepPool

	rx  receiveScratch
	dec decodeScratch
	enc encodeScratch
	one batchOfOne
}

// batchOfOne holds the one-element argument slices TransmitReceive
// hands to TransmitReceiveBatchCSI, so the wrapper allocates nothing.
// It is cleared after each call so the link retains no frame.
type batchOfOne struct {
	src   [1]*rng.Source
	frame [1]*Frame
	hs    [1][]*cmplxmat.Matrix
}

// encodeScratch holds the per-stream encode buffers Encode reuses
// across streams and frames: the CRC-extended (then in-place
// scrambled) info block, the convolutional mother code, the punctured
// codeword, its per-symbol interleaving, and the per-subcarrier bit
// group fed to the constellation mapper. Only state the Frame retains
// — payloads and the symbol grid — is allocated per call.
type encodeScratch struct {
	info   []byte
	mother []byte
	coded  []byte
	inter  []byte
	bitbuf []byte
}

// receiveScratch holds the buffers TransmitReceiveBatchCSI reuses
// across batches of identical geometry: the detector outputs, the
// per-frame result and error slots, and yb, the structure-of-arrays
// received-signal buffer — one flat slice holding every (frame row,
// subcarrier) observation at yb[(row·NumData+s)·na : +na].
type receiveScratch struct {
	detIdx  [][][]int
	detLLR  [][][]float64
	yb      []complex128
	results []*Result
	errs    []error
}

// decodeScratch holds the per-stream decode buffers, sized once on
// first use so steady-state stream decoding does not allocate.
type decodeScratch struct {
	coded     []float64 // deinterleaved soft coded bits, whole frame
	codedHard []int8    // deinterleaved ±1 coded values, hard path
	bitbuf    []byte    // per-symbol demapped bits
	block     []byte    // one interleaver block, hard path
	blockSoft []float64 // one interleaver block, soft path
	deint     []byte    // deinterleaver output, hard path
	deintSoft []float64 // deinterleaver output, soft path
	llrs      []float64 // depunctured mother-code LLRs
	llrsHard  []int8    // depunctured mother-code values, hard path
	vit       fec.ViterbiWorkspace
}

// NewLink validates the configuration and builds the interleaver.
func NewLink(cfg Config) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	il, err := fec.NewInterleaver(cfg.BitsPerSymbol(), cfg.Cons.Bits())
	if err != nil {
		return nil, err
	}
	return &Link{cfg: cfg, il: il, nbps: cfg.Cons.Bits()}, nil
}

// Config returns the link's frame format.
func (l *Link) Config() Config { return l.cfg }

// SetPrepPool attaches a per-subcarrier preparation cache: subsequent
// transmit/receive calls prepare the detector through pool (slot =
// data-subcarrier index), so an unchanged channel skips its QR. A nil
// pool restores the direct det.Prepare path.
func (l *Link) SetPrepPool(pool *core.PrepPool) { l.prep = pool }

// Encode builds one frame for nc independent streams with random
// payloads drawn from src.
func (l *Link) Encode(src *rng.Source, nc int) (*Frame, error) {
	if nc <= 0 {
		return nil, fmt.Errorf("phy: need at least one stream")
	}
	cfg := l.cfg
	f := &Frame{Config: cfg}
	f.Payloads = make([][]byte, nc)
	// The symbol grid's shape is fixed by the frame format, so its
	// nested slices are views into two backing allocations (cells and
	// points) instead of NumSymbols·(NumData+1) separate ones; full
	// slice expressions keep the views from growing into each other.
	cells := make([][]complex128, cfg.NumSymbols*ofdm.NumData)
	points := make([]complex128, len(cells)*nc)
	f.X = make([][][]complex128, cfg.NumSymbols)
	for t := range f.X {
		f.X[t] = cells[t*ofdm.NumData : (t+1)*ofdm.NumData : (t+1)*ofdm.NumData]
		for s := range f.X[t] {
			off := (t*ofdm.NumData + s) * nc
			f.X[t][s] = points[off : off+nc : off+nc]
		}
	}
	payloads := make([]byte, nc*cfg.PayloadBits())
	if cap(l.enc.bitbuf) < l.nbps {
		l.enc.bitbuf = make([]byte, l.nbps)
	}
	bitbuf := l.enc.bitbuf[:l.nbps]
	for k := 0; k < nc; k++ {
		payload := payloads[k*cfg.PayloadBits() : (k+1)*cfg.PayloadBits() : (k+1)*cfg.PayloadBits()]
		src.Bits(payload)
		f.Payloads[k] = payload
		coded, err := l.encodeStream(payload, byte(0x5d+k))
		if err != nil {
			return nil, err
		}
		// Map interleaved coded bits to constellation points.
		for t := 0; t < cfg.NumSymbols; t++ {
			block := coded[t*cfg.BitsPerSymbol() : (t+1)*cfg.BitsPerSymbol()]
			for s := 0; s < ofdm.NumData; s++ {
				copy(bitbuf, block[s*l.nbps:(s+1)*l.nbps])
				col, row := cfg.Cons.MapBits(bitbuf)
				f.X[t][s][k] = cfg.Cons.Point(col, row)
			}
		}
	}
	return f, nil
}

// encodeStream runs one stream's payload through CRC, scrambling,
// convolutional coding, puncturing and per-symbol interleaving, all
// in the link's reusable encode scratch. The returned slice aliases
// that scratch: it is valid only until the next encodeStream call.
func (l *Link) encodeStream(payload []byte, scramblerSeed byte) ([]byte, error) {
	cfg := l.cfg
	es := &l.enc
	// AppendCRCTo already copies the payload into the scratch, so the
	// scrambler can run in place without a second buffer.
	es.info = fec.AppendCRCTo(es.info[:0], payload)
	if len(es.info) != cfg.InfoBits() {
		return nil, fmt.Errorf("phy: info block is %d bits, want %d", len(es.info), cfg.InfoBits())
	}
	fec.Scramble(es.info, scramblerSeed)
	es.mother = fec.ConvEncodeAppend(es.mother[:0], es.info)
	es.coded = fec.PunctureAppend(es.coded[:0], es.mother, cfg.Rate)
	if len(es.coded) != cfg.CodedBits() {
		return nil, fmt.Errorf("phy: coded block is %d bits, want %d", len(es.coded), cfg.CodedBits())
	}
	if cap(es.inter) < len(es.coded) {
		es.inter = make([]byte, len(es.coded))
	}
	es.inter = es.inter[:len(es.coded)]
	for t := 0; t < cfg.NumSymbols; t++ {
		lo, hi := t*cfg.BitsPerSymbol(), (t+1)*cfg.BitsPerSymbol()
		if _, err := l.il.Interleave(es.inter[lo:hi], es.coded[lo:hi]); err != nil {
			return nil, err
		}
	}
	return es.inter, nil
}

// Result reports one frame's reception.
type Result struct {
	// StreamOK[k] is true when stream k's CRC verified.
	StreamOK []bool
	// SymbolErrors counts wrong constellation decisions (pre-FEC).
	SymbolErrors int
	// Symbols is the total number of constellation decisions made.
	Symbols int
}

// FrameOK reports whether every stream decoded cleanly.
func (r Result) FrameOK() bool {
	for _, ok := range r.StreamOK {
		if !ok {
			return false
		}
	}
	return true
}

// TransmitReceive sends the frame over the per-subcarrier channels hs
// (one na×nc matrix per data subcarrier, constant for the frame's
// duration), with AWGN of variance noiseVar, detecting with det
// against perfect channel knowledge.
//
// The detector is Prepared once per subcarrier and reused across the
// frame's OFDM symbols, matching how a real receiver amortizes QR
// decompositions over a channel coherence time. It is
// TransmitReceiveBatchCSI over a batch of one, run from link-owned
// scratch so the wrapper allocates nothing of its own.
func (l *Link) TransmitReceive(src *rng.Source, f *Frame, hs []*cmplxmat.Matrix, det core.Detector, noiseVar float64) (*Result, error) {
	one := &l.one
	one.src[0], one.frame[0], one.hs[0] = src, f, hs
	res, errs := l.TransmitReceiveBatchCSI(one.src[:], one.frame[:], one.hs[:], one.hs[:], det, noiseVar)
	*one = batchOfOne{}
	return res[0], errs[0]
}

// TransmitReceiveBatchCSI runs a batch of frames through transmit →
// detect → decode. Frame f propagates through hsTrue[f] while the
// detector is prepared on hsDet[f] (e.g. a noisy preamble-based
// estimate from EstimateChannels; pass the same sets for perfect
// channel knowledge). It returns one Result and one error per frame;
// a frame that fails has a nil Result and its own error, and the other
// frames complete. Both slices alias link scratch and are valid until
// the next call.
//
// Every frame's Result is byte-identical to running it alone:
//
//   - Transmission runs frame by frame in subcarrier-major order, each
//     frame drawing noise from its own source, so every frame's noise
//     schedule is exactly its single-frame schedule.
//   - Detection is subcarrier-major across the whole batch. On each
//     subcarrier the detector is re-prepared only when a frame's
//     channel differs from the previous frame's (pointer compare), so
//     a batch sharing one channel set prepares once per subcarrier and
//     a batch of per-frame channels once per (frame, subcarrier); every
//     frame's symbols on that subcarrier are then swept in one pass. A
//     preparation is a pure function of the subcarrier's channel (the
//     cache-hit contract: a hit changes where prepared state comes
//     from, never what it contains), and a detection is a pure function
//     of (prepared state, observation), so this order cannot change any
//     decision.
//
// Only the complexity accounting (pool counters, detector stats) is
// attributed batch-wide rather than per frame.
func (l *Link) TransmitReceiveBatchCSI(srcs []*rng.Source, frames []*Frame, hsTrue, hsDet [][]*cmplxmat.Matrix, det core.Detector, noiseVar float64) ([]*Result, []error) {
	cfg := l.cfg
	b := len(frames)
	results, errs := l.sizeBatch(b)
	if len(srcs) != b || len(hsTrue) != b || len(hsDet) != b {
		return results, failAll(errs, fmt.Errorf("phy: batch of %d frames with %d sources and %d/%d channel sets", b, len(srcs), len(hsTrue), len(hsDet)))
	}
	var soft core.SoftDetector
	if cfg.SoftDecoding {
		sd, ok := det.(core.SoftDetector)
		if !ok {
			return results, failAll(errs, fmt.Errorf("phy: soft decoding requires a SoftDetector, %s is not one", det.Name()))
		}
		if noiseVar <= 0 {
			return results, failAll(errs, fmt.Errorf("phy: soft decoding needs a positive noise variance"))
		}
		soft = sd
	}
	// The first well-formed frame fixes the batch geometry.
	na, nc := 0, 0
	for f := range frames {
		errs[f] = checkShape(frames[f], hsTrue[f], hsDet[f], na, nc)
		if errs[f] == nil && nc == 0 {
			na, nc = hsTrue[f][0].Rows, len(frames[f].Payloads)
		}
	}
	if nc == 0 {
		return results, errs
	}
	T := cfg.NumSymbols
	detIdx, detLLR, yb := l.sizeReceive(b*T, nc, na, soft != nil)
	// Transmit frame by frame in the single-frame subcarrier-major
	// order: frame f's symbol t on subcarrier s lands at SoA row f·T+t.
	for f := range frames {
		if errs[f] != nil {
			continue
		}
		for s := 0; s < ofdm.NumData; s++ {
			for t := 0; t < T; t++ {
				at := ((f*T+t)*ofdm.NumData + s) * na
				channel.Transmit(yb[at:at+na], srcs[f], hsTrue[f][s], frames[f].X[t][s], noiseVar)
			}
		}
		results[f] = &Result{StreamOK: make([]bool, nc)}
	}
	for s := 0; s < ofdm.NumData; s++ {
		var prepared *cmplxmat.Matrix
		var prepErr error
		for f := range frames {
			if errs[f] != nil {
				continue
			}
			if h := hsDet[f][s]; h != prepared {
				prepared, prepErr = h, l.prepareDetector(det, s, h)
				if prepErr != nil {
					prepErr = fmt.Errorf("phy: prepare subcarrier %d: %w", s, prepErr)
				}
			}
			if prepErr != nil {
				errs[f] = prepErr
				continue
			}
			fIdx, fLLR := frameRows(detIdx, detLLR, f, T)
			for t := 0; t < T && errs[f] == nil; t++ {
				at := ((f*T+t)*ofdm.NumData + s) * na
				errs[f] = l.detectOne(det, soft, frames[f], results[f], fIdx, fLLR, yb[at:at+na], t, s, nc, noiseVar)
			}
		}
	}
	// Per-frame, per-stream decoding, in frame order.
	for f := range frames {
		fIdx, fLLR := frameRows(detIdx, detLLR, f, T)
		for k := 0; k < nc && errs[f] == nil; k++ {
			var ok bool
			var metric float64
			if soft != nil {
				ok, metric, errs[f] = l.decodeStreamSoft(frames[f], fLLR, k, byte(0x5d+k))
			} else {
				ok, metric, errs[f] = l.decodeStream(frames[f], fIdx, k, byte(0x5d+k))
			}
			if errs[f] != nil {
				break
			}
			results[f].StreamOK[k] = ok
			if cfg.Recorder != nil {
				cfg.Recorder.RecordDecode(obs.DecodeSample{Stream: k, PathMetric: metric, OK: ok})
			}
		}
		if errs[f] != nil {
			results[f] = nil
		}
	}
	return results, errs
}

// checkShape validates one frame of a batch: 48 channel matrices each
// for propagation and detection, all na×nc with nc the frame's stream
// count. A zero nc means the batch geometry is not fixed yet, so the
// frame's own first channel defines it.
func checkShape(f *Frame, hsTrue, hsDet []*cmplxmat.Matrix, na, nc int) error {
	if len(hsTrue) != ofdm.NumData || len(hsDet) != ofdm.NumData {
		return fmt.Errorf("phy: %d/%d subcarrier channels, want %d", len(hsTrue), len(hsDet), ofdm.NumData)
	}
	if hsTrue[0].Cols != len(f.Payloads) || len(f.Payloads) == 0 {
		return fmt.Errorf("phy: channel has %d streams, frame has %d", hsTrue[0].Cols, len(f.Payloads))
	}
	if nc == 0 {
		na, nc = hsTrue[0].Rows, len(f.Payloads)
	} else if len(f.Payloads) != nc {
		return fmt.Errorf("phy: mixed stream counts in batch (%d vs %d)", len(f.Payloads), nc)
	}
	for s := 0; s < ofdm.NumData; s++ {
		if hsTrue[s].Rows != na || hsTrue[s].Cols != nc || hsDet[s].Rows != na || hsDet[s].Cols != nc {
			return fmt.Errorf("phy: CSI shape mismatch at subcarrier %d", s)
		}
	}
	return nil
}

// failAll sets every frame's error to err and returns errs.
func failAll(errs []error, err error) []error {
	for f := range errs {
		errs[f] = err
	}
	return errs
}

// frameRows returns frame f's T symbol rows of the batch's detector
// output buffers (detLLR is nil on the hard path).
func frameRows(detIdx [][][]int, detLLR [][][]float64, f, T int) ([][][]int, [][][]float64) {
	if detLLR != nil {
		detLLR = detLLR[f*T : (f+1)*T]
	}
	return detIdx[f*T : (f+1)*T], detLLR
}

// prepareDetector prepares det for subcarrier s's channel, through the
// attached PrepPool when one is set.
func (l *Link) prepareDetector(det core.Detector, s int, h *cmplxmat.Matrix) error {
	if l.prep != nil {
		return l.prep.Prepare(det, s, h)
	}
	return det.Prepare(h)
}

// detectOne runs one (symbol, subcarrier) detection from the SoA
// receive buffer: hard decisions, soft values when requested, and the
// pre-FEC symbol-error accounting.
//
//geolint:noalloc
func (l *Link) detectOne(det core.Detector, soft core.SoftDetector, f *Frame, res *Result, detIdx [][][]int, detLLR [][][]float64, y []complex128, t, s, nc int, noiseVar float64) error {
	if _, err := det.Detect(detIdx[t][s], y); err != nil {
		//geolint:alloc-ok error path
		return fmt.Errorf("phy: detect subcarrier %d symbol %d: %w", s, t, err)
	}
	if soft != nil {
		if _, err := soft.DetectSoft(detLLR[t][s], y, noiseVar); err != nil {
			//geolint:alloc-ok error path
			return fmt.Errorf("phy: soft detect subcarrier %d symbol %d: %w", s, t, err)
		}
	}
	cons := l.cfg.Cons
	for k := 0; k < nc; k++ {
		res.Symbols++
		//geolint:float-ok both operands are verbatim entries of the same constellation table
		if cons.PointIndex(detIdx[t][s][k]) != f.X[t][s][k] {
			res.SymbolErrors++
		}
	}
	return nil
}

// sizeReceive returns the geometry-dependent detector output buffers
// and the flat SoA receive buffer for rows symbol rows (NumSymbols for
// a single frame, batch×NumSymbols for a frame batch), reusing the
// link's scratch when it is already large enough — so alternating
// batch sizes slice the same high-water-mark allocation instead of
// reallocating. Every entry is fully overwritten before use (Transmit
// writes every observation, Detect and DetectSoft write all nc entries
// of their slot), so reuse cannot leak one frame's signal or decisions
// into the next.
func (l *Link) sizeReceive(rows, nc, na int, soft bool) (detIdx [][][]int, detLLR [][][]float64, yb []complex128) {
	cfg := l.cfg
	r := &l.rx
	if len(r.detIdx) < rows || len(r.detIdx[0][0]) != nc {
		r.detIdx = make([][][]int, rows)
		flat := make([]int, rows*ofdm.NumData*nc)
		for t := range r.detIdx {
			r.detIdx[t] = make([][]int, ofdm.NumData)
			for s := range r.detIdx[t] {
				r.detIdx[t][s], flat = flat[:nc:nc], flat[nc:]
			}
		}
	}
	detIdx = r.detIdx[:rows]
	if soft {
		q := nc * cfg.Cons.Bits()
		if len(r.detLLR) < rows || len(r.detLLR[0][0]) != q {
			r.detLLR = make([][][]float64, rows)
			flat := make([]float64, rows*ofdm.NumData*q)
			for t := range r.detLLR {
				r.detLLR[t] = make([][]float64, ofdm.NumData)
				for s := range r.detLLR[t] {
					r.detLLR[t][s], flat = flat[:q:q], flat[q:]
				}
			}
		}
		detLLR = r.detLLR[:rows]
	}
	n := rows * ofdm.NumData * na
	if cap(r.yb) < n {
		r.yb = make([]complex128, n)
	}
	return detIdx, detLLR, r.yb[:n]
}

// sizeBatch returns cleared per-frame result and error slots for a
// batch of b frames, sliced from link scratch.
func (l *Link) sizeBatch(b int) ([]*Result, []error) {
	r := &l.rx
	if cap(r.results) < b {
		r.results = make([]*Result, b)
		r.errs = make([]error, b)
	}
	results, errs := r.results[:b], r.errs[:b]
	clear(results)
	clear(errs)
	return results, errs
}

// depuncture re-inserts erasures into one stream's coded LLRs using
// the link's reusable mother-code buffer. For rate 1/2 the mother
// length equals the coded length, so one motherLen-sized buffer serves
// every rate.
func (l *Link) depuncture(coded []float64) []float64 {
	cfg := l.cfg
	sc := &l.dec
	motherLen := 2 * (cfg.InfoBits() + fec.ConstraintLength - 1)
	if cap(sc.llrs) < motherLen {
		sc.llrs = make([]float64, motherLen)
	}
	return fec.DepunctureInto(sc.llrs[:motherLen], coded, cfg.Rate, motherLen)
}

// depunctureHard is depuncture over the hard path's ±1 values.
func (l *Link) depunctureHard(coded []int8) []int8 {
	cfg := l.cfg
	sc := &l.dec
	motherLen := 2 * (cfg.InfoBits() + fec.ConstraintLength - 1)
	if cap(sc.llrsHard) < motherLen {
		sc.llrsHard = make([]int8, motherLen)
	}
	return fec.DepunctureHardInto(sc.llrsHard[:motherLen], coded, cfg.Rate, motherLen)
}

// decodeStreamSoft is decodeStream over detector LLRs: deinterleave
// the soft values, depuncture, Viterbi-decode, CRC-check. The second
// return value is the winning Viterbi path metric per coded bit.
func (l *Link) decodeStreamSoft(f *Frame, detLLR [][][]float64, k int, scramblerSeed byte) (bool, float64, error) {
	cfg := l.cfg
	sc := &l.dec
	q := cfg.Cons.Bits()
	if cap(sc.coded) < cfg.CodedBits() {
		sc.coded = make([]float64, 0, cfg.CodedBits())
	}
	if cap(sc.blockSoft) < cfg.BitsPerSymbol() {
		sc.blockSoft = make([]float64, cfg.BitsPerSymbol())
		sc.deintSoft = make([]float64, cfg.BitsPerSymbol())
	}
	coded := sc.coded[:0]
	block := sc.blockSoft[:cfg.BitsPerSymbol()]
	for t := 0; t < cfg.NumSymbols; t++ {
		for s := 0; s < ofdm.NumData; s++ {
			copy(block[s*q:(s+1)*q], detLLR[t][s][k*q:(k+1)*q])
		}
		deint, err := l.il.DeinterleaveSoft(sc.deintSoft[:cfg.BitsPerSymbol()], block)
		if err != nil {
			return false, 0, err
		}
		coded = append(coded, deint...)
	}
	llrs := l.depuncture(coded)
	dec, metric, err := sc.vit.DecodeSoftMetric(llrs)
	if err != nil {
		return false, 0, err
	}
	metric /= float64(len(llrs))
	return payloadOK(dec, f.Payloads[k], scramblerSeed), metric, nil
}

// decodeStream demaps, deinterleaves, depunctures, Viterbi-decodes and
// CRC-checks stream k, comparing against the transmitted payload. The
// second return value is the winning Viterbi path metric per coded
// bit.
func (l *Link) decodeStream(f *Frame, detIdx [][][]int, k int, scramblerSeed byte) (bool, float64, error) {
	cfg := l.cfg
	sc := &l.dec
	if cap(sc.block) < cfg.BitsPerSymbol() {
		sc.bitbuf = make([]byte, l.nbps)
		sc.block = make([]byte, cfg.BitsPerSymbol())
		sc.deint = make([]byte, cfg.BitsPerSymbol())
	}
	if cap(sc.codedHard) < cfg.CodedBits() {
		sc.codedHard = make([]int8, 0, cfg.CodedBits())
	}
	coded := sc.codedHard[:0]
	bitbuf := sc.bitbuf[:l.nbps]
	block := sc.block[:cfg.BitsPerSymbol()]
	for t := 0; t < cfg.NumSymbols; t++ {
		for s := 0; s < ofdm.NumData; s++ {
			col, row := cfg.Cons.Coords(detIdx[t][s][k])
			cfg.Cons.SymbolBits(bitbuf, col, row)
			copy(block[s*l.nbps:(s+1)*l.nbps], bitbuf)
		}
		deint, err := l.il.Deinterleave(sc.deint[:cfg.BitsPerSymbol()], block)
		if err != nil {
			return false, 0, err
		}
		for _, b := range deint {
			if b == 1 {
				coded = append(coded, 1)
			} else {
				coded = append(coded, -1)
			}
		}
	}
	vals := l.depunctureHard(coded)
	dec, metric, err := sc.vit.DecodeHardMetric(vals)
	if err != nil {
		return false, 0, err
	}
	metric /= float64(len(vals))
	return payloadOK(dec, f.Payloads[k], scramblerSeed), metric, nil
}

// payloadOK descrambles one stream's decoded bits in place and reports
// whether they carry a valid CRC over exactly the transmitted payload.
// A CRC pass with a wrong payload would be a miss; checking against the
// transmitted bits keeps the simulator from overcounting goodput.
func payloadOK(dec, want []byte, scramblerSeed byte) bool {
	fec.Scramble(dec, scramblerSeed)
	payload, ok := fec.CheckCRC(dec)
	return ok && bytes.Equal(payload, want)
}
