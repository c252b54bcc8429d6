package fec

import (
	"fmt"
	"math/bits"
)

// DecodeHardMetric is DecodeSoftMetric specialized to hard-decision
// inputs: vals holds one correlation value per mother-code bit, +1 for
// a received 1, −1 for a received 0 and 0 for a punctured/erased
// position; any other value is rejected. The decoded bits and the
// returned metric are bit-identical to feeding the same values through
// the float path: every float the soft recursion would form is an
// exactly-representable integer, and the word-parallel recursion below
// keeps its compare and tie rules. The returned bits alias the
// workspace and are valid only until the next call on w.
//
//geolint:noalloc
func (w *ViterbiWorkspace) DecodeHardMetric(vals []int8) ([]byte, float64, error) {
	if len(vals)%2 != 0 {
		//geolint:alloc-ok error path
		return nil, 0, fmt.Errorf("fec: coded length %d is odd", len(vals))
	}
	steps := len(vals) / 2
	if steps < ConstraintLength-1 {
		//geolint:alloc-ok error path
		return nil, 0, fmt.Errorf("fec: codeword of %d steps shorter than the tail", steps)
	}
	bits, metric, err := w.runHard(vals)
	if err != nil {
		return nil, 0, err
	}
	return bits[:steps-(ConstraintLength-1)], float64(metric), nil
}

// Word-parallel (SWAR) layout of the hard-decision recursion; DESIGN.md
// §11 gives the argument in full. The 64 path metrics live in 8 uint64
// words of 8-bit lanes, and the state a lane holds rotates with time:
// after t steps state s sits at position p = rotl6(s, t mod 6), in word
// p&7, lane p>>3. Under that labelling the butterfly is in place: the
// two predecessors of a pair of next states sit at the two positions
// that differ in bit d = t mod 6, and those same positions receive the
// next states, input 0 where bit d is clear and input 1 where it is
// set. Each position's new metric is max(own + c, partner − c) for its
// butterfly's branch metric c. For d < 3 the partner is the same lane
// of another word, for d ≥ 3 another lane of the same word.
//
// Lanes are biased to stay in [0, 127]: live metrics never spread by
// more than swarSpread, each step adds c+2 or 2−c ∈ [0, 4] instead of
// ±c, and every K−1 steps all lanes drop so that state 0, always at
// position 0, reads swarSpread again.
const (
	swarWords  = numStates / 8
	swarPeriod = ConstraintLength - 1
	swarSpread = 4 * swarPeriod // |branch| ≤ 2 and every state is reachable from every state in K−1 steps
	laneHigh   = 0x8080808080808080
	laneOnes   = 0x0101010101010101
)

// swarBranch holds one step's biased branch terms, word by word: plus
// is c+2 and minus 2−c for the butterfly each lane belongs to, and cmp
// is plus + 0x80 − tie, where tie is 1 in the lanes whose own metric is
// the odd predecessor's.
type swarBranch struct{ plus, cmp, minus [swarWords]uint64 }

// swarTab[d][3(l0+1)+(l1+1)] is the branch table of a step with
// t mod 6 = d and correlation inputs (l0, l1).
var swarTab [swarPeriod][9]swarBranch

func init() {
	for d := 0; d < swarPeriod; d++ {
		for p := 0; p < numStates; p++ {
			word, shift := p&7, uint(8*(p>>3))
			// The even predecessor's state: undo the rotation of the
			// position with bit d cleared.
			pe := p &^ (1 << d)
			o := outputs[(pe>>d|pe<<(swarPeriod-d))&(numStates-1)][0]
			tie := p >> d & 1
			for l0 := -1; l0 <= 1; l0++ {
				for l1 := -1; l1 <= 1; l1++ {
					c := l0*(2*int(o>>1)-1) + l1*(2*int(o&1)-1)
					br := &swarTab[d][3*(l0+1)+l1+1]
					br.plus[word] |= uint64(2+c) << shift
					br.cmp[word] |= uint64(2+c+0x80-tie) << shift
					br.minus[word] |= uint64(2-c) << shift
				}
			}
		}
	}
}

// swarACS is one word of lane-parallel add-compare-select: x holds the
// own lanes' metrics and y the partners'. It returns the new metrics
// and the decisions, 0x80 in each lane where the partner won. With
// a = x+plus and b = y+minus both ≤ 127, x+cmp−b is a+128−tie−b in
// every lane without a carry or borrow crossing lanes, so its high bit
// is clear exactly when b > a (tie 0: the partner is the odd
// predecessor and must win strictly) or b ≥ a (tie 1: the partner is
// the even predecessor and wins ties).
func swarACS(x, y, plus, cmp, minus uint64) (uint64, uint64) {
	a, b := x+plus, y+minus
	won := laneHigh &^ (x + cmp - b)
	return a ^ (a^b)&((won>>7)*0xff), won
}

// swapLanes8 and swapLanes16 exchange each lane with its partner one
// and two lanes away; a rotation by 32 does the same four lanes away.
func swapLanes8(v uint64) uint64 {
	return v>>8&0x00ff00ff00ff00ff | (v&0x00ff00ff00ff00ff)<<8
}

func swapLanes16(v uint64) uint64 {
	return v>>16&0x0000ffff0000ffff | (v&0x0000ffff0000ffff)<<16
}

// runHard is the word-parallel add-compare-select recursion over
// correlation values in {−1, 0, 1}, tracing back from the zero state.
// It returns the full decoded sequence (tail included) and the
// survivor's path metric.
//
// Each step stores one decision bit per position (set ⇔ the partner
// won) in survWords. Dead states need no sentinel: position 0 starts
// swarSpread+1 above the other lanes and no path gains more than 4 on
// another per step, so in the first K−1 steps, until every state is
// reachable, a path from a dead start loses every compare against a
// live one and the traceback never visits what it wins. The metric
// comes from the bookkeeping: state 0's lane is its metric plus the
// start bias, plus 2 per step, less what the renormalizations took.
//
//geolint:noalloc
func (w *ViterbiWorkspace) runHard(vals []int8) ([]byte, int32, error) {
	steps := len(vals) / 2
	if cap(w.survWords) < steps {
		w.survWords = make([]uint64, steps) //geolint:alloc-ok first use or longer codeword only
	}
	survWords := w.survWords[:steps]
	// Eight named words rather than an array keep the metrics in
	// registers across the step.
	var m0, m1, m2, m3, m4, m5, m6, m7 uint64 = swarSpread + 1, 0, 0, 0, 0, 0, 0, 0
	var dropped int32
	d := 0
	for t := range survWords {
		i0, i1 := uint(vals[2*t]+1), uint(vals[2*t+1]+1)
		if i0 > 2 || i1 > 2 {
			//geolint:alloc-ok error path
			return nil, 0, fmt.Errorf("fec: hard value outside {-1, 0, 1} at step %d", t)
		}
		br := &swarTab[d][3*i0+i1]
		var y0, y1, y2, y3, y4, y5, y6, y7 uint64
		switch d {
		case 0:
			y0, y1, y2, y3, y4, y5, y6, y7 = m1, m0, m3, m2, m5, m4, m7, m6
		case 1:
			y0, y1, y2, y3, y4, y5, y6, y7 = m2, m3, m0, m1, m6, m7, m4, m5
		case 2:
			y0, y1, y2, y3, y4, y5, y6, y7 = m4, m5, m6, m7, m0, m1, m2, m3
		case 3:
			y0, y1, y2, y3 = swapLanes8(m0), swapLanes8(m1), swapLanes8(m2), swapLanes8(m3)
			y4, y5, y6, y7 = swapLanes8(m4), swapLanes8(m5), swapLanes8(m6), swapLanes8(m7)
		case 4:
			y0, y1, y2, y3 = swapLanes16(m0), swapLanes16(m1), swapLanes16(m2), swapLanes16(m3)
			y4, y5, y6, y7 = swapLanes16(m4), swapLanes16(m5), swapLanes16(m6), swapLanes16(m7)
		default:
			y0, y1, y2, y3 = bits.RotateLeft64(m0, 32), bits.RotateLeft64(m1, 32), bits.RotateLeft64(m2, 32), bits.RotateLeft64(m3, 32)
			y4, y5, y6, y7 = bits.RotateLeft64(m4, 32), bits.RotateLeft64(m5, 32), bits.RotateLeft64(m6, 32), bits.RotateLeft64(m7, 32)
		}
		var g0, g1, g2, g3, g4, g5, g6, g7 uint64
		m0, g0 = swarACS(m0, y0, br.plus[0], br.cmp[0], br.minus[0])
		m1, g1 = swarACS(m1, y1, br.plus[1], br.cmp[1], br.minus[1])
		m2, g2 = swarACS(m2, y2, br.plus[2], br.cmp[2], br.minus[2])
		m3, g3 = swarACS(m3, y3, br.plus[3], br.cmp[3], br.minus[3])
		m4, g4 = swarACS(m4, y4, br.plus[4], br.cmp[4], br.minus[4])
		m5, g5 = swarACS(m5, y5, br.plus[5], br.cmp[5], br.minus[5])
		m6, g6 = swarACS(m6, y6, br.plus[6], br.cmp[6], br.minus[6])
		m7, g7 = swarACS(m7, y7, br.plus[7], br.cmp[7], br.minus[7])
		// Word w's lane l decision lands on bit 8l+w = its position.
		survWords[t] = g0>>7 | g1>>6 | g2>>5 | g3>>4 | g4>>3 | g5>>2 | g6>>1 | g7
		if d++; d == swarPeriod {
			d = 0
			drop := m0&0xff - swarSpread
			dropped += int32(drop)
			drop *= laneOnes
			m0, m1, m2, m3 = m0-drop, m1-drop, m2-drop, m3-drop
			m4, m5, m6, m7 = m4-drop, m5-drop, m6-drop, m7-drop
		}
	}
	if cap(w.bits) < steps {
		w.bits = make([]byte, steps) //geolint:alloc-ok first use or longer codeword only
	}
	out := w.bits[:steps]
	// Trace back from state 0 at position 0. The input decided at step
	// t is bit d of the successor's position; the predecessor sits at
	// the same position, or at the partner where that won.
	p := 0
	d = (steps - 1) % swarPeriod
	for t := steps - 1; t >= 0; t-- {
		out[t] = byte(p >> d & 1)
		p ^= int(survWords[t]>>uint(p)&1) << d
		if d == 0 {
			d = swarPeriod
		}
		d--
	}
	return out, int32(m0&0xff) - (swarSpread + 1) - 2*int32(steps) + dropped, nil
}
