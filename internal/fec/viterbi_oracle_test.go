package fec

import (
	"fmt"
	"math"
)

// scalarHardDecode is a per-butterfly scalar add-compare-select
// recursion, the test oracle for the word-parallel DecodeHardMetric.
// It decodes a terminated rate-1/2 codeword of
// correlation values (any int8, not only {−1, 0, 1}) and returns the
// information bits, the survivor's int32 path metric and the largest
// gap between two path metrics at any step from K−1 on, when every
// state is live.
//
// States 2k and 2k+1 are the only predecessors of states k and k+32;
// the odd predecessor wins only on a strict >, and states unreachable
// from state 0 start from a sentinel far below every live metric.
func scalarHardDecode(vals []int8) (bits []byte, metric, spread int32, err error) {
	if len(vals)%2 != 0 {
		return nil, 0, 0, fmt.Errorf("fec: coded length %d is odd", len(vals))
	}
	steps := len(vals) / 2
	if steps < ConstraintLength-1 {
		return nil, 0, 0, fmt.Errorf("fec: codeword of %d steps shorter than the tail", steps)
	}
	const deadMetric = math.MinInt32 / 4
	var metrics, next [numStates]int32
	survWords := make([]uint64, steps)
	for s := range metrics {
		metrics[s] = deadMetric
	}
	metrics[0] = 0
	for t := 0; t < steps; t++ {
		l0, l1 := int32(vals[2*t]), int32(vals[2*t+1])
		bm := [4]int32{-l0 - l1, -l0 + l1, l0 - l1, l0 + l1}
		var word uint64
		for k := 0; k < numStates/2; k++ {
			s0 := 2 * k
			m0, m1 := metrics[s0], metrics[s0+1]
			// Flipping a predecessor's LSB or the input flips both
			// coded bits (both generators tap the first and last
			// register cells), so one lookup serves all four branches.
			c0 := bm[outputs[s0][0]&3]
			a0, a1 := m0+c0, m1-c0
			next[k] = a0
			if a1 > a0 {
				next[k] = a1
				word |= 1 << uint(k)
			}
			b0, b1 := m0-c0, m1+c0
			next[k+numStates/2] = b0
			if b1 > b0 {
				next[k+numStates/2] = b1
				word |= 1 << uint(k+numStates/2)
			}
		}
		survWords[t] = word
		metrics = next
		if t >= ConstraintLength-2 {
			lo, hi := metrics[0], metrics[0]
			for _, m := range metrics {
				lo, hi = min(lo, m), max(hi, m)
			}
			spread = max(spread, hi-lo)
		}
	}
	if metrics[0] < deadMetric/2 {
		return nil, 0, 0, fmt.Errorf("fec: trellis did not terminate in the zero state")
	}
	bits = make([]byte, steps)
	state := 0
	for t := steps - 1; t >= 0; t-- {
		sel := int(survWords[t]>>uint(state)) & 1
		bits[t] = byte(state >> (ConstraintLength - 2))
		state = (state&(numStates/2-1))<<1 | sel
	}
	return bits[:steps-(ConstraintLength-1)], metrics[0], spread, nil
}
