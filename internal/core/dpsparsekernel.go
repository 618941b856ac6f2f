package core

import "math"

// sparseMergeRow folds item (c, v) into the sparse row (prevW, prevF) —
// ascending workload breakpoints paired with their cell values — writing
// the merged row into outW/outF and its packed take bits into bits
// (cell-indexed, pre-zeroed). It returns the number of cells produced, or
// -1 when the row would not fit outW (the caller's remaining breakpoint
// budget).
//
// A sparse row is everything the dense row knows minus the +Inf gaps the
// final scan would skip anyway, so the transition is a linear merge of two
// sorted streams derived from the previous row:
//
//	skip: (w,     f[w] + v)   reject item i on every path
//	take: (w + c, f[w])       accept item i where w + c still fits
//
// Where the streams collide the dense cell rule applies: the accept arm
// wins only strictly (ties reject, exactly dpCell's bit-trick tie-break),
// and the float arithmetic uses the same operands as the dense kernel, so
// every produced cell is bit-identical to its dense counterpart.
//
// Cells are additionally filtered to the strictly-decreasing penalty
// frontier — the same dominance rule minCostWorkload applies to the final
// row. The energy curve is non-decreasing on every processor flavour (see
// speed.Curve), so a dominated cell can never be selected by the final
// scan, and the cells on the selected workload's reconstruction path are
// always strictly non-dominated in their rows (a dominated path cell would
// place an equal-or-cheaper final cell at a strictly smaller workload,
// which the scan's first-wins tie-break would have preferred over the one
// actually chosen), so pruning changes no observable output.
func sparseMergeRow(prevW []int64, prevF []float64, c int64, v float64, cap64 int64, outW []int64, outF []float64, bits []uint64) int {
	np := len(prevW)
	lim := cap64 - c // take arm admits previous workloads ≤ lim
	frontier := math.Inf(1)
	si, ti, k := 0, 0, 0
	for {
		haveS := si < np
		haveT := ti < np && prevW[ti] <= lim
		var w int64
		var f float64
		var take uint64
		switch {
		case haveS && haveT && prevW[si] == prevW[ti]+c:
			rb := prevF[si] + v
			ab := prevF[ti]
			if ab < rb {
				f, take = ab, 1
			} else {
				f = rb
			}
			w = prevW[si]
			si++
			ti++
		case haveS && (!haveT || prevW[si] < prevW[ti]+c):
			w, f = prevW[si], prevF[si]+v
			si++
		case haveT:
			w, f, take = prevW[ti]+c, prevF[ti], 1
			ti++
		default:
			return k
		}
		if f >= frontier {
			continue // dominated by a cheaper cell at smaller workload
		}
		frontier = f
		if k == len(outW) {
			return -1
		}
		outW[k] = w
		outF[k] = f
		bits[k>>6] |= take << uint(k&63)
		k++
	}
}

// minCostWorkloadSparse is minCostWorkload over a sparse final row: the
// same frontier filter, energy costing, first-wins incumbent update and
// cut-off, walked over the row's breakpoints instead of the full
// grid. Sparse cells are finite by construction, so the dense scan's +Inf
// skip has no counterpart; every other operation runs on the identical
// (w, f) sequence the dense scan would cost, keeping the selected
// workload bit-identical.
func minCostWorkloadSparse(ws []int64, fs []float64, energy func(float64) float64, scale float64) (int64, float64) {
	bestW, bestCost := int64(-1), math.Inf(1)
	frontier := math.Inf(1)
	for k, w := range ws {
		fw := fs[k]
		if fw >= frontier {
			continue
		}
		frontier = fw
		e := energy(float64(w) * scale)
		if c := e + fw; c < bestCost {
			bestCost, bestW = c, w
		}
		if e >= bestCost && bestW >= 0 {
			break
		}
	}
	return bestW, bestCost
}
