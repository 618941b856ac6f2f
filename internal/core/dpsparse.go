package core

import "fmt"

// SparseMode selects the DP row representation.
type SparseMode uint8

const (
	// SparseAuto (the zero value) keeps the dense kernel whenever the
	// dense grid fits the state budget and switches to sparse rows only
	// for instances the dense admission check would reject — existing
	// dense-regime callers keep today's kernels, bit for bit.
	SparseAuto SparseMode = iota
	// SparseOff forces the dense kernel; over-budget grids error.
	SparseOff
	// SparseOn forces sparse rows (with the adaptive dense switchover).
	SparseOn
)

// DefaultMaxSparseCells is the sparse solver's work limit — row
// breakpoints summed across all rows — when MaxStates is 0. A sparse
// breakpoint retains ~17 bytes (workload, take bit, transient value)
// against the dense cell's single bit, so the default budget is smaller
// than DefaultMaxDPStates while still covering grids the dense kernel
// could never admit.
const DefaultMaxSparseCells = int64(1) << 24

// sparseRows is the reconstruction record of a sparse solve: one arena of
// ascending workload breakpoints holding every row back to back, plus a
// per-row packed take bitset indexed by cell position (not workload — the
// whole point is that workloads are too wide to index by). It replaces the
// dense take words and doubles as the row state of a sparse DPState.
type sparseRows struct {
	ws     []int64  // kept workloads, row-major
	off    []int64  // len rows+1; row i occupies ws[off[i]:off[i+1]]
	bits   []uint64 // take bits, word-aligned per row
	bitOff []int64  // len rows+1; row i's words at bits[bitOff[i]:bitOff[i+1]]
}

// begin truncates the record to its first keep rows (0 starts fresh),
// retaining the arenas for reuse.
func (r *sparseRows) begin(keep int) {
	if keep <= 0 || len(r.off) == 0 {
		if cap(r.off) == 0 {
			r.off = make([]int64, 1, 16)
			r.bitOff = make([]int64, 1, 16)
		} else {
			r.off = r.off[:1]
			r.bitOff = r.bitOff[:1]
			r.off[0], r.bitOff[0] = 0, 0
		}
		r.ws = r.ws[:0]
		r.bits = r.bits[:0]
		return
	}
	r.off = r.off[:keep+1]
	r.bitOff = r.bitOff[:keep+1]
	r.ws = r.ws[:r.off[keep]]
	r.bits = r.bits[:r.bitOff[keep]]
}

// grow extends the arenas for one row of at most maxLen cells, returning
// the row's workload slice and zeroed take words; commit fixes the actual
// length. Growth doubles, so an append-per-row run copies amortized O(1)
// words per cell.
func (r *sparseRows) grow(maxLen int) ([]int64, []uint64) {
	base := r.off[len(r.off)-1]
	need := base + int64(maxLen)
	if int64(cap(r.ws)) < need {
		nw := make([]int64, need, max(need, 2*int64(cap(r.ws))))
		copy(nw, r.ws)
		r.ws = nw
	} else {
		r.ws = r.ws[:need]
	}
	wbase := r.bitOff[len(r.bitOff)-1]
	wneed := wbase + int64(maxLen+63)/64
	if int64(cap(r.bits)) < wneed {
		nb := make([]uint64, wneed, max(wneed, 2*int64(cap(r.bits))))
		copy(nb, r.bits)
		r.bits = nb
	} else {
		r.bits = r.bits[:wneed]
	}
	bits := r.bits[wbase:wneed]
	clear(bits)
	return r.ws[base:need], bits
}

// commit appends the row grown last at its actual cell count.
func (r *sparseRows) commit(n int) {
	base := r.off[len(r.off)-1]
	r.off = append(r.off, base+int64(n))
	r.ws = r.ws[:base+int64(n)]
	wbase := r.bitOff[len(r.bitOff)-1]
	r.bitOff = append(r.bitOff, wbase+int64(n+63)/64)
	r.bits = r.bits[:wbase+int64(n+63)/64]
}

// row returns row i's kept workloads, ascending.
func (r *sparseRows) row(i int) []int64 { return r.ws[r.off[i]:r.off[i+1]] }

// take reports row i's take bit at cell index k.
func (r *sparseRows) take(i, k int) bool {
	return r.bits[r.bitOff[i]+int64(k>>6)]&(1<<uint(k&63)) != 0
}

// sparseStep folds one item into the sparse row (prevW, prevF), appending
// the produced row to rows with buf as the value buffer. It returns the
// new row views, the (possibly regrown) buffer, and the cell count — -1
// when the row overflows the remaining breakpoint budget.
func sparseStep(rows *sparseRows, prevW []int64, prevF []float64, buf []float64, it item, cap64 int64, prune bool, budget int64) ([]int64, []float64, []float64, int) {
	if it.c > cap64 {
		// Never acceptable: every path pays the penalty. The add runs cell
		// by cell so the float summation order matches dpRejectRange — an
		// accumulated offset would reassociate the sums.
		k := len(prevW)
		outW, _ := rows.grow(k)
		buf = growF64(buf, k)
		for j, w := range prevW {
			outW[j] = w
			buf[j] = prevF[j] + it.v
		}
		rows.commit(k)
		return outW, buf[:k], buf, k
	}
	maxOut := 2 * len(prevW)
	if m := budget + 1; int64(maxOut) > m {
		maxOut = int(m)
	}
	outW, bits := rows.grow(maxOut)
	buf = growF64(buf, maxOut)
	k := sparseMergeRow(prevW, prevF, it.c, it.v, cap64, prune, outW, buf[:maxOut], bits)
	if k < 0 {
		return nil, nil, buf, -1
	}
	rows.commit(k)
	return outW[:k], buf[:k], buf, k
}

func sparseBudgetErr(limit int64, row, n int) error {
	return fmt.Errorf("core: sparse DP passed %d row breakpoints by row %d/%d (%w); raise MaxStates or use ApproxDP", limit, row, n, ErrStateBudget)
}
