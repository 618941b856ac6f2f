package core

import (
	"fmt"
	"math"
	"sort"
)

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
// dense takeTable and doubles as the row state of a sparse DPState.
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

// memoryBytes is the record's retained heap.
func (r *sparseRows) memoryBytes() int64 {
	return int64(len(r.ws))*8 + int64(len(r.bits))*8 + int64(len(r.off))*8 + int64(len(r.bitOff))*8
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

// sparseRow0W and sparseRow0F are row 0 of every cold sparse solve: the
// empty prefix reaches only workload 0 at zero penalty. Read-only — the
// merge kernel writes its output rows into the solve's own buffers, and
// snapshots copy.
var (
	sparseRow0W = []int64{0}
	sparseRow0F = []float64{0}
)

func sparseBudgetErr(limit int64, row, n int) error {
	return fmt.Errorf("core: sparse DP passed %d row breakpoints by row %d/%d (%w); raise MaxStates or use ApproxDP", limit, row, n, ErrStateBudget)
}

// solveSparse is the sparse-row counterpart of the dense rejectionDP path
// of DP.solve: rows carry only finite cells (only the dominance frontier
// when the energy curve is monotone), MaxStates budgets actual breakpoints
// instead of grid area, and reconstruction walks per-row breakpoint lists
// instead of the packed dense take table. Results are bit-identical to
// the dense kernel on every instance both can solve — the differential
// corpus and FuzzSparseDense pin this.
func (d DP) solveSparse(ctx *evalCtx, cap64 int64, rec *DPState) (Solution, DPStats, error) {
	var stats DPStats
	if cap64 < 0 {
		return Solution{}, stats, fmt.Errorf("core: negative DP capacity %d", cap64)
	}
	its := ctx.items
	n := len(its)
	prune := ctx.fastEnergy

	sc := getDPScratch()
	defer putDPScratch(sc)
	rows := &sc.spRec
	var snap func(int, []int64, []float64)
	if rec != nil {
		rec.beginSparse(cap64, d.checkpointStride(), n, prune)
		rows = &rec.sp
		snap = rec.noteSparseRow
	}
	prevW, prevF, done, err := d.sparseForward(sc, rows, its, cap64, prune, snap, &stats)
	if err != nil {
		return Solution{}, stats, err
	}
	if done < n {
		return d.finishSparseDense(ctx, cap64, done, prevW, prevF, rows, sc, stats)
	}

	bestW, _ := minCostWorkloadSparse(prevW, prevF, ctx.energy, 1, ctx.fastEnergy)
	if bestW < 0 {
		return Solution{}, stats, fmt.Errorf("core: DP found no feasible workload")
	}

	// Reconstruct along the breakpoint rows: the path cell is located by
	// binary search, its take bit by cell index.
	ids := sc.ids[:0]
	w := bestW
	for i := n - 1; i >= 0; i-- {
		rw := rows.row(i)
		j := sort.Search(len(rw), func(x int) bool { return rw[x] >= w })
		if j == len(rw) || rw[j] != w {
			return Solution{}, stats, fmt.Errorf("core: DP reconstruction lost workload %d at row %d", w, i)
		}
		if rows.take(i, j) {
			ids = append(ids, its[i].id)
			w -= its[i].c
		}
	}
	sc.ids = ids
	if w != 0 {
		return Solution{}, stats, fmt.Errorf("core: DP reconstruction left workload %d", w)
	}
	if rec != nil {
		rec.finishSparse(its)
	}
	sol, err := ctx.evaluate(ids)
	return sol, stats, err
}

// sparseForward is the row loop of a cold sparse solve: it folds its into
// sparse rows from row 0, appending each row to rows (begun afresh) with
// sc.spF/sc.spF2 as the double-buffered value arrays, and returns the last
// row produced and the number of items folded. MaxStates budgets the
// breakpoints summed over all rows; passing it errors. snap, when
// non-nil, observes every finished row, and such recorded runs fold every
// item. Unrecorded runs stop early at the adaptive dense switchover: once
// row occupancy crosses 1/8 of the grid the dense kernel's branch-free
// cells are cheaper than merge breakpoints, so when the remaining dense
// table fits the state budget the loop returns with done < len(its) and
// the caller finishes on dense rows.
func (d DP) sparseForward(sc *dpScratch, rows *sparseRows, its []item, cap64 int64, prune bool, snap func(int, []int64, []float64), stats *DPStats) (prevW []int64, prevF []float64, done int, err error) {
	n := len(its)
	limit := d.MaxStates
	if limit == 0 {
		limit = DefaultMaxSparseCells
	}
	denseLimit := d.MaxStates
	if denseLimit == 0 {
		denseLimit = DefaultMaxDPStates
	}
	width := cap64 + 1

	rows.begin(0)
	prevW, prevF = sparseRow0W, sparseRow0F
	var spent int64
	for i := 0; i < n; i++ {
		stats.Rows++
		var wrote []float64
		var k int
		prevW, prevF, wrote, k = sparseStep(rows, prevW, prevF, sc.spF, its[i], cap64, prune, limit-spent)
		sc.spF, sc.spF2 = sc.spF2, wrote
		if k >= 0 {
			spent += int64(k)
			stats.SparseCells += int64(k)
		}
		if k < 0 || spent > limit {
			return nil, nil, i, sparseBudgetErr(limit, i+1, n)
		}
		if snap != nil {
			snap(i+1, prevW, prevF)
		} else if i+1 < n && int64(len(prevW))*8 > width && int64(n-i-1)*width <= denseLimit {
			return prevW, prevF, i + 1, nil
		}
	}
	return prevW, prevF, n, nil
}

// finishSparseDense continues a sparse solve on the dense kernels from row
// start: the sparse row is scattered into an Inf-filled dense row (pruned
// holes read +Inf — a dominated cell's descendants are themselves
// dominated, so the final scan's frontier filter drops every cell the
// holes could distort before it is ever costed) and the remaining rows run
// through dpRowRange/dpRejectRange exactly as rejectionDP would, AVX2 and
// row-parallel chunking included. Reconstruction stitches the dense take
// window onto the sparse prefix record.
func (d DP) finishSparseDense(ctx *evalCtx, cap64 int64, start int, prevW []int64, prevF []float64, spRows *sparseRows, sc *dpScratch, stats DPStats) (Solution, DPStats, error) {
	its := ctx.items
	n := len(its)
	width := cap64 + 1
	workers := d.Workers
	if workers < 1 {
		workers = 1
	}

	prev := growF64(sc.f, int(width))
	sc.f = prev
	cur := growF64(sc.f2, int(width))
	sc.f2 = cur
	for w := range prev {
		prev[w] = math.Inf(1)
	}
	for w := range cur {
		cur[w] = math.Inf(1)
	}
	for j, w := range prevW {
		prev[w] = prevF[j]
	}
	reach := prevW[len(prevW)-1]

	perRow := (width + 63) / 64
	words := growU64(sc.words, int(int64(n-start)*perRow))
	sc.words = words
	clear(words)

	for i := start; i < n; i++ {
		stats.Rows++
		stats.DenseRows++
		c, v := its[i].c, its[i].v
		if c > cap64 {
			hi := reach + 1
			dpRejectRange(prev, cur, v, 0, hi)
			stats.Cells += hi
			prev, cur = cur, prev
			continue
		}
		reach = min(reach+c, cap64)
		hi := reach + 1
		dpRow(prev, cur, words[int64(i-start)*perRow:int64(i-start+1)*perRow], c, v, hi, workers)
		stats.Cells += hi
		prev, cur = cur, prev
	}
	f := prev

	var bestW int64
	if workers > 1 && ctx.fastEnergy {
		bestW, _ = minCostWorkloadParallel(f, ctx.energy, 1, workers)
	} else {
		bestW, _ = minCostWorkload(f, ctx.energy, 1, ctx.fastEnergy)
	}
	if bestW < 0 {
		return Solution{}, stats, fmt.Errorf("core: DP found no feasible workload")
	}

	ids := sc.ids[:0]
	w := bestW
	for i := n - 1; i >= start; i-- {
		if words[int64(i-start)*perRow+w/64]&(1<<uint(w%64)) != 0 {
			ids = append(ids, its[i].id)
			w -= its[i].c
		}
	}
	for i := start - 1; i >= 0; i-- {
		rw := spRows.row(i)
		j := sort.Search(len(rw), func(x int) bool { return rw[x] >= w })
		if j == len(rw) || rw[j] != w {
			return Solution{}, stats, fmt.Errorf("core: DP reconstruction lost workload %d at row %d", w, i)
		}
		if spRows.take(i, j) {
			ids = append(ids, its[i].id)
			w -= its[i].c
		}
	}
	sc.ids = ids
	if w != 0 {
		return Solution{}, stats, fmt.Errorf("core: DP reconstruction left workload %d", w)
	}
	sol, err := ctx.evaluate(ids)
	return sol, stats, err
}

// solveFromSparse is the SolveFrom warm path over a sparse DPState: the
// divergence scan and checkpoint selection mirror the dense path, the
// re-run rows use the sparse merge kernel with the recording's own pruning
// decision, and the budget counts the retained prefix breakpoints plus the
// re-run rows — what a cold sparse solve of the mutant would have spent.
func (d DP) solveFromSparse(ctx *evalCtx, st *DPState, cap64 int64, evolve bool) (sol Solution, stats DPStats, ok bool, err error) {
	// Pruned rows carry only the dominance frontier, which is exact only
	// under a monotone final scan; a non-monotone instance must cold-solve.
	if st.pruned && !ctx.fastEnergy {
		return Solution{}, stats, false, nil
	}
	items := ctx.items
	n := len(items)
	div := 0
	for lim := min(n, st.n); div < lim; div++ {
		a, b := items[div], st.items[div]
		if a.c != b.c || math.Float64bits(a.v) != math.Float64bits(b.v) {
			break
		}
	}
	si := -1
	for i := len(st.spSnaps) - 1; i >= 0; i-- {
		if st.spSnaps[i].row <= div {
			si = i
			break
		}
	}
	if si < 0 {
		return Solution{}, stats, false, nil
	}
	snap := st.spSnaps[si]
	start := snap.row
	prune := st.pruned
	limit := d.MaxStates
	if limit == 0 {
		limit = DefaultMaxSparseCells
	}
	spent := st.sp.off[start] // prefix breakpoints the warm state retains

	fail := func(e error) (Solution, DPStats, bool, error) {
		if evolve {
			st.valid = false
		}
		return Solution{}, stats, true, e
	}

	sc := getDPScratch()
	defer putDPScratch(sc)
	rows := &sc.spRec
	if evolve {
		st.stride = d.checkpointStride()
		st.spSnaps = st.spSnaps[:si+1]
		rows = &st.sp
		rows.begin(start)
	} else {
		rows.begin(0)
	}

	// The snapshot is read-only on both paths (evolve truncates the row
	// arena, never the snapshot buffers), so it serves as row "start"
	// directly.
	prevW, prevF := snap.ws, snap.fs
	bufA, bufB := sc.spF, sc.spF2
	defer func() { sc.spF, sc.spF2 = bufA, bufB }()

	for i := start; i < n; i++ {
		stats.Rows++
		var wrote []float64
		var k int
		prevW, prevF, wrote, k = sparseStep(rows, prevW, prevF, bufA, items[i], cap64, prune, limit-spent)
		bufA, bufB = bufB, wrote
		if k >= 0 {
			spent += int64(k)
			stats.SparseCells += int64(k)
		}
		if k < 0 || spent > limit {
			return fail(sparseBudgetErr(limit, i+1, n))
		}
		if evolve {
			st.noteEvolvedSparseRow(i+1, n, prevW, prevF)
		}
	}
	if evolve {
		st.items = append(st.items[:0], items...)
		st.n = n
	}

	bestW, _ := minCostWorkloadSparse(prevW, prevF, ctx.energy, 1, ctx.fastEnergy)
	if bestW < 0 {
		return fail(fmt.Errorf("core: DP found no feasible workload"))
	}

	// Reconstruct: re-run rows from the fresh window (in place on the
	// evolve path), untouched prefix rows from the recorded arena.
	ids := sc.ids[:0]
	w := bestW
	for i := n - 1; i >= 0; i-- {
		src, j := &st.sp, i
		if !evolve && i >= start {
			src, j = rows, i-start
		}
		rw := src.row(j)
		x := sort.Search(len(rw), func(y int) bool { return rw[y] >= w })
		if x == len(rw) || rw[x] != w {
			return fail(fmt.Errorf("core: DP reconstruction lost workload %d at row %d", w, i))
		}
		if src.take(j, x) {
			ids = append(ids, items[i].id)
			w -= items[i].c
		}
	}
	sc.ids = ids
	if w != 0 {
		return fail(fmt.Errorf("core: DP reconstruction left workload %d", w))
	}
	sol, err = ctx.evaluate(ids)
	return sol, stats, true, err
}
