package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"dvsreject/internal/conc"
)

// DP is the exact pseudo-polynomial solver: dynamic programming over the
// integer accepted workload. State f[w] is the minimum rejection penalty
// over decisions for the first i tasks whose accepted cycles total exactly
// w; the answer is min over w ≤ smax·D of E(w) + f[w]. Exact for every
// homogeneous instance flavour (the energy curve may be non-convex), in
// O(n·smax·D) time and O(n·smax·D) bits for reconstruction.
//
// The table is evaluated by the double-buffered row kernel (dpkernel.go)
// over only the reachable prefix of each row — at row i no workload above
// min(smax·D, Σ_{j≤i} c_j) is attainable, so the cells beyond it stay +Inf
// untouched. Both are exact reformulations of the seed's in-place
// descending update; outputs are byte-identical.
type DP struct {
	// MaxStates bounds the table work: dense solves count n·(capacity+1)
	// grid cells (0 means DefaultMaxDPStates), sparse solves count actual
	// row breakpoints (0 means DefaultMaxSparseCells).
	MaxStates int64
	// Workers > 1 chunks each table row (and the monotone final scan)
	// across that many goroutines on the shared conc pool, with
	// word-aligned chunks and a deterministic reduction, so results stay
	// byte-identical to the serial evaluation. 0 or 1 keeps the serial
	// kernel — the default, since the rows are memory-bound and only
	// very wide tables amortize the per-row fan-out.
	Workers int
	// CheckpointStride is the row-snapshot interval of SolveCheckpoint:
	// a warm re-solve restarts at the last checkpoint at or before the
	// first divergent task, so smaller strides cut the warm-up replay at
	// the price of stride-proportional snapshot memory in the DPState.
	// 0 means DefaultCheckpointStride. Solve results never depend on it.
	CheckpointStride int
	// Sparse selects the row representation (dpsparse.go): SparseAuto
	// (the default) keeps the dense kernel for every grid the state
	// budget admits and switches to sparse dominance-pruned rows beyond
	// it; SparseOn forces sparse rows; SparseOff forces dense. All modes
	// return bit-identical solutions on instances they can solve.
	Sparse SparseMode
}

func (d DP) checkpointStride() int {
	if d.CheckpointStride > 0 {
		return d.CheckpointStride
	}
	return DefaultCheckpointStride
}

// Name implements Solver.
func (d DP) Name() string {
	if d.Sparse == SparseOn {
		return "DP-SPARSE"
	}
	return "DP"
}

// DefaultMaxDPStates is DP's work limit (n·capacity table cells).
const DefaultMaxDPStates = int64(1) << 28

// dpCapacity is the exact DP's largest grid workload: the capacity
// smax·D in true cycles, floored after a 1e-12 relative slack.
func dpCapacity(capacity float64) int64 { return int64(math.Floor(capacity * (1 + 1e-12))) }

// DPStats reports the table work of one rejection-DP run. Serial and
// row-parallel evaluations of the same instance report identical counts
// (the differential tests pin this alongside byte-identical outputs).
type DPStats struct {
	Rows  int64 // item rows processed
	Cells int64 // reachable dense table cells evaluated across all rows
	// SparseCells counts the breakpoints kept across sparse rows; zero on
	// a pure dense solve. DenseRows counts the rows the dense kernel
	// evaluated — equal to Rows on a dense solve, zero on a pure sparse
	// one, and in between when the adaptive switchover fired mid-run.
	SparseCells int64
	DenseRows   int64
}

// Solve implements Solver. It returns ErrHeterogeneous for instances with
// per-task power coefficients: their energy is not a function of a single
// integer workload.
func (d DP) Solve(in Instance) (Solution, error) {
	sol, _, err := d.SolveStats(in)
	return sol, err
}

// SolveStats is Solve plus the table work counters.
func (d DP) SolveStats(in Instance) (Solution, DPStats, error) {
	return d.solve(in, nil)
}

// solve is the shared implementation of SolveStats and SolveCheckpoint:
// rec, when non-nil, records the checkpointed row state of the run (see
// dpstate.go). Recording never changes a bit of the solution — it only
// snapshots rows and keeps the take bits in the state.
func (d DP) solve(in Instance, rec *DPState) (Solution, DPStats, error) {
	if rec != nil {
		rec.valid = false
	}
	ctx, err := newPooledEvalCtx(in)
	if err != nil {
		return Solution{}, DPStats{}, err
	}
	defer ctx.release()
	if ctx.hetero {
		return Solution{}, DPStats{}, ErrHeterogeneous
	}
	cap64 := dpCapacity(ctx.capacity)
	r, err := d.newRun(ctx.items, cap64, ctx.fastEnergy)
	if err != nil {
		return Solution{}, DPStats{}, err
	}
	if rec != nil {
		rec.begin(cap64, d.checkpointStride(), len(ctx.items), r.sparse, r.prune)
		r.rec = rec
	}
	sc := getDPScratch()
	defer putDPScratch(sc)
	ids, err := r.solve(sc, dpRow0, ctx.energy)
	if err != nil {
		return Solution{}, r.stats, err
	}
	sol, err := ctx.evaluate(ids)
	return sol, r.stats, err
}

// newRun sets up an exact solve of its on the grid [0, cap64]. It is the
// one place that picks the row representation and applies the dense
// admission check, for cold and warm solves alike: SparseAuto keeps
// dense rows while the n·(cap64+1) grid fits the state budget.
func (d DP) newRun(its []item, cap64 int64, monotone bool) (dpRun, error) {
	denseLimit := d.MaxStates
	if denseLimit == 0 {
		denseLimit = DefaultMaxDPStates
	}
	r := dpRun{its: its, cap64: cap64, scale: 1, monotone: monotone, prune: monotone,
		workers: d.Workers, limit: d.MaxStates, denseLimit: denseLimit}
	if r.limit == 0 {
		r.limit = DefaultMaxSparseCells
	}
	n := int64(len(its))
	work := n * (cap64 + 1)
	r.sparse = d.Sparse == SparseOn || (d.Sparse == SparseAuto && n > 0 && cap64 >= 0 && (cap64 >= denseLimit || work > denseLimit))
	if !r.sparse && work > denseLimit {
		return r, denseStatesErr(work, len(its), cap64, denseLimit)
	}
	return r, nil
}

// dpRow computes cells [0, hi) of one row, chunked across workers when
// the row is wide enough to amortize the fan-out. Word-aligned chunks own
// disjoint take words and disjoint cur cells; every read is from prev, so
// chunk order is unobservable and the row equals its serial evaluation.
// The row buffers arrive as parameters, so the closure captures copies
// and the callers' swapped prev/cur variables stay on the stack.
func dpRow(prev, cur []float64, bits []uint64, c int64, v float64, hi int64, workers int) {
	if workers <= 1 || hi < int64(64*workers) {
		dpRowRange(prev, cur, bits, c, v, 0, hi)
		return
	}
	chunk := (hi + int64(workers) - 1) / int64(workers)
	chunk = (chunk + 63) &^ 63
	nch := int((hi + chunk - 1) / chunk)
	conc.ForEach(nch, workers, func(k int) (struct{}, error) {
		lo := int64(k) * chunk
		dpRowRange(prev, cur, bits, c, v, lo, min(lo+chunk, hi))
		return struct{}{}, nil
	})
}

// ErrStateBudget is wrapped by every DP refusal caused by the state
// budget — a dense grid over MaxStates or a sparse row set past its
// breakpoint limit. Callers with a fallback tier (the serve engine's
// anytime route) match it with errors.Is; the full message still carries
// the numbers that produced the refusal.
var ErrStateBudget = errors.New("state budget exceeded")

// denseStatesErr reports a dense grid over the state budget with the
// numbers that produced it and the ways out.
func denseStatesErr(work int64, n int, cap64, limit int64) error {
	return fmt.Errorf("core: DP needs %d states (%d tasks × %d workload levels), over the limit %d (%w): use ApproxDP for an approximate solve, or sparse rows (DP.Sparse = SparseOn, solver %q) for an exact one", work, n, cap64+1, limit, ErrStateBudget, "DP-SPARSE")
}

// dpRun is one exact rejection-DP solve through the single row driver:
// fold folds rows [from.row, n) of its from a snapshot in either row
// representation, scan picks the best workload of the last row, and
// reconstruct walks the take bits back across two row records — lo, the
// rows below hi.base read back (a warm start's recorded prefix, or the
// sparse prefix of a switched run), and hi, the rows the fold wrote. The
// energy curve enters only the scan, so it is passed there.
type dpRun struct {
	its      []item // c in grid units
	cap64    int64
	scale    float64 // grid units → true cycles for the energy curve
	monotone bool    // non-decreasing energy: pruned, cut-off final scan
	prune    bool    // sparse rows keep only the dominance frontier
	workers  int
	sparse   bool  // rows start sparse
	limit    int64 // sparse breakpoint budget, summed over all rows
	spent    int64 // breakpoints already spent (a warm start's prefix)
	// denseLimit admits the adaptive switchover: an unrecorded cold sparse
	// run whose occupancy passes 1/8 of the grid finishes on dense rows
	// once the rest of the table fits it — the dense kernel's branch-free
	// cells are then cheaper than merge breakpoints.
	denseLimit int64
	rec        *DPState // recording target: checkpoints, and take bits in place

	lo, hi rowRec
	stats  DPStats
}

// rowRec locates the take bits of rows [base, …): packed dense words,
// perRow per row, or a sparse breakpoint record.
type rowRec struct {
	base   int
	words  []uint64
	perRow int64
	sp     *sparseRows
}

// row returns dense row i's take words, cell-indexed by w>>6.
func (r rowRec) row(i int) []uint64 {
	o := int64(i-r.base) * r.perRow
	return r.words[o : o+r.perRow]
}

// take reports row i's take bit at workload w.
func (r rowRec) take(i int, w int64) (bool, error) {
	if r.sp == nil {
		return r.row(i)[w>>6]&(1<<uint(w&63)) != 0, nil
	}
	rw := r.sp.row(i - r.base)
	j, found := slices.BinarySearch(rw, w)
	if !found {
		return false, fmt.Errorf("core: DP reconstruction lost workload %d at row %d", w, i)
	}
	return r.sp.take(i-r.base, j), nil
}

// dpRow0 is row 0 of every cold solve: the empty prefix reaches only
// workload 0 at zero penalty. Read-only — rows are written into the
// solve's own buffers, and snapshots copy.
var dpRow0 = dpSnap{ws: []int64{0}, f: []float64{0}}

// solve folds, scans and reconstructs, returning the accepted IDs. A
// recording state is marked valid, holding a copy of its, only on success.
func (r *dpRun) solve(sc *dpScratch, from dpSnap, energy func(float64) float64) ([]int, error) {
	ws, f, err := r.fold(sc, from)
	var ids []int
	if err == nil {
		if w, _ := r.scan(ws, f, energy); w < 0 {
			err = errors.New("core: DP found no feasible workload")
		} else {
			ids, err = r.reconstruct(sc, w)
		}
	}
	if st := r.rec; st != nil {
		st.valid = err == nil
		st.items = append(st.items[:0], r.its...)
	}
	return ids, err
}

// fold runs rows [from.row, n) from the snapshot row from, writing take
// bits into r.hi and checkpoints into r.rec. It returns the last row:
// sparse breakpoints (ws, f), or the full dense row f with ws nil.
func (r *dpRun) fold(sc *dpScratch, from dpSnap) (ws []int64, f []float64, err error) {
	if r.cap64 < 0 {
		return nil, nil, fmt.Errorf("core: negative DP capacity %d", r.cap64)
	}
	n, start, width := len(r.its), from.row, r.cap64+1
	sparse := r.sparse
	r.record(sc, start, sparse)
	ws, f = from.ws, from.f
	var cur []float64
	var reach int64
	if !sparse {
		f, cur, reach = sc.denseRows(width, ws, f)
		ws = nil
	}
	for i := start; i < n; i++ {
		r.stats.Rows++
		it := r.its[i]
		if sparse {
			var wrote []float64
			var k int
			ws, f, wrote, k = sparseStep(r.hi.sp, ws, f, sc.spF, it, r.cap64, r.prune, r.limit-r.spent)
			sc.spF, sc.spF2 = sc.spF2, wrote
			if k >= 0 {
				r.spent += int64(k)
				r.stats.SparseCells += int64(k)
			}
			if k < 0 || r.spent > r.limit {
				return nil, nil, sparseBudgetErr(r.limit, i+1, n)
			}
			if r.rec == nil && start == 0 && i+1 < n && int64(len(ws))*8 > width && int64(n-i-1)*width <= r.denseLimit {
				sparse = false
				r.lo = r.hi
				r.record(sc, i+1, false)
				f, cur, reach = sc.denseRows(width, ws, f)
				ws = nil
			}
		} else {
			r.stats.DenseRows++
			if it.c > r.cap64 {
				// Can never be accepted: pay the penalty on every path.
				dpRejectRange(f, cur, it.v, 0, reach+1)
			} else {
				reach = min(reach+it.c, r.cap64)
				dpRow(f, cur, r.hi.row(i), it.c, it.v, reach+1, r.workers)
			}
			r.stats.Cells += reach + 1
			f, cur = cur, f
		}
		if r.rec != nil {
			snap := f
			if !sparse {
				snap = f[:reach+1]
			}
			r.rec.note(i+1, ws, snap)
		}
	}
	return ws, f, nil
}

// record points r.hi at zeroed take bits for rows [start, n): the
// recording state's own record, truncated to start (so r.lo is the same
// record), or a scratch window.
func (r *dpRun) record(sc *dpScratch, start int, sparse bool) {
	n := len(r.its)
	perRow := (r.cap64 + 64) / 64
	switch st := r.rec; {
	case st != nil && sparse:
		st.sp.begin(start)
	case st != nil:
		st.ensureRows(n, start)
		clear(st.words[int64(start)*perRow:])
	case sparse:
		sc.spRec.begin(0)
		r.hi = rowRec{base: start, sp: &sc.spRec}
		return
	default:
		sc.words = growU64(sc.words, int(int64(n-start)*perRow))
		clear(sc.words)
		r.hi = rowRec{base: start, words: sc.words, perRow: perRow}
		return
	}
	r.hi = r.rec.rows()
	r.lo = r.hi
}

// denseRows returns the double-buffered dense rows, Inf-filled (cells
// above a row's reach are never written and must read +Inf), with the
// row (ws, f) loaded into the first — a dense prefix f[0:reach+1] when ws
// is empty, else sparse breakpoints scattered into their cells — and
// that row's reach. Holes left by pruned sparse cells read +Inf too: a
// dominated cell's descendants are themselves dominated, so the final
// scan's frontier filter drops every cell they could distort.
func (sc *dpScratch) denseRows(width int64, ws []int64, f []float64) ([]float64, []float64, int64) {
	sc.f, sc.f2 = growF64(sc.f, int(width)), growF64(sc.f2, int(width))
	prev, cur := sc.f, sc.f2
	for w := range prev {
		prev[w], cur[w] = math.Inf(1), math.Inf(1)
	}
	if len(ws) == 0 {
		copy(prev, f)
		return prev, cur, int64(len(f)) - 1
	}
	for j, w := range ws {
		prev[w] = f[j]
	}
	return prev, cur, ws[len(ws)-1]
}

// scan is the final workload scan of the last row (see fold): the
// cheapest E(w·scale) + f[w], ties to the smaller workload.
func (r *dpRun) scan(ws []int64, f []float64, energy func(float64) float64) (int64, float64) {
	switch {
	case ws != nil:
		return minCostWorkloadSparse(ws, f, energy, r.scale, r.monotone)
	case r.workers > 1 && r.monotone:
		return minCostWorkloadParallel(f, energy, r.scale, r.workers)
	}
	return minCostWorkload(f, energy, r.scale, r.monotone)
}

// reconstruct walks the take bits back from the final workload w: rows
// at or above r.hi.base from r.hi, the rows below from r.lo.
func (r *dpRun) reconstruct(sc *dpScratch, w int64) ([]int, error) {
	ids := sc.ids[:0]
	for i := len(r.its) - 1; i >= 0; i-- {
		rec := r.hi
		if i < rec.base {
			rec = r.lo
		}
		taken, err := rec.take(i, w)
		if err != nil {
			return nil, err
		}
		if taken {
			ids = append(ids, r.its[i].id)
			w -= r.its[i].c
		}
	}
	sc.ids = ids
	if w != 0 {
		return nil, fmt.Errorf("core: DP reconstruction left workload %d", w)
	}
	return ids, nil
}
