package core

import (
	"errors"
	"fmt"
	"math"

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
// copies row snapshots and the finished take table out of the solve.
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
	limit := d.MaxStates
	if limit == 0 {
		limit = DefaultMaxDPStates
	}
	if d.Sparse == SparseOn || (d.Sparse == SparseAuto && len(ctx.items) > 0 && cap64 >= 0 &&
		(cap64 >= limit || int64(len(ctx.items))*(cap64+1) > limit)) {
		return d.solveSparse(ctx, cap64, rec)
	}
	if work := int64(len(ctx.items)) * (cap64 + 1); work > limit {
		return Solution{}, DPStats{}, denseStatesErr(work, len(ctx.items), cap64, limit)
	}

	var onRow func(rows int, f []float64, reach int64)
	if rec != nil {
		rec.begin(cap64, d.checkpointStride(), len(ctx.items))
		onRow = rec.noteRow
	}
	sc := getDPScratch()
	defer putDPScratch(sc)
	accepted, st, err := rejectionDP(ctx.items, cap64, ctx.energy, 1, ctx.fastEnergy, d.Workers, sc, onRow)
	if err != nil {
		return Solution{}, st, err
	}
	if rec != nil {
		rec.finish(ctx.items, sc.words)
	}
	sol, err := ctx.evaluate(accepted)
	return sol, st, err
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

// takeTable is the reconstruction bitset: one bit per (task, workload)
// cell, 8× smaller than a [][]bool and friendlier to the cache on large
// grids.
type takeTable struct {
	words []uint64
	width int64 // words per task row
}

func newTakeTable(words []uint64, n int, width int64) takeTable {
	perRow := (width + 63) / 64
	need := int64(n) * perRow
	if words == nil || int64(cap(words)) < need {
		words = make([]uint64, need)
	} else {
		words = words[:need]
		clear(words)
	}
	return takeTable{words: words, width: perRow}
}

func (t takeTable) set(i int, w int64) {
	t.words[int64(i)*t.width+w/64] |= 1 << uint(w%64)
}

func (t takeTable) get(i int, w int64) bool {
	return t.words[int64(i)*t.width+w/64]&(1<<uint(w%64)) != 0
}

// row returns task i's word slice, cell-indexed by w>>6.
func (t takeTable) row(i int) []uint64 {
	return t.words[int64(i)*t.width : (int64(i)+1)*t.width]
}

// rejectionDP solves min energy(scale·w) + Σ rejected v over subsets with
// Σ item.c ≤ cap64. Callers pass items whose c field is already expressed
// in DP grid units; scale converts grid units back to true cycles for the
// energy evaluation (1 for the exact DP). monotone declares the energy
// curve non-decreasing in w, unlocking the pruned final scan of
// minCostWorkload; pass false for curves with dormant break-evens or
// discrete ladders. workers > 1 chunks rows and the monotone final scan;
// any setting returns byte-identical results. It returns the accepted IDs.
//
// onRow, when non-nil, observes the finished row buffer after each item:
// rows is the number of items folded in so far and f[0:reach+1] holds the
// finite prefix (cells above reach are untouched +Inf). The checkpoint
// recorder (dpstate.go) snapshots here; f must not be retained.
func rejectionDP(its []item, cap64 int64, energy func(float64) float64, scale float64, monotone bool, workers int, sc *dpScratch, onRow func(rows int, f []float64, reach int64)) ([]int, DPStats, error) {
	var st DPStats
	if cap64 < 0 {
		return nil, st, fmt.Errorf("core: negative DP capacity %d", cap64)
	}
	n := len(its)
	width := cap64 + 1
	if workers < 1 {
		workers = 1
	}

	// Double-buffered rows from the caller's scratch; the Inf refill and
	// the zeroed bitset put reused buffers in exactly the state fresh
	// make() calls had them. Cells at or above a row's reachable bound are
	// never written in either buffer, so they keep this +Inf for the final
	// scan.
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
	prev[0] = 0

	// take records, per reachable workload, whether task i is accepted on
	// the optimal path reaching it.
	take := newTakeTable(sc.words, n, width)
	sc.words = take.words

	var reach int64 // largest attainable workload after the rows so far
	for i, it := range its {
		st.Rows++
		st.DenseRows++
		c, v := it.c, it.v
		if c > cap64 {
			// Can never be accepted: pay the penalty on every path.
			hi := reach + 1
			dpRejectRange(prev, cur, v, 0, hi)
			st.Cells += hi
			prev, cur = cur, prev
			if onRow != nil {
				onRow(i+1, prev, reach)
			}
			continue
		}
		reach = min(reach+c, cap64)
		hi := reach + 1
		dpRow(prev, cur, take.row(i), c, v, hi, workers)
		st.Cells += hi
		prev, cur = cur, prev
		if onRow != nil {
			onRow(i+1, prev, reach)
		}
	}
	f := prev

	// Pick the best workload level.
	var bestW int64
	if workers > 1 && monotone {
		bestW, _ = minCostWorkloadParallel(f, energy, scale, workers)
	} else {
		bestW, _ = minCostWorkload(f, energy, scale, monotone)
	}
	if bestW < 0 {
		return nil, st, fmt.Errorf("core: DP found no feasible workload")
	}

	// Reconstruct.
	ids := sc.ids[:0]
	w := bestW
	for i := n - 1; i >= 0; i-- {
		if take.get(i, w) {
			ids = append(ids, its[i].id)
			w -= its[i].c
		}
	}
	sc.ids = ids
	if w != 0 {
		return nil, st, fmt.Errorf("core: DP reconstruction left workload %d", w)
	}
	return ids, st, nil
}
