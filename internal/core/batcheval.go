package core

// BatchEval exposes the per-solve evaluation context to solver tiers that
// live outside this package (internal/anytime's population-fitness
// kernel): the struct-of-arrays evaluation columns, the cached capacity
// test, the closed-form energy curve, and exact Solution construction.
// It wraps the same pooled evalCtx every in-package solver builds, so all
// probes are bit-identical to the corresponding Instance methods — an
// external tier scoring workloads through BatchEval reproduces the exact
// costs DP or Exhaustive would assign.
//
// The wrapper is immutable after construction and safe for concurrent
// readers; the column slices are views into pooled context state and must
// be treated as read-only, never retained past Release.
type BatchEval struct {
	ctx *evalCtx
}

// NewBatchEval validates the instance and builds its evaluation context
// from the solver scratch pool. The caller must Release it after the last
// use; the columns alias pooled memory.
func NewBatchEval(in Instance) (*BatchEval, error) {
	ctx, err := newPooledEvalCtx(in)
	if err != nil {
		return nil, err
	}
	return &BatchEval{ctx: ctx}, nil
}

// Release returns the underlying context to the pool. The BatchEval and
// every slice obtained from it must not be used afterwards.
func (b *BatchEval) Release() {
	b.ctx.release()
	b.ctx = nil
}

// Len returns the task count; columns and bit positions index [0, Len).
func (b *BatchEval) Len() int { return len(b.ctx.items) }

// Hetero reports a heterogeneous instance (per-task power coefficients),
// on which total-workload fitness is not a valid cost model.
func (b *BatchEval) Hetero() bool { return b.ctx.hetero }

// Columns returns the true-cycle and rejection-penalty columns in
// instance order — the same task.Columns mirror the DP final scans and
// greedy move loops walk. Read-only views into pooled memory.
func (b *BatchEval) Columns() (cycles []int64, penalties []float64) {
	return b.ctx.colC, b.ctx.colV
}

// ID maps a column position to its task ID.
func (b *BatchEval) ID(i int) int { return b.ctx.items[i].id }

// Capacity returns the frame capacity smax·D in true cycles.
func (b *BatchEval) Capacity() float64 { return b.ctx.capacity }

// Fits reports whether a workload of w true cycles is schedulable —
// identical to Instance.Fits with the capacity cached.
func (b *BatchEval) Fits(w float64) bool { return b.ctx.fits(w) }

// Energy returns E(w), the minimum energy of executing a homogeneous
// workload of w true cycles in one frame (+Inf when infeasible),
// bit-identical to the probes the in-package solvers make.
func (b *BatchEval) Energy(w float64) float64 { return b.ctx.energy(w) }

// TotalPenalty returns Σ v_i over all tasks, summed in column order.
func (b *BatchEval) TotalPenalty() float64 {
	var sum float64
	for _, v := range b.ctx.colV {
		sum += v
	}
	return sum
}

// Evaluate builds the full exact Solution for an accepted ID set, exactly
// as the package-level Evaluate does (same speed assignment, same float
// summation order for Penalty).
func (b *BatchEval) Evaluate(accepted []int) (Solution, error) {
	return b.ctx.evaluate(accepted)
}
