package core

import (
	"slices"

	"dvsreject/internal/task"
)

// subsetMemoSize is the slot count of SubsetDP's energy memo (a power of
// two): a direct-mapped table keyed by integer workload, so its memory is
// fixed however wide the grid.
const subsetMemoSize = 1024

// SubsetDP prices many task subsets of one instance with the exact
// rejection DP. Callers that solve the same processor over and over on
// different subsets of one task set — HETERO-PART's ownership probes —
// pay the instance validation and the evaluation-context build once, in
// NewSubsetDP, instead of once per probe.
//
// Cost runs the DP rows over the chosen tasks — sparse, switching to
// dense rows in place where DP.Solve would — and returns only the final
// scan's minimum: no reconstruction, no evaluation, no Solution.
// Energies come through a fixed-size memo keyed by integer workload,
// which returns the very bits the curve does. Contract: Cost(idx)
// returns the same cost bits and the same error as dp.Solve on the
// instance whose tasks are in.Tasks.Tasks[idx[0]], in.Tasks.Tasks[idx[1]],
// … in that order; Solve(idx) is that very call. A probe the fast path
// does not cover — one past the breakpoint budget, a repeated index, or
// any dp other than SparseOn — is handed to dp.Solve unchanged.
//
// Probes that extend one subset by one task reuse its last row: Fold(row,
// idx) returns Cost(idx) and keeps idx's final sparse row in row, and
// CostAppend(row, i) then returns Cost(idx ++ [i]) by folding the one
// appended row. A row is kept only where a cold solve of idx plus one
// more task would fold those very rows first — the fold stayed sparse and
// within the breakpoint budget, and no row reached the occupancy at which
// a cold run switches to dense rows — so the append's bits and errors are
// Cost's; on any decline CostAppend runs Cost itself. A kept row stays
// valid until the next Fold into it: callers re-fold a row once its
// subset changes. The rows one SubsetDP keeps hold at most its breakpoint
// budget (MaxStates, else DefaultMaxSparseCells) in total — the memory
// one cold probe may already use; past it, Fold keeps nothing and the
// appends price cold.
//
// SubsetDPs and their rows come from a pool that PurgeSolverScratch
// empties: Release returns one when its caller is done.
//
// A SubsetDP is not safe for concurrent use.
type SubsetDP struct {
	dp    DP
	ctx   evalCtx // holds the instance; rebuilt in place on reuse
	cap64 int64
	limit int64 // the sparse breakpoint budget

	sc   dpScratch   // row records and buffers, reused by every Cost
	its  []item      // the probe's items, in probe order
	seen []bool      // per-task marks of the repeated-index check
	sub  []task.Task // the materialized subset of a Solve
	app  []int       // a declined CostAppend's subset, idx ++ [i]

	rows []SubsetRow // the storage Rows hands out
	kept int64       // breakpoints held by the kept rows

	memo [subsetMemoSize]struct {
		w int64
		e float64
	}
}

// SubsetRow holds one subset and, when Fold kept it, that subset's final
// sparse DP row: the state CostAppend extends by one task. The zero row
// stands for the empty subset with no row kept.
type SubsetRow struct {
	idx   []int     // the subset of the last Fold
	ws    []int64   // its final row's workloads, when kept
	f     []float64 // and their penalties
	spent int64     // breakpoints the fold spent
	kept  bool
}

// NewSubsetDP validates in and builds the evaluation context every probe
// shares. It returns the error dp.Solve(in) would return before running
// any row: a validation error, or ErrHeterogeneous for per-task power
// coefficients.
func NewSubsetDP(dp DP, in Instance) (*SubsetDP, error) {
	s := subsetPool.Load().Get().(*SubsetDP)
	if err := s.ctx.init(in); err != nil {
		s.Release()
		return nil, err
	}
	if s.ctx.hetero {
		s.Release()
		return nil, ErrHeterogeneous
	}
	s.dp = dp
	s.cap64 = dpCapacity(s.ctx.capacity)
	s.limit = dp.MaxStates
	if s.limit == 0 {
		s.limit = DefaultMaxSparseCells
	}
	s.seen = growBool(s.seen, len(s.ctx.items))
	clear(s.seen)
	s.rows, s.kept = s.rows[:0], 0
	for i := range s.memo {
		s.memo[i].w = -1
	}
	return s, nil
}

// Release returns s to the pool. Neither s nor any row it handed out may
// be used afterwards.
func (s *SubsetDP) Release() { subsetPool.Load().Put(s) }

// Rows returns k empty rows for Fold and CostAppend on s, backed by
// storage pooled with s. Rows an earlier call returned are invalid
// afterwards.
func (s *SubsetDP) Rows(k int) []SubsetRow {
	if cap(s.rows) < k {
		s.rows = append(s.rows[:cap(s.rows)], make([]SubsetRow, k-cap(s.rows))...)
	}
	s.rows = s.rows[:k]
	for i := range s.rows {
		r := &s.rows[i]
		r.idx, r.kept = r.idx[:0], false
	}
	s.kept = 0
	return s.rows
}

// Cost returns dp.Solve's cost on the subset idx (see SubsetDP).
func (s *SubsetDP) Cost(idx []int) (float64, error) { return s.cost(idx, nil) }

// Fold returns Cost(idx) and records idx in row, keeping idx's final row
// for CostAppend when the rules in SubsetDP allow. row must come from
// s.Rows.
func (s *SubsetDP) Fold(row *SubsetRow, idx []int) (float64, error) {
	if row.kept {
		s.kept -= int64(len(row.ws))
		row.kept = false
	}
	row.idx = append(row.idx[:0], idx...)
	return s.cost(idx, row)
}

// CostAppend returns Cost(idx ++ [i]), where idx is the subset of row's
// last Fold, by folding one row onto the kept one. Without a kept row, on
// a repeated index, or when the appended row passes the remaining
// breakpoint budget it runs that Cost cold.
func (s *SubsetDP) CostAppend(row *SubsetRow, i int) (float64, error) {
	if row.kept && !slices.Contains(row.idx, i) {
		budget := s.limit - row.spent
		s.sc.spRec.begin(0)
		ws, f, buf, k := sparseStep(&s.sc.spRec, row.ws, row.f, s.sc.spF, s.ctx.items[i], s.cap64, s.ctx.fastEnergy, budget)
		s.sc.spF = buf
		if k >= 0 && int64(k) <= budget {
			if w, cost := minCostWorkloadSparse(ws, f, s.energy, 1, s.ctx.fastEnergy); w >= 0 {
				return cost, nil
			}
		}
	}
	s.app = append(append(s.app[:0], row.idx...), i)
	return s.Cost(s.app)
}

// cost is Cost, keeping the final row in keep when it is non-nil.
func (s *SubsetDP) cost(idx []int, keep *SubsetRow) (float64, error) {
	if s.dp.Sparse != SparseOn || !s.gather(idx) {
		return s.solveCost(idx)
	}
	r, _ := s.dp.newRun(s.its, s.cap64, s.ctx.fastEnergy) // SparseOn admits every grid
	ws, f, err := r.fold(&s.sc, dpRow0)
	if err != nil {
		return s.solveCost(idx)
	}
	w, cost := r.scan(ws, f, s.energy)
	if w < 0 {
		return s.solveCost(idx)
	}
	if keep != nil {
		s.keep(keep, &r, ws, f)
	}
	return cost, nil
}

// keep copies the final sparse row (ws, f) of r into row when a cold run
// of one more task would fold the same rows. The run stayed sparse (ws is
// non-nil), so no row before the last met the dense switchover, and the
// longer run's switchover is stricter there: it needs one more remaining
// row to fit the dense budget. The last row is tested as the longer run
// would test it, with one row left. An empty subset keeps nothing: its
// one-row appends run cold.
func (s *SubsetDP) keep(row *SubsetRow, r *dpRun, ws []int64, f []float64) {
	if len(r.its) == 0 || ws == nil || r.switchesDense(len(ws), 1) || s.kept+int64(len(ws)) > s.limit {
		return
	}
	row.ws = append(row.ws[:0], ws...)
	row.f = append(row.f[:0], f...)
	row.spent, row.kept = r.spent, true
	s.kept += int64(len(ws))
}

// Solve runs dp.Solve on the subset idx, materialized in probe order.
func (s *SubsetDP) Solve(idx []int) (Solution, error) {
	in := s.ctx.in
	sub := s.sub[:0]
	for _, i := range idx {
		sub = append(sub, in.Tasks.Tasks[i])
	}
	s.sub = sub
	in.Tasks.Tasks = sub
	return s.dp.Solve(in)
}

func (s *SubsetDP) solveCost(idx []int) (float64, error) {
	sol, err := s.Solve(idx)
	return sol.Cost, err
}

// gather loads the probe's items in idx order, reporting false when an
// index repeats (the subset would hold a duplicate task ID).
func (s *SubsetDP) gather(idx []int) bool {
	its := s.its[:0]
	ok := true
	for _, i := range idx {
		if s.seen[i] {
			ok = false
			break
		}
		s.seen[i] = true
		its = append(its, s.ctx.items[i])
	}
	for _, i := range idx {
		s.seen[i] = false
	}
	s.its = its
	return ok
}

// energy is the context's E(w) through the memo. The final scan only asks
// for integer workloads (w·1), so the key is exact.
func (s *SubsetDP) energy(w float64) float64 {
	k := int64(w)
	slot := &s.memo[k&(subsetMemoSize-1)]
	if slot.w != k {
		slot.w, slot.e = k, s.ctx.energy(w)
	}
	return slot.e
}
