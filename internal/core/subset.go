package core

import "dvsreject/internal/task"

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
// Cost runs the sparse rows over the chosen tasks and returns only the
// final scan's minimum: no reconstruction, no evaluation, no Solution.
// Energies come through a fixed-size memo keyed by integer workload,
// which returns the very bits the curve does. Contract: Cost(idx)
// returns the same cost bits and the same error as dp.Solve on the
// instance whose tasks are in.Tasks.Tasks[idx[0]], in.Tasks.Tasks[idx[1]],
// … in that order; Solve(idx) is that very call. A probe the fast path
// does not cover — one whose rows would switch to the dense kernel or
// pass the breakpoint budget, a repeated index, or any dp other than
// SparseOn — is handed to dp.Solve unchanged.
//
// A SubsetDP is not safe for concurrent use.
type SubsetDP struct {
	dp    DP
	ctx   *evalCtx // holds the instance
	cap64 int64

	sc   dpScratch   // row record and value buffers, reused by every Cost
	its  []item      // the probe's items, in probe order
	seen []bool      // per-task marks of the repeated-index check
	sub  []task.Task // the materialized subset of a Solve

	memo [subsetMemoSize]struct {
		w int64
		e float64
	}
}

// NewSubsetDP validates in and builds the evaluation context every probe
// shares. It returns the error dp.Solve(in) would return before running
// any row: a validation error, or ErrHeterogeneous for per-task power
// coefficients.
func NewSubsetDP(dp DP, in Instance) (*SubsetDP, error) {
	ctx, err := newEvalCtx(in)
	if err != nil {
		return nil, err
	}
	if ctx.hetero {
		return nil, ErrHeterogeneous
	}
	s := &SubsetDP{
		dp:    dp,
		ctx:   ctx,
		cap64: dpCapacity(ctx.capacity),
		seen:  make([]bool, len(ctx.items)),
	}
	for i := range s.memo {
		s.memo[i].w = -1
	}
	return s, nil
}

// Cost returns dp.Solve's cost on the subset idx (see SubsetDP).
func (s *SubsetDP) Cost(idx []int) (float64, error) {
	if s.dp.Sparse != SparseOn || !s.gather(idx) {
		return s.solveCost(idx)
	}
	var stats DPStats
	ws, fs, done, err := s.dp.sparseForward(&s.sc, &s.sc.spRec, s.its, s.cap64, s.ctx.fastEnergy, nil, &stats)
	if err != nil || done < len(s.its) {
		return s.solveCost(idx)
	}
	w, cost := minCostWorkloadSparse(ws, fs, s.energy, 1, s.ctx.fastEnergy)
	if w < 0 {
		return s.solveCost(idx)
	}
	return cost, nil
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
