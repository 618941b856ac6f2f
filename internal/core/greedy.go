package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"dvsreject/internal/conc"
)

// GreedyDensity is the single-pass admission heuristic: consider tasks in
// non-increasing order of penalty density vi/c̃i (the most expensive tasks
// to turn away, per cycle, first) and accept a task when it fits the
// remaining capacity AND the marginal energy of running it is below its
// penalty. O(n log n) plus n energy evaluations.
type GreedyDensity struct{}

// Name implements Solver.
func (GreedyDensity) Name() string { return "GREEDY" }

// Solve implements Solver.
func (GreedyDensity) Solve(in Instance) (Solution, error) {
	ctx, err := newEvalCtx(in)
	if err != nil {
		return Solution{}, err
	}
	return greedyDensity(ctx)
}

// greedyDensity is GreedyDensity on a prebuilt context, so callers that
// seed other searches with it (GreedyMarginal, Exhaustive) share one
// context per solve.
func greedyDensity(ctx *evalCtx) (Solution, error) {
	its := slices.Clone(ctx.items)
	// The stable sort reorders only on a negative result, so ties keep
	// input order.
	slices.SortStableFunc(its, func(a, b item) int {
		if a.v*float64(b.c) > b.v*float64(a.c) {
			return -1
		}
		return 0
	})

	var accepted []int
	var wTrue int64
	var wEff float64
	base := ctx.surrogate(wEff)
	for _, it := range its {
		if !ctx.fits(float64(wTrue + it.c)) {
			continue
		}
		marginal := ctx.surrogate(wEff+it.ce) - base
		if marginal < it.v {
			accepted = append(accepted, it.id)
			wTrue += it.c
			wEff += it.ce
			base = ctx.surrogate(wEff)
		}
	}
	return ctx.evaluate(accepted)
}

// GreedyMarginal refines an initial admission by steepest-descent local
// search over single-task toggles and pairwise swaps: repeatedly apply the
// accept/reject flip — or the (evict one, admit one) swap — with the
// largest cost improvement until none improves. Swaps are what escape the
// capacity-bound local optima the single-pass greedy gets trapped in. Each
// move is costed with the surrogate energy curve; the final solution is
// re-costed exactly.
type GreedyMarginal struct {
	// MaxIterations bounds the move count; 0 means 10·n.
	MaxIterations int
	// DisableSwaps restricts the neighbourhood to single-task toggles.
	// Exposed for the move-set ablation (experiment E12).
	DisableSwaps bool
}

// Name implements Solver.
func (GreedyMarginal) Name() string { return "S-GREEDY" }

// Solve implements Solver.
func (g GreedyMarginal) Solve(in Instance) (Solution, error) {
	ctx, err := newEvalCtx(in)
	if err != nil {
		return Solution{}, err
	}
	seed, err := greedyDensity(ctx)
	if err != nil {
		return Solution{}, err
	}
	its := ctx.items
	n := len(its)
	limit := g.MaxIterations
	if limit == 0 {
		limit = 10 * n
	}

	// The move loops walk the context's struct-of-arrays columns with
	// position-indexed admission flags: the same floats in the same order
	// as the seed's item structs and id-keyed map, laid out so the O(n²)
	// swap scan streams two contiguous float columns per candidate instead
	// of striding item structs and hashing IDs.
	colC, colCE, colV := ctx.colC, ctx.colCE, ctx.colV
	acc := make([]bool, n)
	for _, id := range seed.Accepted {
		acc[ctx.idx[id]] = true
	}
	var wTrue int64
	var wEff float64
	for i, a := range acc {
		if a {
			wTrue += colC[i]
			wEff += colCE[i]
		}
	}

	for iter := 0; iter < limit; iter++ {
		bestGain := costEps
		bestOut, bestIn := -1, -1 // indices to evict / admit (-1 = none)
		base := ctx.surrogate(wEff)

		for i := 0; i < n; i++ {
			var gain float64
			if acc[i] {
				// Reject it: save its energy share, pay its penalty.
				gain = base - ctx.surrogate(wEff-colCE[i]) - colV[i]
				if gain > bestGain {
					bestGain, bestOut, bestIn = gain, i, -1
				}
			} else {
				if ctx.fits(float64(wTrue + colC[i])) {
					// Accept it: save its penalty, pay marginal energy.
					gain = colV[i] - (ctx.surrogate(wEff+colCE[i]) - base)
					if gain > bestGain {
						bestGain, bestOut, bestIn = gain, -1, i
					}
				}
				if g.DisableSwaps {
					continue
				}
				// Swap it in for each currently accepted task.
				for j := 0; j < n; j++ {
					if !acc[j] {
						continue
					}
					if !ctx.fits(float64(wTrue - colC[j] + colC[i])) {
						continue
					}
					newEff := wEff - colCE[j] + colCE[i]
					gain = colV[i] - colV[j] - (ctx.surrogate(newEff) - base)
					if gain > bestGain {
						bestGain, bestOut, bestIn = gain, j, i
					}
				}
			}
		}
		if bestOut < 0 && bestIn < 0 {
			break
		}
		if bestOut >= 0 {
			acc[bestOut] = false
			wTrue -= colC[bestOut]
			wEff -= colCE[bestOut]
		}
		if bestIn >= 0 {
			acc[bestIn] = true
			wTrue += colC[bestIn]
			wEff += colCE[bestIn]
		}
	}

	ids := make([]int, 0, n)
	for i, a := range acc {
		if a {
			ids = append(ids, its[i].id)
		}
	}
	return ctx.evaluate(ids)
}

// AcceptAll is the energy-oblivious baseline: admit every task, and only
// when the set exceeds capacity shed tasks in increasing penalty density
// until it fits. It models a scheduler that rejects solely for
// feasibility, never to save energy.
type AcceptAll struct{}

// Name implements Solver.
func (AcceptAll) Name() string { return "ACCEPT-ALL" }

// Solve implements Solver.
func (AcceptAll) Solve(in Instance) (Solution, error) {
	ctx, err := newEvalCtx(in)
	if err != nil {
		return Solution{}, err
	}
	its := slices.Clone(ctx.items)
	// Shed the cheapest penalty per freed cycle first.
	slices.SortStableFunc(its, func(a, b item) int {
		if a.v*float64(b.c) < b.v*float64(a.c) {
			return -1
		}
		return 0
	})
	wTrue := int64(0)
	for _, it := range its {
		wTrue += it.c
	}
	acc := make(map[int]bool, len(its))
	for _, it := range its {
		acc[it.id] = true
	}
	for _, it := range its {
		if ctx.fits(float64(wTrue)) {
			break
		}
		delete(acc, it.id)
		wTrue -= it.c
	}
	if !ctx.fits(float64(wTrue)) {
		return Solution{}, fmt.Errorf("core: AcceptAll could not shed to feasibility")
	}
	ids := make([]int, 0, len(acc))
	for id := range acc {
		ids = append(ids, id)
	}
	return ctx.evaluate(ids)
}

// RejectAll is the degenerate anchor: admit nothing, pay every penalty.
type RejectAll struct{}

// Name implements Solver.
func (RejectAll) Name() string { return "REJECT-ALL" }

// Solve implements Solver.
func (RejectAll) Solve(in Instance) (Solution, error) {
	return Evaluate(in, nil)
}

// RandomAdmission mirrors the RAND reference of the paper family's plots:
// admit a random permutation greedily under the capacity constraint,
// repeat for Restarts trials, keep the best. Deterministic for a fixed
// Seed regardless of Workers: every trial draws from its own RNG seeded
// Seed+trial, and the winner is the lowest-numbered trial with the
// strictly smallest cost.
type RandomAdmission struct {
	Seed     int64
	Restarts int // 0 means 8
	// Workers bounds the trial worker pool; 0 means GOMAXPROCS, 1 forces
	// a serial run. Results are identical for every setting.
	Workers int
}

// Name implements Solver.
func (RandomAdmission) Name() string { return "RAND" }

// Solve implements Solver. Losing trials are costed with the surrogate
// energy curve (exact for homogeneous instances, where the effective and
// true workloads coincide) and only the winning trial is expanded into a
// full Solution by Evaluate; heterogeneous trials, whose surrogate
// underestimates the clamped true energy, are each costed exactly so the
// winner matches a trial-by-trial Evaluate selection.
func (r RandomAdmission) Solve(in Instance) (Solution, error) {
	ctx, err := newEvalCtx(in)
	if err != nil {
		return Solution{}, err
	}
	restarts := r.Restarts
	if restarts == 0 {
		restarts = 8
	}
	its := ctx.items
	n := len(its)

	type trialResult struct {
		ids  []int
		cost float64
	}
	trials, err := conc.ForEach(restarts, r.Workers, func(trial int) (trialResult, error) {
		rng := rand.New(rand.NewSource(r.Seed + int64(trial)))
		perm := rng.Perm(n)
		accepted := make([]bool, n)
		var wTrue int64
		var wEff float64
		var ids []int
		base := ctx.surrogate(wEff)
		for _, pi := range perm {
			it := its[pi]
			if !ctx.fits(float64(wTrue + it.c)) {
				continue
			}
			marginal := ctx.surrogate(wEff+it.ce) - base
			if marginal < it.v {
				ids = append(ids, it.id)
				accepted[pi] = true
				wTrue += it.c
				wEff += it.ce
				base = ctx.surrogate(wEff)
			}
		}
		if ctx.hetero {
			sol, err := ctx.evaluate(ids)
			if err != nil {
				return trialResult{}, err
			}
			return trialResult{ids: ids, cost: sol.Cost}, nil
		}
		// Homogeneous: energy is a function of the true workload alone and
		// the penalty sum below accumulates in task order, exactly as
		// Evaluate would — the trial cost equals the evaluated cost.
		var penalty float64
		for i, it := range its {
			if !accepted[i] {
				penalty += it.v
			}
		}
		return trialResult{ids: ids, cost: ctx.energy(float64(wTrue)) + penalty}, nil
	})
	if err != nil {
		return Solution{}, err
	}

	bestTrial, bestCost := -1, math.Inf(1)
	for i, t := range trials {
		if t.cost < bestCost {
			bestTrial, bestCost = i, t.cost
		}
	}
	if bestTrial < 0 {
		return Solution{}, fmt.Errorf("core: RandomAdmission produced no solution")
	}
	return ctx.evaluate(trials[bestTrial].ids)
}
