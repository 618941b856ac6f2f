package core

import "slices"

// Rounding is the relaxation-and-round solver, the construction style of
// the paper family's E-GREEDY/ROUNDING algorithms.
//
// Relaxation: allow fractional acceptance xᵢ ∈ [0,1]. For the convex
// energy curve the fractional optimum has a water-filling form: process
// tasks in non-increasing penalty density vᵢ/c̃ᵢ and accept fully while the
// density exceeds the marginal energy; the first task whose density falls
// below the marginal energy at its insertion point is accepted
// fractionally, and everything after it is rejected (densities decrease
// while the marginal energy increases).
//
// Rounding: evaluate the integral candidates around the fractional break —
// the floor (fully-accepted prefix), the ceil (prefix plus the whole break
// task, capacity permitting), and the repair (prefix plus the single best
// remaining task that fits) — and return the cheapest, re-costed exactly.
type Rounding struct{}

// Name implements Solver.
func (Rounding) Name() string { return "ROUNDING" }

// Solve implements Solver.
func (Rounding) Solve(in Instance) (Solution, error) {
	ctx, err := newEvalCtx(in)
	if err != nil {
		return Solution{}, err
	}
	its := slices.Clone(ctx.items)
	slices.SortStableFunc(its, func(a, b item) int {
		if a.v*b.ce > b.v*a.ce {
			return -1
		}
		return 0
	})

	// Fractional scan.
	var floor []int
	var wTrue int64
	var wEff float64
	breakIdx := -1
	base := ctx.surrogate(wEff)
	for i, it := range its {
		if !ctx.fits(float64(wTrue + it.c)) {
			continue
		}
		marginal := ctx.surrogate(wEff+it.ce) - base
		if marginal < it.v {
			floor = append(floor, it.id)
			wTrue += it.c
			wEff += it.ce
			base = ctx.surrogate(wEff)
			continue
		}
		// First density below the marginal energy: the fractional break.
		breakIdx = i
		break
	}

	best, err := ctx.evaluate(floor)
	if err != nil {
		return Solution{}, err
	}
	try := func(ids []int) error {
		sol, err := ctx.evaluate(ids)
		if err != nil {
			return nil // over-capacity candidate: skip
		}
		if sol.Cost < best.Cost {
			best = sol
		}
		return nil
	}

	if breakIdx >= 0 {
		// Ceil: round the break task up.
		if ctx.fits(float64(wTrue + its[breakIdx].c)) {
			if err := try(append(append([]int{}, floor...), its[breakIdx].id)); err != nil {
				return Solution{}, err
			}
		}
		// Repair: the single best remaining task that fits and pays for
		// itself the most (largest v − marginal).
		repair, gain := -1, 0.0
		for _, it := range its[breakIdx:] {
			if !ctx.fits(float64(wTrue + it.c)) {
				continue
			}
			g := it.v - (ctx.surrogate(wEff+it.ce) - base)
			if g > gain {
				gain, repair = g, it.id
			}
		}
		if repair >= 0 {
			if err := try(append(append([]int{}, floor...), repair)); err != nil {
				return Solution{}, err
			}
		}
	}

	// The min-knapsack-style anchor: each single task alone (cheap, and
	// protects the ratio when one huge-penalty task dominates).
	for _, it := range its {
		if !ctx.fits(float64(it.c)) {
			continue
		}
		if err := try([]int{it.id}); err != nil {
			return Solution{}, err
		}
	}
	return best, nil
}
