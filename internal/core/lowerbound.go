package core

import "fmt"

// DefaultLowerBoundStates bounds the floor-scaled grid CostLowerBound
// builds: small enough that the bound costs well under a millisecond at
// any capacity width, wide enough that the rounding loss stays a fraction
// of a percent on realistic instances.
const DefaultLowerBoundStates = 1 << 20

// CostLowerBound returns a certified lower bound on the optimal
// MIN-COST-REJECT cost of in, by solving a floor-rounded relaxation
// exactly. Cycles are scaled down by an integer k chosen so the DP grid
// fits maxStates (≤ 0 means DefaultLowerBoundStates); where ApproxDP
// rounds cycles UP to stay feasible (an upper-bound scheme), this rounds
// them DOWN:
//
//	Σᵢ∈A ⌊cᵢ/k⌋ ≤ Σᵢ∈A cᵢ/k ≤ C/k for every truly feasible A,
//
// so every feasible accepted set stays feasible in the scaled grid, and
// since E is non-decreasing on every processor flavour (see speed.Curve),
// E(k·w̃(A)) + Σ_rej v ≤ E(w(A)) + Σ_rej v — the scaled optimum never
// exceeds the true cost of any feasible set, hence is ≤ OPT.
// Tasks whose scaled cycles floor to zero are accepted for free in the
// relaxation (they contribute neither energy nor penalty), which only
// lowers the bound further. With k = 1 the bound equals the exact DP
// optimum. Heterogeneous instances are refused.
func CostLowerBound(in Instance, maxStates int64) (float64, error) {
	if maxStates <= 0 {
		maxStates = DefaultLowerBoundStates
	}
	ctx, err := newPooledEvalCtx(in)
	if err != nil {
		return 0, err
	}
	defer ctx.release()
	if ctx.hetero {
		return 0, ErrHeterogeneous
	}
	cap64 := dpCapacity(ctx.capacity)
	if cap64 < 0 {
		return 0, fmt.Errorf("core: negative DP capacity %d", cap64)
	}
	n := int64(len(ctx.items))
	if n == 0 {
		return ctx.energy(0), nil
	}
	per := maxStates/n - 1
	if per < 1 {
		return 0, fmt.Errorf("core: lower-bound state budget %d too small for %d tasks", maxStates, n)
	}
	k := int64(1)
	if cap64 > per {
		k = (cap64 + per - 1) / per
	}

	// Floor-scale the items, dropping the free (⌊c/k⌋ = 0) ones.
	its := make([]item, 0, n)
	for _, it := range ctx.items {
		sc := it.c / k
		if sc == 0 {
			continue
		}
		its = append(its, item{id: it.id, c: sc, ce: float64(sc), v: it.v})
	}
	if len(its) == 0 {
		return ctx.energy(0), nil
	}

	sc := getDPScratch()
	defer putDPScratch(sc)
	r := dpRun{its: its, cap64: cap64 / k, scale: float64(k)}
	accepted, err := r.solve(sc, dpRow0, ctx.energy)
	if err != nil {
		return 0, err
	}
	acc := make(map[int]bool, len(accepted))
	for _, id := range accepted {
		acc[id] = true
	}
	var wScaled int64
	var pen float64
	for _, it := range its {
		if acc[it.id] {
			wScaled += it.c
		} else {
			pen += it.v
		}
	}
	return ctx.energy(float64(wScaled*k)) + pen, nil
}
