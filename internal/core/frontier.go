package core

import (
	"fmt"
	"math"
)

// FrontierPoint is one Pareto-optimal energy/penalty trade: no admission
// decision achieves both lower energy and lower penalty.
type FrontierPoint struct {
	Workload int64   // accepted cycles
	Energy   float64 // E(Workload)
	Penalty  float64 // minimum rejected penalty at that workload
	Cost     float64 // Energy + Penalty
}

// ParetoFrontier computes the exact energy-versus-penalty Pareto frontier
// of the instance from one DP pass: for every achievable accepted workload
// w the minimum rejected penalty f(w), reduced to the non-dominated points
// (energy strictly increasing, penalty strictly decreasing along the
// curve). The overall optimum is the frontier point with minimum Cost.
//
// This is the curve a deployer inspects to price SLAs: it answers "how
// much energy does the next unit of admitted work cost, and what penalty
// does it save" without committing to a single trade-off. Homogeneous
// instances only (as with DP).
func ParetoFrontier(in Instance) ([]FrontierPoint, error) {
	ctx, err := newEvalCtx(in)
	if err != nil {
		return nil, err
	}
	if ctx.hetero {
		return nil, ErrHeterogeneous
	}
	its := ctx.items
	cap64 := dpCapacity(ctx.capacity)
	if work := int64(len(its)) * (cap64 + 1); work > DefaultMaxDPStates {
		return nil, fmt.Errorf("core: frontier needs %d states, over the limit %d", work, DefaultMaxDPStates)
	}
	width := cap64 + 1

	// The rows run through the shared double-buffered kernel (dpkernel.go);
	// its per-cell select equals the seed's math.Min(reject, accept) bit
	// for bit (no NaNs enter the table and tied values share their bits).
	// The take bits it records go to a single reused row, ignored here.
	prev := make([]float64, width)
	cur := make([]float64, width)
	for w := range prev {
		prev[w] = math.Inf(1)
		cur[w] = math.Inf(1)
	}
	prev[0] = 0
	bits := make([]uint64, (width+63)/64)
	var reach int64
	for _, it := range its {
		if it.c > cap64 {
			dpRejectRange(prev, cur, it.v, 0, reach+1)
			prev, cur = cur, prev
			continue
		}
		reach = min(reach+it.c, cap64)
		dpRowRange(prev, cur, bits, it.c, it.v, 0, reach+1)
		prev, cur = cur, prev
	}
	f := prev

	// Non-dominated sweep: walk w upward (energy non-decreasing) and keep
	// points that strictly lower the penalty.
	var frontier []FrontierPoint
	bestPenalty := math.Inf(1)
	for w := int64(0); w < width; w++ {
		if math.IsInf(f[w], 1) || f[w] >= bestPenalty-costEps {
			continue
		}
		e := ctx.energy(float64(w))
		if math.IsInf(e, 1) {
			continue
		}
		bestPenalty = f[w]
		frontier = append(frontier, FrontierPoint{
			Workload: w,
			Energy:   e,
			Penalty:  f[w],
			Cost:     e + f[w],
		})
	}

	// E(w) can plateau (e.g. dormant-mode break-even regions): collapse
	// runs of equal energy to their lowest-penalty point, so every kept
	// point is strictly non-dominated.
	out := frontier[:0]
	for _, p := range frontier {
		if n := len(out); n > 0 && p.Energy <= out[n-1].Energy+costEps {
			out[n-1] = p // same energy, strictly lower penalty: replace
			continue
		}
		out = append(out, p)
	}
	return out, nil
}
