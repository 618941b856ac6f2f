package core

import (
	"fmt"
	"math"
	"slices"

	"dvsreject/internal/conc"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// evalCtx is the per-instance evaluation context every solver builds once
// per Solve and threads through its hot loops. It precomputes everything
// that is constant for the lifetime of one solve but that the Instance
// methods recompute per call:
//
//   - the capacity smax·D (Instance.Fits recomputes it on every
//     feasibility probe);
//   - the Heterogeneous() flag (an O(n) scan the seed code performed
//     inside every surrogateEnergy call, which made S-GREEDY's swap loop
//     O(n³) per iteration);
//   - the flattened items slice and an id→index map shared with Evaluate;
//   - the closed-form coefficients of the energy curve, so E(W) probes on
//     continuous-speed processors are a single math.Pow instead of a full
//     speed.Proc.Assign with its per-call validation and candidate
//     enumeration.
//
// Exactness contract: every ctx method reproduces the corresponding
// Instance method bit for bit (the fast energy path mirrors the float
// operation sequence of speed.Proc.Assign exactly), so solver decisions,
// tie-breaks and branch-and-bound node counts are unchanged by the
// caching. The context is immutable after construction and safe for
// concurrent use by parallel search workers; callers must not mutate
// items (sorting solvers clone it first).
type evalCtx struct {
	in       Instance
	items    []item      // instance order; treat as read-only
	idx      map[int]int // task ID → position in in.Tasks.Tasks
	idxGrown int         // largest instance idx has served (see init)

	// Struct-of-arrays mirror of items (same order, same values):
	// contiguous columns for the scan-heavy solver loops — penalty sums,
	// marginal-energy sweeps, per-trial admission passes — which walk one
	// or two of the three fields at a time and waste two thirds of every
	// cache line on the array-of-structs layout at n = 10⁴–10⁵. The
	// columns carry the identical floats; nothing arithmetic changes.
	colC  []int64   // true cycles (task.Columns)
	colCE []float64 // effective cycles ci·ρi^(1/α)
	colV  []float64 // rejection penalties (task.Columns)

	deadline float64
	capacity float64 // smax·D in true cycles
	capSlack float64 // capacity·(1+1e-9), the Fits acceptance threshold

	hetero bool // any task with a non-trivial power coefficient
	convex bool // surrogate energy curve is convex (strong B&B pruning)

	// fastEnergy marks instances whose energy curve has the closed
	// continuous-speed form below (Levels == nil, dormant disabled —
	// leakage is fine). Every other processor probes curve: discrete
	// ladders through the assignDiscrete mirror with the per-level powers
	// memoized (from the ProcProfile's table when one is attached, else
	// seeded per solve), dormant continuous processors through
	// speed.Proc.Energy — bit-identical either way.
	fastEnergy bool
	smin, smax float64
	pind       float64 // static power Pind
	coeff      float64 // dynamic power coefficient
	alpha      float64 // dynamic power exponent
	idleTotal  float64 // energy of an entirely idle frame, Pind·D
	hetDenom   float64 // D^(α−1), the heterogeneous surrogate denominator

	// fastPow routes the α ∈ {2, 3} dynamic-power exponentiations through
	// integer multiplies instead of math.Pow. Opt-in via Instance.FastPow
	// only: the products differ from math.Pow in the last ulp on some
	// inputs, so the default path never takes it (a tolerance test, not
	// the bit-identity corpus, covers it).
	fastPow bool

	curve speed.Curve // E(w) when !fastEnergy
}

// newEvalCtx validates the instance and builds its evaluation context.
func newEvalCtx(in Instance) (*evalCtx, error) {
	c := &evalCtx{}
	if err := c.init(in); err != nil {
		return nil, err
	}
	return c, nil
}

// newPooledEvalCtx is newEvalCtx drawing the context (and its items slice
// and id→index map) from ctxPool; the caller must release() it after the
// Solution has been built, and must not let the Solution alias context
// state (evaluate never does).
func newPooledEvalCtx(in Instance) (*evalCtx, error) {
	c := ctxPool.Load().Get().(*evalCtx)
	if err := c.init(in); err != nil {
		ctxPool.Load().Put(c)
		return nil, err
	}
	return c, nil
}

// release returns a pooled context; c must not be used afterwards.
func (c *evalCtx) release() { ctxPool.Load().Put(c) }

// init validates the instance and (re)builds the context in place, reusing
// the items backing array and the id→index map across pool generations.
// Every field is assigned unconditionally, so a recycled context is
// indistinguishable from a fresh one. When the instance carries a matching
// ProcProfile, the processor re-validation and the processor-level
// derivation are taken from the profile; both paths assign bit-identical
// values.
func (c *evalCtx) init(in Instance) error {
	pp := in.procProfile
	if pp != nil && !pp.matches(in.Proc) {
		pp = nil
	}
	if err := in.Tasks.Validate(); err != nil {
		return err
	}
	if pp == nil {
		if err := in.Proc.Validate(); err != nil {
			return err
		}
	}
	hetero := in.Heterogeneous()
	if err := in.checkCombination(hetero); err != nil {
		return err
	}
	m := in.Proc.Model

	items := c.items[:0]
	alpha := m.Alpha
	cols := in.Tasks.AppendColumns(task.Columns{
		Cycles:    growI64(c.colC, len(in.Tasks.Tasks))[:0],
		Penalties: growF64(c.colV, len(in.Tasks.Tasks))[:0],
	})
	c.colC, c.colV = cols.Cycles, cols.Penalties
	colCE := growF64(c.colCE, len(in.Tasks.Tasks))[:0]
	for _, t := range in.Tasks.Tasks {
		it := item{id: t.ID, c: t.Cycles, v: t.Penalty}
		// math.Pow(1, y) is exactly 1 and x·1 is exactly x, so homogeneous
		// tasks skip the Pow call without changing a single bit.
		if pc := t.PowerCoeff(); pc == 1 {
			it.ce = float64(t.Cycles)
		} else {
			it.ce = float64(t.Cycles) * math.Pow(pc, 1/alpha)
		}
		items = append(items, it)
		colCE = append(colCE, it.ce)
	}
	c.colCE = colCE
	// Reuse the pooled index map only while its high-water size stays
	// near the current instance: clear() walks the whole bucket array, so
	// a map grown by one 100k-task solve would cost every later small
	// solve an O(100k) clear.
	if n := len(in.Tasks.Tasks); c.idx == nil || c.idxGrown > 4*n+1024 {
		c.idx = make(map[int]int, n)
		c.idxGrown = n
	} else {
		clear(c.idx)
		if n > c.idxGrown {
			c.idxGrown = n
		}
	}
	for i, t := range in.Tasks.Tasks {
		c.idx[t.ID] = i
	}

	c.in = in
	c.items = items
	c.deadline = in.Tasks.Deadline
	c.hetero = hetero
	if pp != nil {
		c.capacity = pp.maxSpeed * in.Tasks.Deadline // == in.Capacity()
		c.convex = pp.convex
		c.fastEnergy = pp.fastEnergy
		c.smin = pp.smin
		c.smax = pp.smax
		c.pind = pp.pind
		c.coeff = pp.coeff
		c.alpha = pp.alpha
	} else {
		c.capacity = in.Capacity()
		c.convex = in.convexEnergy()
		c.fastEnergy = in.Proc.Levels == nil && !in.Proc.DormantEnable
		c.smin = in.Proc.SMin
		c.smax = in.Proc.SMax
		c.pind = m.Static()
		c.coeff = m.Coeff
		c.alpha = m.Alpha
	}
	c.capSlack = c.capacity * (1 + 1e-9)
	c.idleTotal = c.pind * c.deadline
	c.hetDenom = math.Pow(c.deadline, c.alpha-1)
	c.fastPow = in.FastPow && (c.alpha == 2 || c.alpha == 3)
	switch {
	case c.fastEnergy:
		c.curve = speed.Curve{}
	case pp != nil && pp.hasPd:
		c.curve = speed.NewCurveWithPd(in.Proc, c.deadline, pp.pd)
	default:
		c.curve = speed.NewCurve(in.Proc, c.deadline)
	}
	return nil
}

// fits reports whether a workload of w true cycles is schedulable;
// identical to Instance.Fits with the capacity cached.
func (c *evalCtx) fits(w float64) bool {
	return w <= c.capSlack
}

// energy returns E(w), the minimum energy of executing a homogeneous
// workload of w true cycles in one frame, +Inf when infeasible. On the
// fast path it mirrors speed.Proc.Assign's continuous, dormant-disable
// branch operation for operation (same checks, same clamping, same order
// of float arithmetic), so the result is bit-identical to
// Instance.energyOf.
func (c *evalCtx) energy(w float64) float64 {
	if !c.fastEnergy {
		return c.curve.Energy(w)
	}
	// w != w catches NaN, w < 0 catches -Inf, the capacity check catches
	// +Inf — the same rejections speed.Proc.Assign makes, without the
	// math.IsNaN/IsInf calls.
	if w < 0 || w != w {
		return math.Inf(1)
	}
	if w > c.capSlack {
		return math.Inf(1)
	}
	if w == 0 {
		return c.idleTotal
	}
	// speed.Proc.assignContinuous, dormant-disable branch: run at the
	// slowest deadline- and hardware-feasible speed. The branches compute
	// the same values as the math.Min(math.Max(·)) clamp there — the
	// operands are never NaN and never signed zeros of opposite sign.
	s := w / c.deadline
	if s < c.smin {
		s = c.smin
	}
	if s > c.smax {
		s = c.smax
	}
	exec := w / s
	var dyn float64
	if s > 0 {
		dyn = c.coeff * c.pow(s)
	}
	return (c.pind+dyn)*exec + c.pind*(c.deadline-exec)
}

// pow is s^α — math.Pow on the default path, repeated multiplication when
// the instance opted into FastPow and α is the integer 2 or 3. The fast
// products can differ from math.Pow in the final ulp, which is why they
// are never the default.
func (c *evalCtx) pow(s float64) float64 {
	if c.fastPow {
		if c.alpha == 3 {
			return s * s * s
		}
		return s * s
	}
	return math.Pow(s, c.alpha)
}

// surrogate estimates the energy of an accepted set from its effective
// workload, as Instance.surrogateEnergy does, with the heterogeneity scan
// and the D^(α−1) power precomputed away.
func (c *evalCtx) surrogate(wEff float64) float64 {
	if !c.hetero {
		return c.energy(wEff)
	}
	return c.coeff * c.pow(wEff) / c.hetDenom
}

// evaluate builds the full Solution for an accepted ID set, exactly as the
// package-level Evaluate does, skipping only the instance re-validation
// (done once at context construction) and reusing the cached id→index map
// and heterogeneity flag.
func (c *evalCtx) evaluate(accepted []int) (Solution, error) {
	return evaluateIndexed(c.in, c.idx, c.hetero, accepted)
}

// minCostWorkload scans workloads 0..len(pen)−1 (pen[w] = minimum rejected
// penalty at accepted workload exactly w, +Inf when unreachable) for the
// level minimizing energy(w·scale) + pen[w], returning (-1, +Inf) when no
// level is feasible. It replaces the DP solvers' full-width energy sweep.
//
// The energy curve is non-decreasing in w on every processor flavour (see
// speed.Curve), so two exact prunings apply without changing the selected
// argmin or its tie-breaks:
//
//   - dominance: a level whose penalty is no better than an already-scanned
//     cheaper-energy level can never win strictly, so only the strictly
//     decreasing penalty frontier is costed (the same frontier
//     ParetoFrontier keeps);
//   - cut-off: once the energy alone reaches the incumbent cost,
//     no larger workload can strictly improve (penalties are ≥ 0), ending
//     the scan early.
//
// Together with the O(1) closed-form energy evaluation this turns the
// final scan from width × Assign into |frontier| × Pow.
func minCostWorkload(pen []float64, energy func(float64) float64, scale float64) (int64, float64) {
	bestW, bestCost := int64(-1), math.Inf(1)
	frontier := math.Inf(1) // min penalty among costed levels so far
	for w := 0; w < len(pen); w++ {
		fw := pen[w]
		if math.IsInf(fw, 1) {
			continue
		}
		if fw >= frontier {
			continue // dominated by an earlier, cheaper-energy level
		}
		frontier = fw
		e := energy(float64(w) * scale)
		if c := e + fw; c < bestCost {
			bestCost, bestW = c, int64(w)
		}
		if e >= bestCost && bestW >= 0 {
			break // energy alone already matches the incumbent
		}
	}
	return bestW, bestCost
}

// minCostWorkloadParallel is minCostWorkload with the frontier compaction
// chunked over the conc pool. Each chunk collects its local strictly-
// decreasing penalty frontier — a superset of the global frontier
// restricted to the chunk — without touching the energy curve; a serial
// finishing pass then walks the candidates in ascending workload order
// applying exactly the serial scan's global frontier filter, energy
// costing, incumbent update and cut-off.
// The argmin and its tie-breaks therefore match minCostWorkload exactly;
// only the O(width) penalty-row sweep runs concurrently.
func minCostWorkloadParallel(pen []float64, energy func(float64) float64, scale float64, workers int) (int64, float64) {
	n := len(pen)
	chunk := (n + workers - 1) / workers
	if chunk < 1 {
		chunk = 1
	}
	nch := (n + chunk - 1) / chunk
	cands, _ := conc.ForEach(nch, workers, func(k int) ([]int64, error) {
		lo, hi := k*chunk, min((k+1)*chunk, n)
		var out []int64
		frontier := math.Inf(1)
		for w := lo; w < hi; w++ {
			fw := pen[w]
			if math.IsInf(fw, 1) || fw >= frontier {
				continue
			}
			frontier = fw
			out = append(out, int64(w))
		}
		return out, nil
	})

	bestW, bestCost := int64(-1), math.Inf(1)
	frontier := math.Inf(1)
	for _, ws := range cands {
		for _, w := range ws {
			fw := pen[w]
			if fw >= frontier {
				continue
			}
			frontier = fw
			e := energy(float64(w) * scale)
			if c := e + fw; c < bestCost {
				bestCost, bestW = c, w
			}
			if e >= bestCost && bestW >= 0 {
				return bestW, bestCost
			}
		}
	}
	return bestW, bestCost
}

// evaluateIndexed is the shared implementation of Evaluate and
// evalCtx.evaluate: it assumes the instance has been validated and that
// idx maps every task ID to its position in in.Tasks.Tasks.
func evaluateIndexed(in Instance, idx map[int]int, hetero bool, accepted []int) (Solution, error) {
	// The membership set is a pooled position-indexed flag slice instead of
	// the seed's per-call map: idx maps every (unique, validated) task ID to
	// its position, so flags[idx[id]] is the same predicate as the map
	// lookup. Scratch comes from a global pool per call — evaluateIndexed
	// runs concurrently on parallel search workers — and is zeroed before
	// release.
	sc := evalScratchPool.Load().Get().(*evalScratch)
	n := len(in.Tasks.Tasks)
	sc.flags = growBool(sc.flags, n)
	flags := sc.flags
	release := func() {
		clear(flags)
		evalScratchPool.Load().Put(sc)
	}
	for _, id := range accepted {
		p, ok := idx[id]
		if !ok {
			release()
			return Solution{}, fmt.Errorf("core: accepted ID %d not in task set", id)
		}
		if flags[p] {
			release()
			return Solution{}, fmt.Errorf("core: accepted ID %d listed twice", id)
		}
		flags[p] = true
	}

	sol := Solution{}
	// Output slices are right-sized up front (their lengths are implied by
	// the validated accepted set); empty sets keep the seed's nil slices.
	if len(accepted) > 0 {
		sol.Accepted = make([]int, 0, len(accepted))
	}
	if n > len(accepted) {
		sol.Rejected = make([]int, 0, n-len(accepted))
	}
	cycles := growI64(sc.cycles, len(accepted))[:0]
	rhos := growF64(sc.rhos, len(accepted))[:0]
	for i, t := range in.Tasks.Tasks {
		if flags[i] {
			sol.Accepted = append(sol.Accepted, t.ID)
			cycles = append(cycles, t.Cycles)
			rhos = append(rhos, t.PowerCoeff())
		} else {
			sol.Rejected = append(sol.Rejected, t.ID)
			sol.Penalty += t.Penalty
		}
	}
	sc.cycles, sc.rhos = cycles, rhos
	defer release()
	slices.Sort(sol.Accepted)
	slices.Sort(sol.Rejected)

	if hetero {
		h, err := speed.AssignHeterogeneous(in.Proc.Model, cycles, rhos, in.Tasks.Deadline, in.Proc.SMax)
		if err != nil {
			return Solution{}, err
		}
		sol.PerTaskSpeeds = h.Speeds
		sol.Energy = h.Energy
		var busy float64
		for _, t := range h.Times {
			busy += t
		}
		sol.Assignment = speed.Assignment{Total: h.Energy, ExecEnergy: h.Energy}
		if len(h.Times) > 0 {
			sol.Assignment.LoTime = busy
		}
	} else {
		var w int64
		for _, c := range cycles {
			w += c
		}
		a, err := in.Proc.Assign(float64(w), in.Tasks.Deadline)
		if err != nil {
			return Solution{}, err
		}
		sol.Assignment = a
		sol.Energy = a.Total
	}
	sol.Cost = sol.Energy + sol.Penalty
	return sol, nil
}
