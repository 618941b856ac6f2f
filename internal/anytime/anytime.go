// Package anytime is the metaheuristic solver tier: an island-parallel
// genetic / large-neighborhood search over packed accept-bitmask genomes
// that streams an improving energy-vs-penalty Pareto front and can be
// stopped at any deadline. It exists for the regime the exact tiers
// refuse — grids past the dense and sparse capacity walls, or solves
// whose estimated cost exceeds a serve SLA — where it returns the best
// feasible front point found so far plus a certified optimality-gap bound
// from core.CostLowerBound.
//
// Fitness is evaluated through core.BatchEval's struct-of-arrays columns
// by the branch-free EvaluateFitness kernel, so population scoring is a
// performance feature of the existing evaluation machinery, not a
// parallel reimplementation of the cost model: every energy probe and
// every final Solution is bit-identical to what the in-package solvers
// would compute for the same accepted set.
//
// Determinism contract (documented alongside DP-SPARSE's): with Budget
// unset and a fixed Seed, results are bit-identical for any Workers
// value. Islands evolve between generation barriers with island-local
// RNGs; migration, archive merges and the early-optimality exit happen
// serially at the barriers in island order; the shared atomic incumbent
// is published concurrently but only read at barriers, after every
// publish of the generation has completed. Budget/deadline runs stop at a
// generation barrier chosen by wall time and are the documented
// exception: anytime by nature, reproducible only in the fixed-generation
// configuration (which is what the "ANYTIME" registry name uses).
package anytime

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"dvsreject/internal/conc"
	"dvsreject/internal/core"
)

// DefaultSGreedySeedMax is the largest instance the S-GREEDY incumbent is
// computed for as a population seed. Beyond it the O(n²) swap scan would
// eat a serve budget whole (≈10 ms at n = 1000), while the density greedy
// seed stays and is almost always as good.
const DefaultSGreedySeedMax = 512

// DefaultGenerations is the fixed-generation default used when neither a
// budget nor an explicit generation count is set — the deterministic
// registry configuration.
const DefaultGenerations = 64

// Solver is the anytime Pareto search. The zero value is usable and
// deterministic; see the package comment for the determinism contract.
type Solver struct {
	// Seed seeds the island RNGs; 0 means 1.
	Seed int64
	// Workers bounds the island fan-out on the conc pool; 0 means
	// GOMAXPROCS, 1 forces serial. Results are identical for any value.
	Workers int
	// Islands is the independent population count; 0 means 4.
	Islands int
	// Pop is the per-island population size; 0 means 64, minimum 4.
	Pop int
	// Generations bounds the generation count. 0 means DefaultGenerations
	// when no deadline applies, unlimited (deadline-terminated) otherwise.
	Generations int
	// Budget, when > 0, stops the search at the first generation barrier
	// past this wall-clock allowance (seeding and the lower bound are
	// inside the allowance). Budget runs are not reproducible.
	Budget time.Duration
	// MaxFront budgets the non-dominated archive; 0 means 48.
	MaxFront int
	// SGreedySeedMax overrides DefaultSGreedySeedMax; < 0 disables the
	// S-GREEDY seed entirely.
	SGreedySeedMax int
	// GapStates budgets the core.CostLowerBound grid; 0 means
	// core.DefaultLowerBoundStates, < 0 skips the bound (LowerBound and
	// Gap come back NaN).
	GapStates int64
	// MigrateEvery is the generation interval of the ring migration;
	// 0 means 8.
	MigrateEvery int
	// LocalMoves bounds the per-generation local-descent moves applied to
	// each island's best genome; 0 means 4, < 0 disables the descent.
	LocalMoves int
}

// Result is the outcome of one anytime solve.
type Result struct {
	// Best is the cheapest front point — the Solution Solve returns. It
	// is always an element of Front.
	Best core.Solution
	// Front is the streamed archive re-costed exactly: mutually
	// non-dominated (energy strictly ascending, penalty strictly
	// descending), every point feasible.
	Front []core.Solution
	// Generations counts the completed generation barriers.
	Generations int
	// LowerBound is the certified lower bound on the optimal cost from
	// core.CostLowerBound; NaN when unavailable (heterogeneous instances,
	// a state budget too small for the task count, or GapStates < 0).
	LowerBound float64
	// Gap bounds the suboptimality: (Best.Cost − LowerBound)/Best.Cost,
	// clamped at 0; NaN when LowerBound is. Gap = 0 certifies optimality.
	Gap float64
}

// Name implements core.Solver.
func (s Solver) Name() string { return "ANYTIME" }

func init() {
	core.RegisterSolver("ANYTIME", func(spec core.SolverSpec) (core.Solver, error) {
		return Solver{Seed: spec.Seed, Workers: spec.Workers}, nil
	})
}

// Solve implements core.Solver, returning the best front point.
func (s Solver) Solve(in core.Instance) (core.Solution, error) {
	res, err := s.SolveUntil(context.Background(), in)
	return res.Best, err
}

// SolveUntil runs the search until the generation bound, the Budget, or
// ctx's deadline/cancellation — whichever stops it first. At least one
// full evaluation pass always completes, so a non-error result carries a
// feasible Best and a non-empty Front even under an expired budget.
func (s Solver) SolveUntil(ctx context.Context, in core.Instance) (Result, error) {
	deadline, hasDL := ctx.Deadline()
	if s.Budget > 0 {
		if bd := time.Now().Add(s.Budget); !hasDL || bd.Before(deadline) {
			deadline, hasDL = bd, true
		}
	}

	be, err := core.NewBatchEval(in)
	if err != nil {
		return Result{}, err
	}
	defer be.Release()
	if be.Hetero() {
		return Result{}, core.ErrHeterogeneous
	}

	e := newEnv(be, s)
	lb := math.NaN()
	if s.GapStates >= 0 {
		if v, lberr := core.CostLowerBound(in, s.GapStates); lberr == nil {
			lb = v
		}
	}

	arch := newArchive(s.MaxFront)
	res := Result{LowerBound: lb}
	if e.n == 0 {
		sol, err := be.Evaluate(nil)
		if err != nil {
			return Result{}, err
		}
		res.Best, res.Front = sol, []core.Solution{sol}
		res.Gap = gapOf(sol.Cost, lb)
		return res, nil
	}

	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	nIslands := s.Islands
	if nIslands <= 0 {
		nIslands = 4
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	migrate := s.MigrateEvery
	if migrate <= 0 {
		migrate = 8
	}
	isl := make([]*island, nIslands)
	seeds := e.seedGenomes(in, s)
	for i := range isl {
		isl[i] = newIsland(e, rand.New(rand.NewSource(seed+int64(i)*1000003)), seeds)
	}

	var inc incumbent
	inc.bits.Store(math.Float64bits(math.Inf(1)))

	gens := s.Generations
	if gens <= 0 {
		if hasDL {
			gens = math.MaxInt
		} else {
			gens = DefaultGenerations
		}
	}
	for gen := 0; gen < gens; gen++ {
		// The first generation runs unconditionally: it is what turns the
		// seeds into an evaluated, repaired, archived front.
		if gen > 0 {
			if ctx.Err() != nil {
				break
			}
			if hasDL && !time.Now().Before(deadline) {
				break
			}
		}
		conc.ForEach(len(isl), workers, func(i int) (struct{}, error) {
			isl[i].step(e, &inc)
			return struct{}{}, nil
		})
		// Barrier: every island's generation is complete. Merge the
		// evaluated generation into the archive and migrate in island
		// order — serial, so results do not depend on worker scheduling.
		for _, is := range isl {
			for g := 0; g < e.pop; g++ {
				arch.insert(is.en[g], e.totalPen-is.pen[g], is.cost[g], is.done[g*e.stride:(g+1)*e.stride])
			}
		}
		if nIslands > 1 && (gen+1)%migrate == 0 {
			for i, is := range isl {
				dst := isl[(i+1)%nIslands]
				copy(dst.cur[(e.pop-1)*e.stride:e.pop*e.stride], is.done[is.bestIdx*e.stride:(is.bestIdx+1)*e.stride])
			}
		}
		res.Generations++
		// Early optimality exit: the merged incumbent has met the
		// certified lower bound.
		if !math.IsNaN(lb) && inc.best() <= lb*(1+1e-9) {
			break
		}
	}

	res.Best, res.Front, err = e.extract(arch)
	if err != nil {
		return Result{}, err
	}
	res.Gap = gapOf(res.Best.Cost, lb)
	return res, nil
}

func gapOf(best, lb float64) float64 {
	if math.IsNaN(lb) {
		return math.NaN()
	}
	if best <= 0 {
		return 0
	}
	return math.Max(0, (best-lb)/best)
}

// incumbent is the shared atomic best cost, CAS-min over the float bit
// pattern (monotone for non-negative floats and +Inf) — the same pattern
// Exhaustive's prefix-parallel search uses. Islands publish concurrently
// during a generation; the solver reads it only at barriers.
type incumbent struct{ bits atomic.Uint64 }

func (inc *incumbent) publish(c float64) {
	nb := math.Float64bits(c)
	for {
		ob := inc.bits.Load()
		if math.Float64frombits(ob) <= c {
			return
		}
		if inc.bits.CompareAndSwap(ob, nb) {
			return
		}
	}
}

func (inc *incumbent) best() float64 { return math.Float64frombits(inc.bits.Load()) }

// env is the read-only per-solve state shared by every island.
type env struct {
	be       *core.BatchEval
	n        int
	stride   int
	colC     []int64
	colV     []float64
	totalPen float64
	pop      int
	elite    int
	lsMoves  int
	// rejOrder lists column positions by ascending penalty per cycle —
	// the cheapest capacity to free first. Infeasible genomes are
	// repaired by clearing accepted bits in this order.
	rejOrder []int
}

func newEnv(be *core.BatchEval, s Solver) *env {
	colC, colV := be.Columns()
	e := &env{
		be:       be,
		n:        be.Len(),
		stride:   genomeWords(be.Len()),
		colC:     colC,
		colV:     colV,
		totalPen: be.TotalPenalty(),
		pop:      s.Pop,
		elite:    2,
		lsMoves:  s.LocalMoves,
	}
	if e.pop <= 0 {
		e.pop = 64
	}
	if e.pop < 4 {
		e.pop = 4
	}
	if e.lsMoves == 0 {
		e.lsMoves = 4
	}
	e.rejOrder = make([]int, e.n)
	for i := range e.rejOrder {
		e.rejOrder[i] = i
	}
	slices.SortStableFunc(e.rejOrder, func(a, b int) int {
		// v/c ascending without the division: va·cb < vb·ca.
		if e.colV[a]*float64(e.colC[b]) < e.colV[b]*float64(e.colC[a]) {
			return -1
		}
		return 0
	})
	return e
}

// seedGenomes builds the deterministic seed genomes every island starts
// from: the density greedy incumbent, the S-GREEDY incumbent on small
// instances, accept-all (repaired at first evaluation) and reject-all.
func (e *env) seedGenomes(in core.Instance, s Solver) [][]uint64 {
	idx := make(map[int]int, e.n)
	for i := 0; i < e.n; i++ {
		idx[e.be.ID(i)] = i
	}
	toGenome := func(sol core.Solution, err error) []uint64 {
		if err != nil {
			return nil
		}
		g := make([]uint64, e.stride)
		for _, id := range sol.Accepted {
			bitSet(g, idx[id])
		}
		return g
	}
	var seeds [][]uint64
	if g := toGenome(core.GreedyDensity{}.Solve(in)); g != nil {
		seeds = append(seeds, g)
	}
	sgMax := s.SGreedySeedMax
	if sgMax == 0 {
		sgMax = DefaultSGreedySeedMax
	}
	if sgMax > 0 && e.n <= sgMax {
		if g := toGenome(core.GreedyMarginal{}.Solve(in)); g != nil {
			seeds = append(seeds, g)
		}
	}
	all := make([]uint64, e.stride)
	for i := 0; i < e.n; i++ {
		bitSet(all, i)
	}
	seeds = append(seeds, all, make([]uint64, e.stride))
	return seeds
}

// island is one independent population. Between barriers it touches only
// its own state (and the publish-only incumbent), so islands are safe to
// step concurrently and the result is independent of worker scheduling.
type island struct {
	rng *rand.Rand
	// cur is the generation about to be evaluated; done is the previous
	// fully evaluated generation, whose w/pen/en/cost rows are what the
	// barrier merges into the archive.
	cur, done []uint64
	w         []int64
	pen       []float64 // accepted penalty per genome (kernel order)
	en        []float64 // E(w) per genome
	cost      []float64
	order     []int
	bestIdx   int
}

func newIsland(e *env, rng *rand.Rand, seeds [][]uint64) *island {
	is := &island{
		rng:  rng,
		cur:  make([]uint64, e.pop*e.stride),
		done: make([]uint64, e.pop*e.stride),
		w:    make([]int64, e.pop),
		pen:  make([]float64, e.pop),
		en:   make([]float64, e.pop),
		cost: make([]float64, e.pop),
	}
	is.order = make([]int, e.pop)
	// Tail bits past n stay zero so whole-word crossover never smuggles
	// phantom tasks around.
	tail := uint64(1)<<(uint(e.n)&63) - 1
	if e.n&63 == 0 {
		tail = ^uint64(0)
	}
	for g := 0; g < e.pop; g++ {
		dst := is.cur[g*e.stride : (g+1)*e.stride]
		if g < len(seeds) {
			copy(dst, seeds[g])
			continue
		}
		// Random genomes at five bit densities (1/8 … 7/8), one word per
		// 64 bits instead of a Bernoulli draw per bit — initialization is
		// inside the serve budget.
		for k := range dst {
			r := rng.Uint64()
			switch g % 5 {
			case 1:
				r &= rng.Uint64()
			case 2:
				r |= rng.Uint64()
			case 3:
				r &= rng.Uint64() & rng.Uint64()
			case 4:
				r |= rng.Uint64() | rng.Uint64()
			}
			dst[k] = r
		}
		dst[e.stride-1] &= tail
	}
	return is
}

// step evaluates, repairs, locally improves, and breeds one generation.
func (is *island) step(e *env, inc *incumbent) {
	EvaluateFitness(e.colC, e.colV, is.cur, e.stride, is.w, is.pen)
	for g := 0; g < e.pop; g++ {
		gen := is.cur[g*e.stride : (g+1)*e.stride]
		is.repair(e, gen, g)
		is.en[g] = e.be.Energy(float64(is.w[g]))
		is.cost[g] = is.en[g] + (e.totalPen - is.pen[g])
	}

	// Rank ascending by cost, ties by slot for determinism.
	for i := range is.order {
		is.order[i] = i
	}
	sort.Slice(is.order, func(a, b int) bool {
		oa, ob := is.order[a], is.order[b]
		if is.cost[oa] != is.cost[ob] {
			return is.cost[oa] < is.cost[ob]
		}
		return oa < ob
	})
	best := is.order[0]

	// Memetic descent on the island best: strict single-toggle moves.
	if e.lsMoves > 0 {
		if is.descend(e, best) {
			sort.Slice(is.order, func(a, b int) bool {
				oa, ob := is.order[a], is.order[b]
				if is.cost[oa] != is.cost[ob] {
					return is.cost[oa] < is.cost[ob]
				}
				return oa < ob
			})
			best = is.order[0]
		}
	}
	is.bestIdx = best
	inc.publish(is.cost[best])

	// Breed the next generation into done, then swap: after the swap,
	// done holds this evaluated generation (for the barrier merge) and
	// cur holds the offspring.
	next := is.done
	for s := 0; s < e.elite && s < e.pop; s++ {
		src := is.order[s]
		copy(next[s*e.stride:(s+1)*e.stride], is.cur[src*e.stride:(src+1)*e.stride])
	}
	for s := e.elite; s < e.pop; s++ {
		pa := is.tournament()
		pb := is.tournament()
		child := next[s*e.stride : (s+1)*e.stride]
		ga := is.cur[pa*e.stride : (pa+1)*e.stride]
		gb := is.cur[pb*e.stride : (pb+1)*e.stride]
		for k := range child {
			mask := is.rng.Uint64()
			child[k] = ga[k]&mask | gb[k]&^mask
		}
		for flips := 1 + is.rng.Intn(3); flips > 0; flips-- {
			bitFlip(child, is.rng.Intn(e.n))
		}
	}
	is.cur, is.done = next, is.cur
}

// repair clears accepted bits in rejection order (cheapest penalty per
// cycle first) until genome g fits the capacity, keeping w and pen
// incremental. Clearing everything always fits, so repair terminates.
func (is *island) repair(e *env, gen []uint64, g int) {
	if e.be.Fits(float64(is.w[g])) {
		return
	}
	for _, p := range e.rejOrder {
		if bitGet(gen, p) {
			bitClear(gen, p)
			is.w[g] -= e.colC[p]
			is.pen[g] -= e.colV[p]
			if e.be.Fits(float64(is.w[g])) {
				return
			}
		}
	}
}

// tournament picks the cheaper of two uniformly drawn slots (ties to the
// lower slot).
func (is *island) tournament() int {
	a := is.rng.Intn(len(is.cost))
	b := is.rng.Intn(len(is.cost))
	if is.cost[b] < is.cost[a] || (is.cost[b] == is.cost[a] && b < a) {
		return b
	}
	return a
}

// descend applies up to lsMoves strict best-improvement single toggles to
// genome slot g, updating its fitness rows in place. Each pass scans all
// n toggles through the closed-form energy probes; the scan order makes
// tie-breaks deterministic. Reports whether any move was applied.
func (is *island) descend(e *env, g int) bool {
	gen := is.cur[g*e.stride : (g+1)*e.stride]
	improved := false
	for move := 0; move < e.lsMoves; move++ {
		base := is.en[g]
		bestD, bestI := 0.0, -1
		for i := 0; i < e.n; i++ {
			var d float64
			if bitGet(gen, i) {
				d = e.be.Energy(float64(is.w[g]-e.colC[i])) - base + e.colV[i]
			} else {
				nw := float64(is.w[g] + e.colC[i])
				if !e.be.Fits(nw) {
					continue
				}
				d = e.be.Energy(nw) - base - e.colV[i]
			}
			if d < bestD {
				bestD, bestI = d, i
			}
		}
		if bestI < 0 {
			return improved
		}
		if bitGet(gen, bestI) {
			bitClear(gen, bestI)
			is.w[g] -= e.colC[bestI]
			is.pen[g] -= e.colV[bestI]
		} else {
			bitSet(gen, bestI)
			is.w[g] += e.colC[bestI]
			is.pen[g] += e.colV[bestI]
		}
		is.en[g] = e.be.Energy(float64(is.w[g]))
		is.cost[g] = is.en[g] + (e.totalPen - is.pen[g])
		improved = true
	}
	return improved
}

// extract re-costs the archived genomes exactly through core.Evaluate,
// re-filters dominance on the exact values, and picks the cheapest point
// as Best. The kernel costs steering the search may differ from the exact
// ones by summation-order ulps; the returned front never does.
func (e *env) extract(arch *archive) (core.Solution, []core.Solution, error) {
	ids := make([]int, 0, e.n)
	sols := make([]core.Solution, 0, len(arch.pts))
	for _, pt := range arch.pts {
		ids = ids[:0]
		for i := 0; i < e.n; i++ {
			if bitGet(pt.genome, i) {
				ids = append(ids, e.be.ID(i))
			}
		}
		sol, err := e.be.Evaluate(ids)
		if err != nil {
			return core.Solution{}, nil, err
		}
		sols = append(sols, sol)
	}
	// Exact dominance sweep: energy ascending, then penalty ascending, so
	// the first point of an energy run has the best penalty; keep the
	// strictly descending penalty frontier.
	sort.Slice(sols, func(a, b int) bool {
		if sols[a].Energy != sols[b].Energy {
			return sols[a].Energy < sols[b].Energy
		}
		return sols[a].Penalty < sols[b].Penalty
	})
	front := sols[:0]
	minPen := math.Inf(1)
	for _, sol := range sols {
		if sol.Penalty >= minPen {
			continue
		}
		minPen = sol.Penalty
		front = append(front, sol)
	}
	bi := 0
	for i, sol := range front {
		if sol.Cost < front[bi].Cost {
			bi = i
		}
	}
	return front[bi], front, nil
}
