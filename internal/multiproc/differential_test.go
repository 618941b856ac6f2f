package multiproc

// Differential corpus pinning the context/incremental-search overhaul to
// the pre-overhaul code shape: refLTFReject, refLTFRejectLS and
// refExhaustive below are verbatim copies of the seed implementations
// (direct speed.Proc.Energy probes, per-move full re-pricing, serial
// branch-and-bound), and every optimized solver must reproduce their
// solutions bit for bit — checked through the shared verify oracles
// (oracle.EqualPartitionSolutions + oracle.CheckPartition), and the
// exhaustive search additionally by explored node count.
//
// refHeteroPartition and refHeteroLowerBound are verbatim copies of the
// first HETERO-PART and HeteroLowerBound (dense per-processor probes,
// refinement until a whole pass applies no move, fresh ownership lists
// per probe, two energy calls per grid marginal); the optimized versions
// must match them bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dvsreject/internal/core"
	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
	"dvsreject/internal/verify/oracle"
)

// refLTFReject is the seed LTFReject.Solve.
func refLTFReject(in Instance) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	tasks := append([]task.Task(nil), in.Tasks.Tasks...)
	sort.SliceStable(tasks, func(a, b int) bool {
		return tasks[a].Penalty*float64(tasks[b].Cycles) > tasks[b].Penalty*float64(tasks[a].Cycles)
	})
	loads := make([]int64, in.M)
	assign := Assignment{}
	for _, t := range tasks {
		m := 0
		for i := 1; i < in.M; i++ {
			if loads[i] < loads[m] {
				m = i
			}
		}
		w := loads[m]
		if float64(w+t.Cycles) > in.capacity()*(1+1e-9) {
			continue
		}
		marginal := in.Proc.Energy(float64(w+t.Cycles), in.Tasks.Deadline) -
			in.Proc.Energy(float64(w), in.Tasks.Deadline)
		if marginal < t.Penalty {
			assign[t.ID] = m
			loads[m] += t.Cycles
		}
	}
	return Evaluate(in, assign)
}

// refLTFRejectLS is the seed LTFRejectLS.Solve: every move probe re-prices
// the touched processors with a full speed.Proc.Energy call.
func refLTFRejectLS(g LTFRejectLS, in Instance) (Solution, error) {
	seed, err := refLTFReject(in)
	if err != nil {
		return Solution{}, err
	}
	assign := Assignment{}
	loads := make([]int64, in.M)
	for m, ids := range seed.PerProc {
		for _, id := range ids {
			assign[id] = m
			t, _ := in.Tasks.ByID(id)
			loads[m] += t.Cycles
		}
	}
	limit := g.MaxIterations
	if limit == 0 {
		limit = 10 * len(in.Tasks.Tasks)
	}
	d := in.Tasks.Deadline
	energyAt := func(w int64) float64 { return in.Proc.Energy(float64(w), d) }

	for iter := 0; iter < limit; iter++ {
		bestGain := 1e-9
		var apply func()
		for _, t := range in.Tasks.Tasks {
			t := t
			cur, accepted := assign[t.ID]
			if accepted {
				gain := energyAt(loads[cur]) - energyAt(loads[cur]-t.Cycles) - t.Penalty
				if gain > bestGain {
					bestGain = gain
					m := cur
					apply = func() { delete(assign, t.ID); loads[m] -= t.Cycles }
				}
				for m := 0; m < in.M; m++ {
					if m == cur || float64(loads[m]+t.Cycles) > in.capacity()*(1+1e-9) {
						continue
					}
					gain := energyAt(loads[cur]) + energyAt(loads[m]) -
						energyAt(loads[cur]-t.Cycles) - energyAt(loads[m]+t.Cycles)
					if gain > bestGain {
						bestGain = gain
						from, to := cur, m
						apply = func() {
							assign[t.ID] = to
							loads[from] -= t.Cycles
							loads[to] += t.Cycles
						}
					}
				}
			} else {
				for m := 0; m < in.M; m++ {
					if float64(loads[m]+t.Cycles) > in.capacity()*(1+1e-9) {
						continue
					}
					gain := t.Penalty - (energyAt(loads[m]+t.Cycles) - energyAt(loads[m]))
					if gain > bestGain {
						bestGain = gain
						to := m
						apply = func() { assign[t.ID] = to; loads[to] += t.Cycles }
					}
				}
			}
		}

		if !g.DisableExchange {
			for _, out := range in.Tasks.Tasks {
				mo, okOut := assign[out.ID]
				if !okOut {
					continue
				}
				for _, inc := range in.Tasks.Tasks {
					if _, accepted := assign[inc.ID]; accepted {
						continue
					}
					for m := 0; m < in.M; m++ {
						load := loads[m]
						if m == mo {
							load -= out.Cycles
						}
						if float64(load+inc.Cycles) > in.capacity()*(1+1e-9) {
							continue
						}
						gain := inc.Penalty - out.Penalty
						if m == mo {
							gain += energyAt(loads[mo]) - energyAt(load+inc.Cycles)
						} else {
							gain += energyAt(loads[mo]) - energyAt(loads[mo]-out.Cycles)
							gain += energyAt(loads[m]) - energyAt(loads[m]+inc.Cycles)
						}
						if gain > bestGain {
							bestGain = gain
							out, inc, mo, m := out, inc, mo, m
							apply = func() {
								delete(assign, out.ID)
								loads[mo] -= out.Cycles
								assign[inc.ID] = m
								loads[m] += inc.Cycles
							}
						}
					}
				}
			}
		}

		if !g.DisableExchange {
			for _, a := range in.Tasks.Tasks {
				ma, okA := assign[a.ID]
				if !okA {
					continue
				}
				for _, b := range in.Tasks.Tasks {
					mb, okB := assign[b.ID]
					if !okB || a.ID >= b.ID || ma == mb {
						continue
					}
					newA := loads[ma] - a.Cycles + b.Cycles
					newB := loads[mb] - b.Cycles + a.Cycles
					if float64(newA) > in.capacity()*(1+1e-9) || float64(newB) > in.capacity()*(1+1e-9) {
						continue
					}
					gain := energyAt(loads[ma]) + energyAt(loads[mb]) - energyAt(newA) - energyAt(newB)
					if gain > bestGain {
						bestGain = gain
						a, b, ma, mb, newA, newB := a, b, ma, mb, newA, newB
						apply = func() {
							assign[a.ID], assign[b.ID] = mb, ma
							loads[ma], loads[mb] = newA, newB
						}
					}
				}
			}
		}

		if apply == nil {
			break
		}
		apply()
	}
	return Evaluate(in, assign)
}

// refExhaustive is the seed Exhaustive.Solve, instrumented with the same
// node counter the optimized SolveStats reports (one count per dfs entry).
func refExhaustive(e Exhaustive, in Instance) (Solution, int64, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, 0, err
	}
	n := len(in.Tasks.Tasks)
	limit := e.MaxAssignments
	if limit == 0 {
		limit = 5_000_000
	}
	total := int64(1)
	for i := 0; i < n; i++ {
		total *= int64(in.M + 1)
		if total > limit {
			return Solution{}, 0, fmt.Errorf("multiproc: exhaustive search needs %d+ assignments, over the limit %d", total, limit)
		}
	}

	d := in.Tasks.Deadline
	loads := make([]int64, in.M)
	choice := make([]int, n)
	bestCost := math.Inf(1)
	var best Assignment
	var nodes int64

	var dfs func(i int, penalty float64)
	dfs = func(i int, penalty float64) {
		nodes++
		var energy float64
		for _, w := range loads {
			energy += in.Proc.Energy(float64(w), d)
		}
		if energy+penalty >= bestCost-1e-12 {
			return
		}
		if i == n {
			bestCost = energy + penalty
			best = Assignment{}
			for j, c := range choice {
				if c >= 0 {
					best[in.Tasks.Tasks[j].ID] = c
				}
			}
			return
		}
		t := in.Tasks.Tasks[i]
		triedEmpty := false
		for m := 0; m < in.M; m++ {
			if loads[m] == 0 {
				if triedEmpty {
					continue
				}
				triedEmpty = true
			}
			if float64(loads[m]+t.Cycles) > in.capacity()*(1+1e-9) {
				continue
			}
			loads[m] += t.Cycles
			choice[i] = m
			dfs(i+1, penalty)
			loads[m] -= t.Cycles
		}
		choice[i] = -1
		dfs(i+1, penalty+t.Penalty)
	}
	dfs(0, 0)

	if best == nil && !math.IsInf(bestCost, 1) {
		best = Assignment{}
	}
	if math.IsInf(bestCost, 1) {
		return Solution{}, nodes, fmt.Errorf("multiproc: exhaustive search found no solution")
	}
	sol, err := Evaluate(in, best)
	return sol, nodes, err
}

// refHeteroPartition is the first HeteroPartition.Solve.
func refHeteroPartition(h HeteroPartition, in HeteroInstance) (Solution, error) {
	c, err := newHeteroCtx(in)
	if err != nil {
		return Solution{}, err
	}
	tasks := in.Tasks.Tasks
	mCount := in.M()

	// One ProcProfile per distinct profile, shared across that group's DP
	// solves.
	profiles := make([]*core.ProcProfile, mCount)
	for m := range profiles {
		if g := c.typeOf[m]; g != m {
			profiles[m] = profiles[g]
			continue
		}
		pp, err := core.NewProcProfile(in.Procs[m])
		if err != nil {
			return Solution{}, err
		}
		profiles[m] = pp
	}

	// Per-processor optimal accept/reject via the rejection DP. Empty
	// ownership short-circuits to the idle-energy solution.
	dp := core.DP{MaxStates: h.MaxStates}
	solveProc := func(m int, owned []int) (core.Solution, error) {
		if len(owned) == 0 {
			idle := c.energyAt(m, 0)
			return core.Solution{Energy: idle, Cost: idle}, nil
		}
		sub := task.Set{Deadline: in.Tasks.Deadline, Tasks: make([]task.Task, 0, len(owned))}
		for _, ti := range owned {
			sub.Tasks = append(sub.Tasks, tasks[ti])
		}
		ci := core.Instance{Tasks: sub, Proc: in.Procs[m]}.WithProcProfile(profiles[m])
		return dp.Solve(ci)
	}

	// refine solves each processor's DP on the seed ownership, then runs
	// bounded best-improvement move passes — migrating one task's ownership
	// re-solves only the two touched processors. On small instances each
	// pass also tries pairwise owner swaps (the coordinated exchanges that
	// single migrations cannot reach); the O(n²) swap scan is skipped past
	// heteroSwapLimit tasks to keep large serve solves at O(n·M) DP calls.
	passes := h.MaxPasses
	if passes == 0 {
		passes = 4
	}
	doSwaps := len(tasks) <= heteroSwapLimit
	refine := func(owner []int) ([]core.Solution, float64, error) {
		owned := make([][]int, mCount)
		for ti, m := range owner {
			owned[m] = append(owned[m], ti)
		}
		procSols := make([]core.Solution, mCount)
		for m := 0; m < mCount; m++ {
			sol, err := solveProc(m, owned[m])
			if err != nil {
				return nil, 0, err
			}
			procSols[m] = sol
		}
		for pass := 0; pass < passes; pass++ {
			improved := false
			for ti := range tasks {
				from := owner[ti]
				fromOwned := slices.DeleteFunc(slices.Clone(owned[from]), func(x int) bool { return x == ti })
				fromSol, err := solveProc(from, fromOwned)
				if err != nil {
					return nil, 0, err
				}
				bestDelta := -1e-9
				bestTo := -1
				var bestToSol core.Solution
				for to := 0; to < mCount; to++ {
					if to == from {
						continue
					}
					toSol, err := solveProc(to, append(slices.Clone(owned[to]), ti))
					if err != nil {
						return nil, 0, err
					}
					delta := (fromSol.Cost + toSol.Cost) - (procSols[from].Cost + procSols[to].Cost)
					if delta < bestDelta {
						bestDelta, bestTo, bestToSol = delta, to, toSol
					}
				}
				if bestTo >= 0 {
					owned[bestTo] = append(owned[bestTo], ti)
					owned[from] = fromOwned
					owner[ti] = bestTo
					procSols[from], procSols[bestTo] = fromSol, bestToSol
					improved = true
				}
			}
			for ti := 0; doSwaps && ti < len(tasks); ti++ {
				for tj := ti + 1; tj < len(tasks); tj++ {
					pa, pb := owner[ti], owner[tj]
					if pa == pb {
						continue
					}
					aOwned := slices.DeleteFunc(slices.Clone(owned[pa]), func(x int) bool { return x == ti })
					aOwned = append(aOwned, tj)
					bOwned := slices.DeleteFunc(slices.Clone(owned[pb]), func(x int) bool { return x == tj })
					bOwned = append(bOwned, ti)
					aSol, err := solveProc(pa, aOwned)
					if err != nil {
						return nil, 0, err
					}
					bSol, err := solveProc(pb, bOwned)
					if err != nil {
						return nil, 0, err
					}
					delta := (aSol.Cost + bSol.Cost) - (procSols[pa].Cost + procSols[pb].Cost)
					if delta < -1e-9 {
						owned[pa], owned[pb] = aOwned, bOwned
						owner[ti], owner[tj] = pb, pa
						procSols[pa], procSols[pb] = aSol, bSol
						improved = true
					}
				}
			}
			if !improved {
				break
			}
		}
		total := 0.0
		for _, s := range procSols {
			total += s.Cost
		}
		return procSols, total, nil
	}

	// Seed A: tasks in non-increasing penalty density, each owned by the
	// processor with the smallest projected normalized load (load+c)/cap —
	// the big.LITTLE generalization of least-loaded. Ownership never
	// rejects; the DP does, so overflow here is fine.
	ord := make([]int, len(tasks))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool {
		return tasks[ord[a]].Penalty*float64(tasks[ord[b]].Cycles) >
			tasks[ord[b]].Penalty*float64(tasks[ord[a]].Cycles)
	})
	caps := make([]float64, mCount)
	for m, p := range in.Procs {
		caps[m] = math.Max(p.Capacity(in.Tasks.Deadline), 1)
	}
	normalizedOwner := func(owner []int, loads []int64, ti int) int {
		t := tasks[ti]
		best, bestScore := 0, math.Inf(1)
		for m := 0; m < mCount; m++ {
			score := float64(loads[m]+t.Cycles) / caps[m]
			if score < bestScore {
				best, bestScore = m, score
			}
		}
		owner[ti] = best
		loads[best] += t.Cycles
		return best
	}
	ownerA := make([]int, len(tasks))
	loadsA := make([]int64, mCount)
	for _, ti := range ord {
		normalizedOwner(ownerA, loadsA, ti)
	}
	solsA, costA, err := refine(ownerA)
	if err != nil {
		return Solution{}, err
	}

	// Seed B: ownership from the local-search solution — accepted tasks
	// keep their processor, rejected ones fall back to the normalized-load
	// rule in density order. The per-processor DP can always reproduce the
	// LS accept set, so the refined cost never exceeds HETERO-LS.
	byID := make(map[int]int, len(tasks))
	for i, t := range tasks {
		byID[t.ID] = i
	}
	lsSol, err := (HeteroLTFRejectLS{}).Solve(in)
	if err != nil {
		return Solution{}, err
	}
	ownerB := make([]int, len(tasks))
	for i := range ownerB {
		ownerB[i] = -1
	}
	loadsB := make([]int64, mCount)
	for m, ids := range lsSol.PerProc {
		for _, id := range ids {
			ti := byID[id]
			ownerB[ti] = m
			loadsB[m] += tasks[ti].Cycles
		}
	}
	for _, ti := range ord {
		if ownerB[ti] < 0 {
			normalizedOwner(ownerB, loadsB, ti)
		}
	}
	solsB, costB, err := refine(ownerB)
	if err != nil {
		return Solution{}, err
	}

	// Seed C: sequential DP cascade — processors in descending capacity
	// order each run the rejection DP on the still-unowned tasks and keep
	// what they accept; the leftovers fall back to the normalized-load
	// rule. Finds tight packings the load-balancing seeds miss.
	procOrd := make([]int, mCount)
	for i := range procOrd {
		procOrd[i] = i
	}
	sort.Slice(procOrd, func(a, b int) bool {
		ca, cb := caps[procOrd[a]], caps[procOrd[b]]
		if ca != cb {
			return ca > cb
		}
		return procOrd[a] < procOrd[b]
	})
	ownerC := make([]int, len(tasks))
	for i := range ownerC {
		ownerC[i] = -1
	}
	remaining := make([]int, len(tasks))
	copy(remaining, ord)
	for _, m := range procOrd {
		if len(remaining) == 0 {
			break
		}
		sol, err := solveProc(m, remaining)
		if err != nil {
			return Solution{}, err
		}
		next := remaining[:0]
		accepted := make(map[int]bool, len(sol.Accepted))
		for _, id := range sol.Accepted {
			accepted[id] = true
		}
		for _, ti := range remaining {
			if accepted[tasks[ti].ID] {
				ownerC[ti] = m
			} else {
				next = append(next, ti)
			}
		}
		remaining = next
	}
	loadsC := make([]int64, mCount)
	for ti, m := range ownerC {
		if m >= 0 {
			loadsC[m] += tasks[ti].Cycles
		}
	}
	for _, ti := range ord {
		if ownerC[ti] < 0 {
			normalizedOwner(ownerC, loadsC, ti)
		}
	}
	solsC, costC, err := refine(ownerC)
	if err != nil {
		return Solution{}, err
	}

	procSols, bestCost := solsA, costA
	if costB < bestCost {
		procSols, bestCost = solsB, costB
	}
	if costC < bestCost {
		procSols = solsC
	}

	// Assemble the assignment from each processor's accepted set.
	assign := Assignment{}
	for m := 0; m < mCount; m++ {
		for _, id := range procSols[m].Accepted {
			assign[id] = m
		}
	}
	return EvaluateHetero(in, assign)
}

// refHeteroLowerBound is the first HeteroLowerBound.
func refHeteroLowerBound(in HeteroInstance, maxStates int64) (float64, error) {
	if maxStates <= 0 {
		maxStates = DefaultHeteroLowerBoundStates
	}
	if err := in.Validate(); err != nil {
		return 0, err
	}
	d := in.Tasks.Deadline
	mCount := in.M()
	for m, p := range in.Procs {
		if p.Levels != nil || p.DormantEnable {
			return 0, fmt.Errorf("multiproc: hetero lower bound needs monotone convex energy curves (continuous speeds, dormancy disabled; processor %d)", m)
		}
	}

	// Integer per-processor capacities, with the evaluator's float slack.
	caps := make([]int64, mCount)
	var capTotal int64
	for m, p := range in.Procs {
		caps[m] = int64(math.Floor(p.Capacity(d) * (1 + 1e-9)))
		if caps[m] < 0 {
			return 0, fmt.Errorf("multiproc: negative capacity on processor %d", m)
		}
		capTotal += caps[m]
	}

	curves := make([]speed.Curve, mCount)
	idle := 0.0
	for m, p := range in.Procs {
		curves[m] = speed.NewCurve(p, d)
		idle += curves[m].Energy(0)
	}

	n := int64(len(in.Tasks.Tasks))
	if n == 0 {
		return idle, nil
	}
	per := maxStates/n - 1
	if per < 1 {
		return 0, fmt.Errorf("multiproc: hetero lower-bound state budget %d too small for %d tasks", maxStates, n)
	}
	k := int64(1)
	if capTotal > per {
		k = (capTotal + per - 1) / per
	}

	// Pooled grid curve: ascending merge of per-processor marginal
	// increments over the scaled grid, suffix-min'd so each stream is
	// genuinely nondecreasing (float jitter can otherwise let the greedy
	// merge pick a non-minimal prefix selection).
	lims := make([]int64, mCount)
	var gridT int64
	for m := range caps {
		lims[m] = caps[m] / k
		gridT += lims[m]
	}
	margs := make([][]float64, mCount)
	for m := range margs {
		mg := make([]float64, lims[m])
		for j := int64(0); j < lims[m]; j++ {
			mg[j] = curves[m].Energy(float64((j+1)*k)) - curves[m].Energy(float64(j*k))
		}
		for j := int64(len(mg)) - 2; j >= 0; j-- {
			if mg[j] > mg[j+1] {
				mg[j] = mg[j+1]
			}
		}
		margs[m] = mg
	}
	phi := make([]float64, gridT+1)
	phi[0] = idle
	heads := make([]int64, mCount)
	for t := int64(1); t <= gridT; t++ {
		best, bestV := -1, math.Inf(1)
		for m := 0; m < mCount; m++ {
			if heads[m] < lims[m] && margs[m][heads[m]] < bestV {
				best, bestV = m, margs[m][heads[m]]
			}
		}
		heads[best]++
		phi[t] = phi[t-1] + bestV
	}

	// Floor-scale the tasks, dropping the free (⌊c/k⌋ = 0) ones.
	type scaled struct {
		c int64
		v float64
	}
	items := make([]scaled, 0, n)
	var sumScaled int64
	for _, t := range in.Tasks.Tasks {
		sc := t.Cycles / k
		if sc == 0 {
			continue
		}
		items = append(items, scaled{c: sc, v: t.Penalty})
		sumScaled += sc
	}
	if len(items) == 0 {
		return idle, nil
	}

	// Accept/reject DP against the pooled curve. The reachable scaled
	// total is bounded by gridT + (M−1): a feasible real split floors to
	// Σ_m j_m ≥ t − (M−1), so any heavier t is infeasible for real too.
	shift := int64(mCount - 1)
	width := sumScaled
	if width > gridT+shift {
		width = gridT + shift
	}
	dp := make([]float64, width+1)
	for t := int64(1); t <= width; t++ {
		dp[t] = math.Inf(1)
	}
	for _, it := range items {
		for t := width; t >= 0; t-- {
			keep := math.Inf(1)
			if t >= it.c && !math.IsInf(dp[t-it.c], 1) {
				keep = dp[t-it.c]
			}
			rej := dp[t] + it.v
			if keep < rej {
				dp[t] = keep
			} else {
				dp[t] = rej
			}
		}
	}
	best := math.Inf(1)
	for t := int64(0); t <= width; t++ {
		if math.IsInf(dp[t], 1) {
			continue
		}
		g := t - shift
		if g < 0 {
			g = 0
		}
		if g > gridT {
			g = gridT
		}
		if v := phi[g] + dp[t]; v < best {
			best = v
		}
	}
	return best, nil
}

// diffCorpus builds the ~30-instance corpus: every processor flavour the
// energy Curve must handle (ideal cubic, leaky continuous, discrete
// levels, dormant-enable) across M ∈ {1..4} and contested loads.
func diffCorpus(t *testing.T) []Instance {
	t.Helper()
	procs := []speed.Proc{
		{Model: power.Cubic(), SMax: 1},
		{Model: power.XScale(), SMin: 0.15, SMax: 1},
		{Model: power.XScale(), Levels: power.XScaleLevels()},
		{Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 0.4},
	}
	var corpus []Instance
	for seed := int64(0); seed < 8; seed++ {
		for pi, proc := range procs {
			n := 6 + int(seed)%4 + pi
			set, err := gen.Frame(rand.New(rand.NewSource(seed*37+int64(pi))), gen.Config{
				N: n, Load: 1.5 + float64(seed%4), Deadline: 40,
				Penalty: gen.PenaltyModel(seed % 3),
			})
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, Instance{Tasks: set, Proc: proc, M: 1 + int(seed+int64(pi))%4})
		}
	}
	return corpus
}

// partitionOf adapts Solution to the shared oracle's mirror struct.
func partitionOf(s Solution) oracle.PartitionSolution {
	return oracle.PartitionSolution{
		PerProc: s.PerProc, Rejected: s.Rejected,
		Energies: s.Energies, Energy: s.Energy, Penalty: s.Penalty, Cost: s.Cost,
	}
}

// mustEqualSolutions compares two solutions through the shared verify
// oracles: field-for-field bitwise equality, plus a from-scratch partition
// recompute of the optimized solver's output.
func mustEqualSolutions(t *testing.T, in Instance, label string, got, want Solution) {
	t.Helper()
	if err := oracle.EqualPartitionSolutions(partitionOf(got), partitionOf(want)); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	if err := oracle.CheckPartition(in.Tasks, in.Proc, in.M, partitionOf(got)); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

func TestDifferentialLTFReject(t *testing.T) {
	for i, in := range diffCorpus(t) {
		want, err := refLTFReject(in)
		if err != nil {
			t.Fatalf("instance %d: reference: %v", i, err)
		}
		got, err := (LTFReject{}).Solve(in)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		mustEqualSolutions(t, in, fmtLabel("LTFReject", i), got, want)
	}
}

func TestDifferentialLTFRejectLS(t *testing.T) {
	for i, in := range diffCorpus(t) {
		for _, g := range []LTFRejectLS{{}, {DisableExchange: true}, {MaxIterations: 3}} {
			want, err := refLTFRejectLS(g, in)
			if err != nil {
				t.Fatalf("instance %d: reference: %v", i, err)
			}
			got, err := g.Solve(in)
			if err != nil {
				t.Fatalf("instance %d: %v", i, err)
			}
			mustEqualSolutions(t, in, fmtLabel("LTFRejectLS", i), got, want)
		}
	}
}

func TestDifferentialExhaustive(t *testing.T) {
	for i, in := range diffCorpus(t) {
		if len(in.Tasks.Tasks) > 9 && in.M > 2 {
			in.Tasks.Tasks = in.Tasks.Tasks[:9] // keep the search tractable
		}
		want, wantNodes, err := refExhaustive(Exhaustive{}, in)
		if err != nil {
			t.Fatalf("instance %d: reference: %v", i, err)
		}
		got, gotNodes, err := (Exhaustive{}).SolveStats(in)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		mustEqualSolutions(t, in, fmtLabel("Exhaustive", i), got, want)
		if gotNodes != wantNodes {
			t.Errorf("instance %d: explored %d nodes, reference %d", i, gotNodes, wantNodes)
		}

		par, err := (Exhaustive{Workers: 4}).Solve(in)
		if err != nil {
			t.Fatalf("instance %d: parallel: %v", i, err)
		}
		mustEqualSolutions(t, in, fmtLabel("ExhaustiveParallel", i), par, want)
	}
}

func fmtLabel(name string, i int) string { return fmt.Sprintf("%s/%d", name, i) }

// heteroDiffCorpus builds the HETERO-PART differential corpus: hetero-herd
// shaped big.LITTLE frames (cubic and XScale, M = 2 and 4, n = 16–24),
// an all-equal vector, dormant-enable and discrete-ladder processors (the
// sparse kernel's unpruned rows), frames past heteroSwapLimit (migrations
// only), a 20,000-cycle deadline, and a task no little core can hold.
func heteroDiffCorpus(t *testing.T) []HeteroInstance {
	t.Helper()
	frame := func(seed int64, n int, load, deadline float64) task.Set {
		set, err := gen.Frame(rand.New(rand.NewSource(seed)), gen.Config{
			N: n, Load: load, Deadline: deadline, Penalty: gen.PenaltyModel(seed % 3),
		})
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	bigLittle := func(m int, xscale bool) []speed.Proc {
		procs, err := gen.BigLittle(gen.BigLittleConfig{NBig: m / 2, NLittle: m / 2, XScale: xscale})
		if err != nil {
			t.Fatal(err)
		}
		return procs
	}
	capacity := func(procs []speed.Proc) float64 {
		total := 0.0
		for _, p := range procs {
			total += p.SMax
		}
		return total
	}

	var corpus []HeteroInstance
	for seed := int64(0); seed < 16; seed++ {
		m := 2 + 2*int(seed%2)
		procs := bigLittle(m, seed%4 >= 2)
		n := 16 + int(seed)%9
		corpus = append(corpus, HeteroInstance{Tasks: frame(seed, n, 1.2*capacity(procs), 0), Procs: procs})
	}

	cubic := speed.Proc{Model: power.Cubic(), SMax: 1}
	corpus = append(corpus, HeteroInstance{Tasks: frame(20, 18, 3.6, 0), Procs: []speed.Proc{cubic, cubic, cubic}})

	ladder := speed.Proc{Model: power.XScale(), Levels: power.XScaleLevels()}
	dormant := speed.Proc{Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 0.4}
	little := speed.Proc{Model: power.XScale(), SMax: 0.5}
	for seed := int64(21); seed < 25; seed++ {
		corpus = append(corpus,
			HeteroInstance{Tasks: frame(seed, 14, 2, 0), Procs: []speed.Proc{ladder, little}},
			HeteroInstance{Tasks: frame(seed, 14, 2, 0), Procs: []speed.Proc{dormant, little, dormant}},
		)
	}

	for seed := int64(30); seed < 32; seed++ {
		procs := bigLittle(2, seed%2 == 1)
		corpus = append(corpus, HeteroInstance{Tasks: frame(seed, 70+10*int(seed%3), 1.2*capacity(procs), 0), Procs: procs})
	}

	procs := bigLittle(2, false)
	corpus = append(corpus, HeteroInstance{Tasks: frame(40, 12, 1.2*capacity(procs), 20000), Procs: procs})

	wide := frame(41, 16, 1.2*capacity(procs), 0)
	wide.Tasks[0].Cycles = 600 // over a little core's 500-cycle capacity
	corpus = append(corpus, HeteroInstance{Tasks: wide, Procs: procs})
	return corpus
}

// TestDifferentialHeteroPartition pins HETERO-PART and its certified lower
// bound to the reference copies bit for bit: cost, energy and penalty
// bits, per-processor placement, the rejected set and the bound's bits.
func TestDifferentialHeteroPartition(t *testing.T) {
	for i, in := range heteroDiffCorpus(t) {
		want, err := refHeteroPartition(HeteroPartition{}, in)
		if err != nil {
			t.Fatalf("instance %d: reference: %v", i, err)
		}
		got, err := (HeteroPartition{}).Solve(in)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		mustEqualHetero(t, in, fmtLabel("HeteroPartition", i), got, want)

		wantLB, wantErr := refHeteroLowerBound(in, 0)
		gotLB, gotErr := HeteroLowerBound(in, 0)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("instance %d: lower bound error %v, reference %v", i, gotErr, wantErr)
		} else if math.Float64bits(gotLB) != math.Float64bits(wantLB) {
			t.Errorf("instance %d: lower bound %v, reference %v", i, gotLB, wantLB)
		}
	}
}
