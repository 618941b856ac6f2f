// The heterogeneous solvers: M processors with distinct speed/power
// profiles. Each one reduces, on an all-equal profile vector, to the
// identical-processor rule it generalizes — the constructive pass's
// least-loaded processor that fits is the least-loaded processor, and the
// exhaustive search's per-profile symmetry reduction is the single "first
// empty processor" rule — so the identical-processor API in multiproc.go
// runs these solvers on AsHetero(in).

package multiproc

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"dvsreject/internal/conc"
	"dvsreject/internal/core"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// HeteroInstance is a rejection problem on M processors with per-processor
// speed/power profiles. M is implicit: len(Procs).
type HeteroInstance struct {
	Tasks task.Set
	Procs []speed.Proc
}

// M returns the processor count.
func (in HeteroInstance) M() int { return len(in.Procs) }

// Validate checks the components. Per-task power coefficients remain
// unsupported in the multiprocessor extension (heterogeneity lives in the
// processor vector here, not the tasks).
func (in HeteroInstance) Validate() error {
	if err := in.Tasks.Validate(); err != nil {
		return err
	}
	if len(in.Procs) == 0 {
		return fmt.Errorf("multiproc: hetero instance has no processors")
	}
	for m, p := range in.Procs {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("multiproc: processor %d: %w", m, err)
		}
	}
	for _, t := range in.Tasks.Tasks {
		if t.PowerCoeff() != 1 {
			return fmt.Errorf("multiproc: task %d has heterogeneous power coefficient", t.ID)
		}
	}
	return nil
}

// AsHetero lifts an identical-processor instance into the heterogeneous
// form: M copies of the same profile.
func AsHetero(in Instance) HeteroInstance {
	procs := make([]speed.Proc, in.M)
	for m := range procs {
		procs[m] = in.Proc
	}
	return HeteroInstance{Tasks: in.Tasks, Procs: procs}
}

// procsEqual reports bit-level equality of two processor descriptions —
// the grouping relation of the exhaustive search's symmetry reduction.
func procsEqual(a, b speed.Proc) bool {
	return a.Model == b.Model &&
		a.SMin == b.SMin && a.SMax == b.SMax &&
		a.DormantEnable == b.DormantEnable && a.Esw == b.Esw &&
		slices.Equal(a.Levels, b.Levels)
}

// heteroCtx is the per-solve evaluation context: the validated instance,
// one energy curve per processor (a speed.Curve, so an E(w) probe on a
// continuous-speed processor is one math.Pow instead of a full
// speed.Proc.Assign, with the same bits) and the groups of bit-equal
// profiles. Immutable after construction; safe for concurrent use by
// parallel search workers.
type heteroCtx struct {
	in     HeteroInstance
	curves []speed.Curve
	// typeOf[m] is the index of the first processor bit-equal to m — the
	// symmetry group key (typeOf[m] == m for group leaders).
	typeOf []int
}

func newHeteroCtx(in HeteroInstance) (*heteroCtx, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	c := &heteroCtx{
		in:     in,
		curves: make([]speed.Curve, in.M()),
		typeOf: make([]int, in.M()),
	}
	for i, p := range in.Procs {
		c.curves[i] = speed.NewCurve(p, in.Tasks.Deadline)
		c.typeOf[i] = i
		for j := 0; j < i; j++ {
			if procsEqual(in.Procs[j], p) {
				c.typeOf[i] = c.typeOf[j]
				break
			}
		}
	}
	return c, nil
}

// energyAt returns processor m's frame energy at an integer workload,
// identical to in.Procs[m].Energy(float64(w), in.Tasks.Deadline).
func (c *heteroCtx) energyAt(m int, w int64) float64 { return c.curves[m].Energy(float64(w)) }

// overloads reports whether w cycles exceed processor m's capacity, with
// the float slack speed.Proc.Assign applies.
func (c *heteroCtx) overloads(m int, w int64) bool { return !c.curves[m].Fits(float64(w)) }

// redundant reports whether placing a task on processor m only permutes
// another branch of the exhaustive search: m is empty and so is an
// earlier processor of the same profile.
func (c *heteroCtx) redundant(loads []int64, m int) bool {
	if loads[m] != 0 {
		return false
	}
	for j := 0; j < m; j++ {
		if loads[j] == 0 && c.typeOf[j] == c.typeOf[m] {
			return true
		}
	}
	return false
}

// assignment converts a position vector into the public Assignment map.
func (c *heteroCtx) assignment(pos []int) Assignment {
	assign := Assignment{}
	for i, m := range pos {
		if m >= 0 {
			assign[c.in.Tasks.Tasks[i].ID] = m
		}
	}
	return assign
}

// EvaluateHetero costs a full assignment exactly on the heterogeneous
// instance. Tasks absent from the map (or mapped to a negative index) are
// rejected. It errors on out-of-range processor indices, on assignments
// referencing task IDs the instance does not contain, and when any
// processor exceeds its own capacity.
func EvaluateHetero(in HeteroInstance, assign Assignment) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	return evaluate(in, assign)
}

// evaluate is EvaluateHetero on an already validated instance.
func evaluate(in HeteroInstance, assign Assignment) (Solution, error) {
	mCount := in.M()
	sol := Solution{
		PerProc:  make([][]int, mCount),
		Energies: make([]float64, mCount),
	}
	loads := make([]int64, mCount)
	known := 0
	for _, t := range in.Tasks.Tasks {
		m, ok := assign[t.ID]
		if ok {
			known++
		}
		if !ok || m < 0 {
			sol.Rejected = append(sol.Rejected, t.ID)
			sol.Penalty += t.Penalty
			continue
		}
		if m >= mCount {
			return Solution{}, fmt.Errorf("multiproc: task %d assigned to processor %d of %d", t.ID, m, mCount)
		}
		sol.PerProc[m] = append(sol.PerProc[m], t.ID)
		loads[m] += t.Cycles
	}
	if known != len(assign) {
		return Solution{}, fmt.Errorf("multiproc: assignment references %d unknown task IDs", len(assign)-known)
	}
	for m := 0; m < mCount; m++ {
		slices.Sort(sol.PerProc[m])
		a, err := in.Procs[m].Assign(float64(loads[m]), in.Tasks.Deadline)
		if err != nil {
			return Solution{}, fmt.Errorf("multiproc: processor %d: %w", m, err)
		}
		sol.Energies[m] = a.Total
		sol.Energy += a.Total
	}
	slices.Sort(sol.Rejected)
	sol.Cost = sol.Energy + sol.Penalty
	return sol, nil
}

// HeteroSolver is one heterogeneous admission/partitioning algorithm.
type HeteroSolver interface {
	Name() string
	Solve(in HeteroInstance) (Solution, error)
}

// HeteroSolverByName resolves the heterogeneous solver registry. The
// serve engine and the CLI route requests through it.
func HeteroSolverByName(name string) (HeteroSolver, bool) {
	switch name {
	case "HETERO-PART":
		return HeteroPartition{}, true
	case "HETERO-LTF":
		return HeteroLTFReject{}, true
	case "HETERO-LS":
		return HeteroLTFRejectLS{}, true
	case "HETERO-OPT":
		return HeteroExhaustive{}, true
	}
	return nil, false
}

// HeteroSolverNames lists the registry in presentation order.
func HeteroSolverNames() []string {
	return []string{"HETERO-PART", "HETERO-LTF", "HETERO-LS", "HETERO-OPT"}
}

// densityOrder returns the task positions in non-increasing penalty
// density vi/ci, ties in input order: the visit order of the constructive
// pass and of HETERO-PART's ownership seeds.
func densityOrder(tasks []task.Task) []int {
	ord := make([]int, len(tasks))
	for i := range ord {
		ord[i] = i
	}
	// The stable sort reorders only on a negative result, so ties keep
	// input order.
	slices.SortStableFunc(ord, func(a, b int) int {
		if tasks[a].Penalty*float64(tasks[b].Cycles) > tasks[b].Penalty*float64(tasks[a].Cycles) {
			return -1
		}
		return 0
	})
	return ord
}

// HeteroLTFReject is the constructive heuristic generalized to distinct
// profiles: tasks in non-increasing penalty density, each considered on
// the least-loaded processor that fits it (ties to the lower index) and
// accepted iff its marginal energy there is below its penalty. On an
// all-equal profile vector that processor is the least-loaded one (if it
// cannot fit the task, neither can any other equal-capacity processor),
// so HeteroLTFReject on AsHetero(in) is LTFReject.
type HeteroLTFReject struct{}

// Name implements HeteroSolver.
func (HeteroLTFReject) Name() string { return "HETERO-LTF" }

// Solve implements HeteroSolver.
func (HeteroLTFReject) Solve(in HeteroInstance) (Solution, error) {
	c, err := newHeteroCtx(in)
	if err != nil {
		return Solution{}, err
	}
	pos, _ := c.ltfReject()
	return evaluate(in, c.assignment(pos))
}

// ltfReject runs the constructive pass, returning pos[i] = processor of
// task i (-1 when rejected) and the per-processor loads — the warm start
// of the local search, which then needs neither an evaluated Solution nor
// an Assignment's map lookups in its move loops.
func (c *heteroCtx) ltfReject() (pos []int, loads []int64) {
	tasks := c.in.Tasks.Tasks
	loads = make([]int64, c.in.M())
	pos = make([]int, len(tasks))
	for i := range pos {
		pos[i] = -1
	}
	for _, ti := range densityOrder(tasks) {
		t := tasks[ti]
		m := -1
		for i, w := range loads {
			if (m < 0 || w < loads[m]) && !c.overloads(i, w+t.Cycles) {
				m = i
			}
		}
		if m < 0 {
			continue
		}
		marginal := c.energyAt(m, loads[m]+t.Cycles) - c.energyAt(m, loads[m])
		if marginal < t.Penalty {
			pos[ti] = m
			loads[m] += t.Cycles
		}
	}
	return pos, loads
}

// HeteroLTFRejectLS refines HeteroLTFReject with steepest-descent local
// search over five move kinds — reject, admit, migrate, swap-in-out and
// cross-processor exchange (see LTFRejectLS) — with every energy probe
// going through the touched processor's own curve.
type HeteroLTFRejectLS struct {
	// MaxIterations bounds the move count; 0 means 10·n.
	MaxIterations int
	// DisableExchange restricts the neighbourhood to single-task moves.
	DisableExchange bool
}

// Name implements HeteroSolver.
func (HeteroLTFRejectLS) Name() string { return "HETERO-LS" }

// Solve implements HeteroSolver.
func (g HeteroLTFRejectLS) Solve(in HeteroInstance) (Solution, error) {
	c, err := newHeteroCtx(in)
	if err != nil {
		return Solution{}, err
	}
	return evaluate(in, c.assignment(g.search(c)))
}

// search runs the constructive pass and refines it, returning the final
// position vector (pos[i] = processor of task i, -1 when rejected). Move
// evaluation is incremental: the energy of every processor at its current
// load is cached across the whole sweep (loads only change when a move is
// applied), so probing a move costs only the energies of the one or two
// touched processors at their changed loads, instead of re-pricing
// untouched processors. The gain expressions keep the seed code's float
// operation order, so the selected move sequence and the final solution
// are bit-identical to it.
func (g HeteroLTFRejectLS) search(c *heteroCtx) []int {
	pos, loads := c.ltfReject()
	tasks := c.in.Tasks.Tasks
	mCount := c.in.M()
	limit := g.MaxIterations
	if limit == 0 {
		limit = 10 * len(tasks)
	}

	// procE[m] = energyAt(m, loads[m]), refreshed after each applied move.
	procE := make([]float64, mCount)
	for m := range procE {
		procE[m] = c.energyAt(m, loads[m])
	}
	// addE[ti·M+m] memoizes energyAt(m, loads[m]+cycles(ti)), the "task ti
	// lands on processor m" probe shared by the migrate, admit and
	// cross-processor swap moves. Loads are constant within one sweep, so
	// entries are filled lazily on first use (NaN marks an empty slot —
	// the curve never returns NaN) and reset once per iteration.
	addE := make([]float64, len(tasks)*mCount)
	probeAdd := func(ti, m int) float64 {
		e := addE[ti*mCount+m]
		if e != e {
			e = c.energyAt(m, loads[m]+tasks[ti].Cycles)
			addE[ti*mCount+m] = e
		}
		return e
	}

	for iter := 0; iter < limit; iter++ {
		for i := range addE {
			addE[i] = math.NaN()
		}
		bestGain := 1e-9
		var apply func()
		for ti := range tasks {
			t := tasks[ti]
			ti := ti
			cur := pos[ti]
			if cur >= 0 {
				// Reject.
				removed := c.energyAt(cur, loads[cur]-t.Cycles)
				gain := procE[cur] - removed - t.Penalty
				if gain > bestGain {
					bestGain = gain
					m := cur
					apply = func() { pos[ti] = -1; loads[m] -= t.Cycles }
				}
				// Migrate.
				for m := 0; m < mCount; m++ {
					if m == cur || c.overloads(m, loads[m]+t.Cycles) {
						continue
					}
					gain := procE[cur] + procE[m] -
						removed - probeAdd(ti, m)
					if gain > bestGain {
						bestGain = gain
						from, to := cur, m
						apply = func() {
							pos[ti] = to
							loads[from] -= t.Cycles
							loads[to] += t.Cycles
						}
					}
				}
			} else {
				// Admit onto the best processor.
				for m := 0; m < mCount; m++ {
					if c.overloads(m, loads[m]+t.Cycles) {
						continue
					}
					gain := t.Penalty - (probeAdd(ti, m) - procE[m])
					if gain > bestGain {
						bestGain = gain
						to := m
						apply = func() { pos[ti] = to; loads[to] += t.Cycles }
					}
				}
			}
		}

		// Swap an accepted task out for a rejected one (possibly on a
		// different processor) — the compound admission repair no pair of
		// single moves reaches when both halves are individually losing.
		if !g.DisableExchange {
			for oi := range tasks {
				mo := pos[oi]
				if mo < 0 {
					continue
				}
				out := tasks[oi]
				oi := oi
				// Both terms of the out-processor's energy delta are
				// invariant across the inner loops.
				outDelta := procE[mo] - c.energyAt(mo, loads[mo]-out.Cycles)
				for ii := range tasks {
					if pos[ii] >= 0 {
						continue
					}
					inc := tasks[ii]
					ii := ii
					for m := 0; m < mCount; m++ {
						load := loads[m]
						if m == mo {
							load -= out.Cycles
						}
						if c.overloads(m, load+inc.Cycles) {
							continue
						}
						gain := inc.Penalty - out.Penalty
						if m == mo {
							gain += procE[mo] - c.energyAt(m, load+inc.Cycles)
						} else {
							gain += outDelta
							gain += procE[m] - probeAdd(ii, m)
						}
						if gain > bestGain {
							bestGain = gain
							mo, m := mo, m
							apply = func() {
								pos[oi] = -1
								loads[mo] -= out.Cycles
								pos[ii] = m
								loads[m] += inc.Cycles
							}
						}
					}
				}
			}
		}

		// Exchange two accepted tasks across processors.
		if !g.DisableExchange {
			for ai := range tasks {
				ma := pos[ai]
				if ma < 0 {
					continue
				}
				a := tasks[ai]
				ai := ai
				for bi := range tasks {
					mb := pos[bi]
					b := tasks[bi]
					if mb < 0 || a.ID >= b.ID || ma == mb {
						continue
					}
					bi := bi
					newA := loads[ma] - a.Cycles + b.Cycles
					newB := loads[mb] - b.Cycles + a.Cycles
					if c.overloads(ma, newA) || c.overloads(mb, newB) {
						continue
					}
					gain := procE[ma] + procE[mb] - c.energyAt(ma, newA) - c.energyAt(mb, newB)
					if gain > bestGain {
						bestGain = gain
						ma, mb, newA, newB := ma, mb, newA, newB
						apply = func() {
							pos[ai], pos[bi] = mb, ma
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
		for m := range procE {
			procE[m] = c.energyAt(m, loads[m])
		}
	}
	return pos
}

// HeteroExhaustive enumerates all (M+1)ⁿ assignments with the symmetry
// reduction restricted to same-profile groups — only the first empty
// processor of each distinct profile is tried, which on an all-equal
// vector is the single "first empty" rule of Exhaustive. Exact for tiny
// instances; serial, so SolveStats node counts are deterministic.
type HeteroExhaustive struct {
	// MaxAssignments guards the search space; 0 means 5 million.
	MaxAssignments int64
}

// Name implements HeteroSolver.
func (HeteroExhaustive) Name() string { return "HETERO-OPT" }

// Solve implements HeteroSolver.
func (e HeteroExhaustive) Solve(in HeteroInstance) (Solution, error) {
	sol, _, err := e.SolveStats(in)
	return sol, err
}

// SolveStats is Solve plus the number of branch-and-bound nodes entered.
func (e HeteroExhaustive) SolveStats(in HeteroInstance) (Solution, int64, error) {
	return exhaustive(in, e.MaxAssignments, 1)
}

// exhaustive is the branch-and-bound search behind HeteroExhaustive and
// Exhaustive. maxAssignments guards the (M+1)ⁿ search space (0 means 5
// million). With workers > 1 the first splitDepth placement decisions
// enumerate prefix subtrees in serial DFS visit order (same child order,
// symmetry reduction and capacity filter as dfs, no bound pruning),
// workers explore them concurrently sharing an atomic incumbent cost, and
// the per-subtree winners are folded back in DFS order under the serial
// improvement rule — so the returned solution matches the serial search.
// The node count is the serial search's; a parallel search reports 0.
func exhaustive(in HeteroInstance, maxAssignments int64, workers int) (Solution, int64, error) {
	c, err := newHeteroCtx(in)
	if err != nil {
		return Solution{}, 0, err
	}
	tasks := in.Tasks.Tasks
	n, mCount := len(tasks), in.M()
	if maxAssignments == 0 {
		maxAssignments = 5_000_000
	}
	total := int64(1)
	for i := 0; i < n; i++ {
		total *= int64(mCount + 1)
		if total > maxAssignments {
			return Solution{}, 0, fmt.Errorf("multiproc: exhaustive search needs %d+ assignments, over the limit %d", total, maxAssignments)
		}
	}

	// Split deep enough to keep every worker busy (≥4 subtrees each), but
	// never to the leaves; each level multiplies the prefix count by up to
	// M+1 (M placements + reject), so a shallow split suffices.
	splitDepth := 0
	for count := 1; workers > 1 && splitDepth < n-1 && splitDepth < 8 && count < 4*workers; count *= mCount + 1 {
		splitDepth++
	}
	s := newHeteroSearcher(c)
	if splitDepth == 0 {
		s.dfs(0, 0)
		return s.finish()
	}

	type prefix struct {
		loads   []int64
		choice  []int
		penalty float64
	}
	var prefixes []prefix
	loads := make([]int64, mCount)
	choice := make([]int, splitDepth)
	var enumerate func(i int, penalty float64)
	enumerate = func(i int, penalty float64) {
		if i == splitDepth {
			prefixes = append(prefixes, prefix{slices.Clone(loads), slices.Clone(choice), penalty})
			return
		}
		t := tasks[i]
		for m := range loads {
			if c.redundant(loads, m) || c.overloads(m, loads[m]+t.Cycles) {
				continue
			}
			loads[m] += t.Cycles
			choice[i] = m
			enumerate(i+1, penalty)
			loads[m] -= t.Cycles
		}
		choice[i] = -1
		enumerate(i+1, penalty+t.Penalty)
	}
	enumerate(0, 0)

	// The shared incumbent: the best cost any worker has proven so far,
	// maintained with a CAS-min over its float bits.
	var shared atomic.Uint64
	shared.Store(math.Float64bits(math.Inf(1)))
	winners, err := conc.ForEach(len(prefixes), workers, func(k int) (*heteroSearcher, error) {
		w := newHeteroSearcher(c)
		w.shared = &shared
		copy(w.loads, prefixes[k].loads)
		copy(w.choice, prefixes[k].choice)
		w.dfs(splitDepth, prefixes[k].penalty)
		return w, nil
	})
	if err != nil {
		return Solution{}, 0, err
	}
	for _, w := range winners {
		if w.best != nil && w.bestCost < s.bestCost-1e-12 {
			s.bestCost, s.best = w.bestCost, w.best
		}
	}
	return s.finish()
}

// heteroSearcher is one branch-and-bound search state: the serial search
// uses a single one, the parallel search one per prefix subtree (plus the
// shared incumbent they prune against).
type heteroSearcher struct {
	c      *heteroCtx
	loads  []int64
	choice []int // -1 reject, else processor

	bestCost float64
	best     []int // choice at the incumbent leaf
	nodes    int64

	// shared, when non-nil (parallel mode), is the cross-worker incumbent
	// cost as float bits; workers prune against it and publish their own
	// improvements into it.
	shared *atomic.Uint64
}

func newHeteroSearcher(c *heteroCtx) *heteroSearcher {
	return &heteroSearcher{
		c:        c,
		loads:    make([]int64, c.in.M()),
		choice:   make([]int, len(c.in.Tasks.Tasks)),
		bestCost: math.Inf(1),
	}
}

// pruned reports whether a node whose partial cost is pc (a lower bound on
// every leaf below it) cannot improve the result. The local incumbent uses
// the serial rule (pc within 1e-12 of it never strictly improves). The
// shared cross-worker incumbent is applied with the margin reversed —
// prune only when pc exceeds it by more than 1e-12 — so a subtree whose
// best leaf exactly ties another worker's published cost still finds that
// leaf: subtree winners are then independent of publish timing, and the
// DFS-ordered fold resolves exact ties the way the serial search does.
func (s *heteroSearcher) pruned(pc float64) bool {
	if pc >= s.bestCost-1e-12 {
		return true
	}
	return s.shared != nil && pc >= math.Float64frombits(s.shared.Load())+1e-12
}

// publish records an improved incumbent, CAS-minning it into the shared
// bound in parallel mode.
func (s *heteroSearcher) publish(cost float64) {
	if s.shared == nil {
		return
	}
	for {
		old := s.shared.Load()
		if math.Float64frombits(old) <= cost {
			return
		}
		if s.shared.CompareAndSwap(old, math.Float64bits(cost)) {
			return
		}
	}
}

// dfs explores placements for tasks[i:], with penalty the accumulated
// rejection penalty of the prefix.
func (s *heteroSearcher) dfs(i int, penalty float64) {
	s.nodes++
	// Bound: current energy + current penalty (both only grow).
	var energy float64
	for m, w := range s.loads {
		energy += s.c.energyAt(m, w)
	}
	if s.pruned(energy + penalty) {
		return
	}
	if i == len(s.choice) {
		s.bestCost = energy + penalty
		s.best = slices.Clone(s.choice)
		s.publish(s.bestCost)
		return
	}
	t := s.c.in.Tasks.Tasks[i]
	for m := range s.loads {
		if s.c.redundant(s.loads, m) || s.c.overloads(m, s.loads[m]+t.Cycles) {
			continue
		}
		s.loads[m] += t.Cycles
		s.choice[i] = m
		s.dfs(i+1, penalty)
		s.loads[m] -= t.Cycles
	}
	s.choice[i] = -1
	s.dfs(i+1, penalty+t.Penalty)
}

// finish evaluates the incumbent.
func (s *heteroSearcher) finish() (Solution, int64, error) {
	if s.best == nil {
		return Solution{}, s.nodes, fmt.Errorf("multiproc: exhaustive search found no solution")
	}
	sol, err := evaluate(s.c.in, s.c.assignment(s.best))
	return sol, s.nodes, err
}

// HeteroPartition is the partition-then-reject solver: every task gets a
// candidate *owner* processor, the per-processor accept/reject subproblem
// is solved *optimally* by the single-processor rejection DP, and a
// bounded best-improvement move search re-solves the two affected
// processors when migrating a task's ownership (or swapping two tasks'
// owners) lowers the total cost. Every per-processor probe is priced by a
// core.SubsetDP on sparse rows (core.SparseOn; one per distinct profile,
// validated once per solve): a probe owns a handful of tasks and reaches
// only a few dozen workloads, the sparse kernel returns the dense
// kernel's bits, and the refinement reads only the optimal cost. A probe
// that extends a list by one task — a migration's target, either half of
// a swap — folds just that task's row onto the list's kept last row
// (core.SubsetDP.Fold and CostAppend): each processor keeps its whole
// list's row and, while the swap pass runs (n ≤ heteroSwapLimit), each
// task its owner's list without it, with that list's cost. A kept row or
// cost is valid until an applied move touches its processor. The rows of
// one profile hold at most the probe budget (MaxStates, else
// core.DefaultMaxSparseCells) of breakpoints — the memory one cold probe
// may already use — and past it probes price cold. Every cost and error
// equals a cold probe's, so answers do not depend on the reuse. Accept
// sets are solved only where they are used — seed C's cascade and the
// winning seed's final lists. The move search stops at a fixed point — a
// full pass of probes since the last applied move — or after MaxPasses
// passes.
// Three ownership seeds are refined and the cheapest result kept: a
// penalty-density/normalized-load constructive pass, the
// HeteroLTFRejectLS solution — whose accept set each per-processor DP can
// always reproduce, so HETERO-PART never costs more than HETERO-LS — and
// a sequential per-processor DP cascade.
type HeteroPartition struct {
	// MaxStates bounds each per-processor DP: sparse row breakpoints, and
	// dense cells once a probe has switched to dense rows; 0 means the
	// core defaults.
	MaxStates int64
	// MaxPasses bounds the ownership-move passes per seed; 0 means 4.
	MaxPasses int
}

// heteroSwapLimit caps the task count for HeteroPartition's O(n²)
// pairwise owner-swap pass; larger instances refine with migrations only.
const heteroSwapLimit = 64

// Name implements HeteroSolver.
func (HeteroPartition) Name() string { return "HETERO-PART" }

// Solve implements HeteroSolver.
func (h HeteroPartition) Solve(in HeteroInstance) (Solution, error) {
	c, err := newHeteroCtx(in)
	if err != nil {
		return Solution{}, err
	}
	tasks := in.Tasks.Tasks
	mCount := in.M()

	// One core.SubsetDP per distinct profile prices that group's probes:
	// the instance is validated and its evaluation context built once, and
	// a probe returns only the DP's optimal cost. An empty list costs the
	// idle energy.
	dp := core.DP{MaxStates: h.MaxStates, Sparse: core.SparseOn}
	probes := make([]*core.SubsetDP, mCount)
	defer func() {
		for m, s := range probes {
			if s != nil && c.typeOf[m] == m {
				s.Release()
			}
		}
	}()
	for m := range probes {
		if g := c.typeOf[m]; g != m {
			probes[m] = probes[g]
			continue
		}
		pp, err := core.NewProcProfile(in.Procs[m])
		if err != nil {
			return Solution{}, err
		}
		s, err := core.NewSubsetDP(dp, core.Instance{Tasks: in.Tasks, Proc: in.Procs[m]}.WithProcProfile(pp))
		if err != nil {
			return Solution{}, err
		}
		probes[m] = s
	}

	n := len(tasks)
	without := func(dst, owned []int, ti int) []int {
		dst = dst[:0]
		for _, x := range owned {
			if x != ti {
				dst = append(dst, x)
			}
		}
		return dst
	}

	// refine prices each processor's DP on the seed ownership, then runs
	// bounded best-improvement move passes — migrating one task's ownership
	// re-prices only the two touched processors. On small instances each
	// pass also tries pairwise owner swaps (the coordinated exchanges that
	// single migrations cannot reach); the O(n²) swap scan is skipped past
	// heteroSwapLimit tasks to keep large serve solves at O(n·M) DP calls.
	//
	// A pass visits a fixed cycle of probe positions: every migration
	// task, then every swap pair (same-owner pairs included). Each probe
	// is a pure function of the ownership lists, so once a full cycle of
	// positions has run since the last applied move, every later probe
	// repeats one already made: refinement stops at that fixed point, or
	// after MaxPasses passes.
	//
	// Every probe but a list's own price extends a list by one task: a
	// migration's target is the target's list plus the task, each half of
	// a swap is a list without tᵢ plus tⱼ. So refine keeps those lists'
	// last DP rows (core.SubsetDP.Fold) and prices each probe by folding
	// the one appended row (CostAppend). Each processor keeps a row for its
	// whole list; while the swap pass runs, each task also keeps one for
	// its owner's list without it, with that list's cost. An applied move
	// gives the two processors it touches a fresh version, and a row or
	// cost folded at an older version is folded again where it is next
	// used. A list refine folds only to extend is one no probe priced, so
	// an error there is dropped: the append then prices cold and reports
	// the probe's own error.
	passes := h.MaxPasses
	if passes == 0 {
		passes = 4
	}
	doSwaps := n <= heteroSwapLimit
	cycle := n
	nRows := mCount // rows per profile: one per processor's list…
	if doSwaps {
		cycle += n * (n - 1) / 2
		nRows += n // …and one per task's "owner's list without it"
	}
	rows := make([][]core.SubsetRow, mCount) // by profile leader
	ver := make([]int64, mCount)             // per processor: its list's version
	rowVer := make([]int64, mCount)          // the version its list's row was folded at
	type priced struct {
		ver  int64 // the owner's version it was priced at; 0 is none
		cost float64
		err  error
	}
	withouts := make([]priced, n) // per task: its owner's list without it
	version := int64(0)
	bump := func(m int) {
		version++
		ver[m] = version
	}
	refine := func(owner []int) ([][]int, float64, error) {
		// The ownership lists live in one arena of M+2 segments of n
		// slots: one per processor plus two probe lists. No list ever
		// holds more than n tasks, so appends stay inside their segment,
		// and an applied move swaps the probe list in as the processor's
		// list instead of copying. The lists outlive the call: the winning
		// seed's are solved once more for their accept sets.
		arena := make([]int, (mCount+2)*n)
		segment := func(k int) []int { return arena[k*n : k*n : (k+1)*n] }
		owned := make([][]int, mCount)
		for m := range owned {
			owned[m] = segment(m)
		}
		probeA, probeB := segment(mCount), segment(mCount+1)
		for ti, m := range owner {
			owned[m] = append(owned[m], ti)
		}
		for g, s := range probes {
			if c.typeOf[g] == g {
				rows[g] = s.Rows(nRows)
			}
		}
		costs := make([]float64, mCount)
		for m := 0; m < mCount; m++ {
			bump(m)
			cost, err := probes[m].Fold(&rows[c.typeOf[m]][m], owned[m])
			if len(owned[m]) == 0 {
				cost, err = c.energyAt(m, 0), nil
			}
			if err != nil {
				return nil, 0, err
			}
			costs[m], rowVer[m] = cost, ver[m]
		}
		// withoutCost prices processor m's list without task ti, folding it
		// into the task's row when the swap pass runs, unless it already
		// did at m's version.
		withoutCost := func(m, ti int) (float64, error) {
			p := &withouts[ti]
			if p.ver != ver[m] {
				probeA = without(probeA, owned[m], ti)
				if doSwaps {
					p.cost, p.err = probes[m].Fold(&rows[c.typeOf[m]][mCount+ti], probeA)
				} else {
					p.cost, p.err = probes[m].Cost(probeA)
				}
				if len(probeA) == 0 {
					p.cost, p.err = c.energyAt(m, 0), nil
				}
				p.ver = ver[m]
			}
			return p.cost, p.err
		}
		// appendCost prices processor m's list plus task ti from its list's
		// row, folding the row again first if a move changed the list.
		appendCost := func(m, ti int) (float64, error) {
			row := &rows[c.typeOf[m]][m]
			if rowVer[m] != ver[m] {
				_, _ = probes[m].Fold(row, owned[m]) // costs[m] holds the list's own price
				rowVer[m] = ver[m]
			}
			return probes[m].CostAppend(row, ti)
		}
		// swapCost prices processor m's list without task ti, plus task tj.
		swapCost := func(m, ti, tj int) (float64, error) {
			withoutCost(m, ti) // an error is the append's to report
			return probes[m].CostAppend(&rows[c.typeOf[m]][mCount+ti], tj)
		}
		stale := 0 // probe positions since the last applied move
		settled := func(moved bool) bool {
			if moved {
				stale = 0
			} else {
				stale++
			}
			return stale == cycle
		}
	refining:
		for pass := 0; pass < passes; pass++ {
			for ti := range tasks {
				from := owner[ti]
				fromCost, err := withoutCost(from, ti)
				if err != nil {
					return nil, 0, err
				}
				bestDelta := -1e-9
				bestTo := -1
				var bestToCost float64
				for to := 0; to < mCount; to++ {
					if to == from {
						continue
					}
					toCost, err := appendCost(to, ti)
					if err != nil {
						return nil, 0, err
					}
					delta := (fromCost + toCost) - (costs[from] + costs[to])
					if delta < bestDelta {
						bestDelta, bestTo, bestToCost = delta, to, toCost
					}
				}
				if bestTo >= 0 {
					owned[bestTo] = append(owned[bestTo], ti)
					probeA = without(probeA, owned[from], ti)
					owned[from], probeA = probeA, owned[from]
					owner[ti] = bestTo
					costs[from], costs[bestTo] = fromCost, bestToCost
					bump(from)
					bump(bestTo)
				}
				if settled(bestTo >= 0) {
					break refining
				}
			}
			for ti := 0; doSwaps && ti < n; ti++ {
				for tj := ti + 1; tj < n; tj++ {
					pa, pb := owner[ti], owner[tj]
					moved := false
					if pa != pb {
						aCost, err := swapCost(pa, ti, tj)
						if err != nil {
							return nil, 0, err
						}
						bCost, err := swapCost(pb, tj, ti)
						if err != nil {
							return nil, 0, err
						}
						delta := (aCost + bCost) - (costs[pa] + costs[pb])
						if moved = delta < -1e-9; moved {
							probeA = append(without(probeA, owned[pa], ti), tj)
							probeB = append(without(probeB, owned[pb], tj), ti)
							owned[pa], probeA = probeA, owned[pa]
							owned[pb], probeB = probeB, owned[pb]
							owner[ti], owner[tj] = pb, pa
							costs[pa], costs[pb] = aCost, bCost
							bump(pa)
							bump(pb)
						}
					}
					if settled(moved) {
						break refining
					}
				}
			}
		}
		total := 0.0
		for _, cost := range costs {
			total += cost
		}
		return owned, total, nil
	}

	// Every seed hands its unowned tasks (owner −1), in non-increasing
	// penalty density, to the processor with the smallest projected
	// normalized load (load+c)/cap — the big.LITTLE generalization of
	// least-loaded. Ownership never rejects; the DP does, so overflow here
	// is fine.
	ord := densityOrder(tasks)
	caps := make([]float64, mCount)
	for m, p := range in.Procs {
		caps[m] = math.Max(p.Capacity(in.Tasks.Deadline), 1)
	}
	unowned := func() []int {
		owner := make([]int, n)
		for i := range owner {
			owner[i] = -1
		}
		return owner
	}
	complete := func(owner []int) []int {
		loads := make([]int64, mCount)
		for ti, m := range owner {
			if m >= 0 {
				loads[m] += tasks[ti].Cycles
			}
		}
		for _, ti := range ord {
			if owner[ti] >= 0 {
				continue
			}
			t := tasks[ti]
			best, bestScore := 0, math.Inf(1)
			for m := 0; m < mCount; m++ {
				if score := float64(loads[m]+t.Cycles) / caps[m]; score < bestScore {
					best, bestScore = m, score
				}
			}
			owner[ti] = best
			loads[best] += t.Cycles
		}
		return owner
	}

	// Seed A: every task placed by the normalized-load rule.
	ownedA, costA, err := refine(complete(unowned()))
	if err != nil {
		return Solution{}, err
	}

	// Seed B: ownership from the local search's positions — accepted
	// tasks keep their processor, rejected ones fall back to the
	// normalized-load rule. The per-processor DP can always reproduce the
	// LS accept set, so the refined cost never exceeds HETERO-LS.
	ownedB, costB, err := refine(complete(HeteroLTFRejectLS{}.search(c)))
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
	ownerC := unowned()
	remaining := slices.Clone(ord)
	for _, m := range procOrd {
		if len(remaining) == 0 {
			break
		}
		sol, err := probes[m].Solve(remaining)
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
	ownedC, costC, err := refine(complete(ownerC))
	if err != nil {
		return Solution{}, err
	}

	owned, bestCost := ownedA, costA
	if costB < bestCost {
		owned, bestCost = ownedB, costB
	}
	if costC < bestCost {
		owned = ownedC
	}

	// Assemble the assignment from each processor's accepted set: the
	// winning lists are solved once more, now for the accept sets their
	// probes priced.
	assign := Assignment{}
	for m := 0; m < mCount; m++ {
		if len(owned[m]) == 0 {
			continue
		}
		sol, err := probes[m].Solve(owned[m])
		if err != nil {
			return Solution{}, err
		}
		for _, id := range sol.Accepted {
			assign[id] = m
		}
	}
	return evaluate(in, assign)
}

// DefaultHeteroLowerBoundStates mirrors core.DefaultLowerBoundStates for
// the pooled heterogeneous relaxation.
const DefaultHeteroLowerBoundStates = int64(1) << 20

// HeteroLowerBound returns a certified lower bound on the optimal
// heterogeneous partitioned-rejection cost of in, by solving a pooled
// convex relaxation exactly on a floor-scaled grid:
//
//  1. cycles are floor-scaled by an integer k chosen so the grid fits
//     maxStates (≤ 0 means DefaultHeteroLowerBoundStates), as in
//     core.CostLowerBound — every truly feasible accepted set stays
//     feasible in the scaled grid, and zero-scaled tasks are accepted for
//     free (both only lower the bound);
//  2. the M per-processor energy curves are pooled into one grid curve
//     Φ(t) = min over integer splits Σ_m j_m = t of Σ_m E_m(k·j_m). With
//     each E_m convex and nondecreasing (continuous speeds, dormancy
//     disabled — required here), the discrete inf-convolution is the
//     ascending merge of the per-processor marginal increments; a
//     suffix-min pass per processor keeps the merge a certified lower
//     bound even under float jitter in the marginals;
//  3. a real split's per-processor floors each lose strictly less than
//     one grid cell, so the relaxation prices a scaled workload t at
//     Φ(max(t−(M−1), 0)) — the certification offset;
//  4. an accept/reject DP over the scaled cycles against that pooled
//     curve yields the bound.
//
// With M = 1 and k = 1 the bound equals the exact single-processor DP
// optimum. Discrete speed ladders and dormant-enabled processors are
// refused: their E(w) is non-decreasing too (see speed.Curve), but the
// marginal merge also needs convexity, which dormant curves lack (the
// Esw step, the critical-speed knee) and ladder curves are not shown to
// have.
func HeteroLowerBound(in HeteroInstance, maxStates int64) (float64, error) {
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
	// merge pick a non-minimal prefix selection). Bit-equal processors
	// have bit-equal streams, so each group builds one and shares it;
	// the merge reads it through per-processor heads.
	lims := make([]int64, mCount)
	var gridT int64
	for m := range caps {
		lims[m] = caps[m] / k
		gridT += lims[m]
	}
	margs := make([][]float64, mCount)
streams:
	for m := range margs {
		for g := 0; g < m; g++ {
			if procsEqual(in.Procs[g], in.Procs[m]) {
				margs[m] = margs[g]
				continue streams
			}
		}
		mg := make([]float64, lims[m])
		// Each grid energy is evaluated once and carried to the next
		// marginal: the same operands, so the same bits.
		lo := curves[m].Energy(0)
		for j := int64(0); j < lims[m]; j++ {
			hi := curves[m].Energy(float64((j + 1) * k))
			mg[j] = hi - lo
			lo = hi
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
	// Each item runs only over the row's reachable prefix — every cell
	// above it is +Inf and would stay +Inf — and an unreachable keep
	// needs no test: +Inf never wins keep < rej.
	shift := int64(mCount - 1)
	width := sumScaled
	if width > gridT+shift {
		width = gridT + shift
	}
	dp := make([]float64, width+1)
	for t := int64(1); t <= width; t++ {
		dp[t] = math.Inf(1)
	}
	var reach int64
	for _, it := range items {
		reach = min(reach+it.c, width)
		for t := reach; t >= 0; t-- {
			keep := math.Inf(1)
			if t >= it.c {
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
	for t := int64(0); t <= reach; t++ {
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

// HeteroResult is a heterogeneous solve with its certified optimality
// context, mirroring the anytime tier's gap reporting.
type HeteroResult struct {
	Solution
	// LowerBound is the certified HeteroLowerBound of the instance; only
	// meaningful when Gap ≥ 0.
	LowerBound float64
	// Gap is (Cost − LowerBound)/Cost, clamped at 0 — so 0 means proven
	// optimal. Negative when no lower bound was available (discrete
	// ladders, dormant processors).
	Gap float64
}

// SolveHeteroCertified runs s and attaches the certified optimality gap.
// A declined lower bound (non-convex processor flavours) is not an error:
// the result carries Gap = −1.
func SolveHeteroCertified(in HeteroInstance, s HeteroSolver) (HeteroResult, error) {
	sol, err := s.Solve(in)
	if err != nil {
		return HeteroResult{}, err
	}
	res := HeteroResult{Solution: sol, Gap: -1}
	lb, err := HeteroLowerBound(in, 0)
	if err != nil {
		return res, nil
	}
	res.LowerBound = lb
	switch {
	case sol.Cost <= 0:
		res.Gap = 0
	default:
		res.Gap = math.Max(0, (sol.Cost-lb)/sol.Cost)
	}
	return res, nil
}
