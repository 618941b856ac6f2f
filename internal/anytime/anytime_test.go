package anytime_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dvsreject/internal/anytime"
	"dvsreject/internal/core"
	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
	"dvsreject/internal/verify"
)

func frameInstance(t testing.TB, n int, load float64) core.Instance {
	t.Helper()
	set, err := gen.Frame(rand.New(rand.NewSource(42)), gen.Config{N: n, Load: load, Deadline: 1000})
	if err != nil {
		t.Fatalf("gen.Frame: %v", err)
	}
	return core.Instance{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}}
}

func beyondWallInstance(t testing.TB) core.Instance {
	t.Helper()
	set, err := gen.Sparse(rand.New(rand.NewSource(42)), gen.SparseConfig{N: 40, Deadline: 1 << 26})
	if err != nil {
		t.Fatalf("gen.Sparse: %v", err)
	}
	return core.Instance{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}}
}

func checkFront(t *testing.T, in core.Instance, res anytime.Result) {
	t.Helper()
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	foundBest := false
	for i, sol := range res.Front {
		if err := verify.CheckSolution(in, sol); err != nil {
			t.Fatalf("front[%d] infeasible: %v", i, err)
		}
		if i > 0 {
			prev := res.Front[i-1]
			if !(sol.Energy > prev.Energy && sol.Penalty < prev.Penalty) {
				t.Fatalf("front not mutually non-dominated at %d: (%v,%v) after (%v,%v)",
					i, sol.Energy, sol.Penalty, prev.Energy, prev.Penalty)
			}
		}
		if sol.Cost < res.Best.Cost {
			t.Fatalf("front[%d] cost %v beats Best %v", i, sol.Cost, res.Best.Cost)
		}
		if sol.Cost == res.Best.Cost && sol.Energy == res.Best.Energy {
			foundBest = true
		}
	}
	if !foundBest {
		t.Fatal("Best is not an element of Front")
	}
	if !math.IsNaN(res.LowerBound) && res.Best.Cost < res.LowerBound*(1-1e-9) {
		t.Fatalf("Best %v below certified lower bound %v", res.Best.Cost, res.LowerBound)
	}
}

// TestWorkersDeterminism pins the documented contract: fixed seed and
// generation count give bit-identical results for any worker count.
func TestWorkersDeterminism(t *testing.T) {
	for _, n := range []int{12, 100, 1000} {
		in := frameInstance(t, n, 1.5)
		base, err := anytime.Solver{Seed: 7, Workers: 1}.SolveUntil(context.Background(), in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, w := range []int{4, 8} {
			res, err := anytime.Solver{Seed: 7, Workers: w}.SolveUntil(context.Background(), in)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			if res.Generations != base.Generations {
				t.Fatalf("n=%d workers=%d: %d generations vs %d", n, w, res.Generations, base.Generations)
			}
			if len(res.Front) != len(base.Front) {
				t.Fatalf("n=%d workers=%d: front size %d vs %d", n, w, len(res.Front), len(base.Front))
			}
			if err := verify.BitIdenticalSolutions(res.Best, base.Best); err != nil {
				t.Fatalf("n=%d workers=%d: best differs: %v", n, w, err)
			}
			for i := range res.Front {
				if err := verify.BitIdenticalSolutions(res.Front[i], base.Front[i]); err != nil {
					t.Fatalf("n=%d workers=%d: front[%d] differs: %v", n, w, i, err)
				}
			}
		}
	}
}

// TestFrontQuality: the deterministic registry configuration must reach
// ≥99% of the exact DP cost on the benchmark instance, and the 10 ms
// budget mode must do the same.
func TestFrontQuality(t *testing.T) {
	in := frameInstance(t, 1000, 1.5)
	dp, err := core.DP{}.Solve(in)
	if err != nil {
		t.Fatalf("DP: %v", err)
	}
	res, err := anytime.Solver{Seed: 1}.SolveUntil(context.Background(), in)
	if err != nil {
		t.Fatalf("anytime: %v", err)
	}
	checkFront(t, in, res)
	if res.Best.Cost > dp.Cost*1.01 {
		t.Fatalf("fixed-generation quality %.4f%% below 99%%: anytime %v vs DP %v",
			100*dp.Cost/res.Best.Cost, res.Best.Cost, dp.Cost)
	}
	budget, err := anytime.Solver{Seed: 1, Budget: 10 * time.Millisecond}.SolveUntil(context.Background(), in)
	if err != nil {
		t.Fatalf("anytime 10ms: %v", err)
	}
	checkFront(t, in, budget)
	if budget.Best.Cost > dp.Cost*1.01 {
		t.Fatalf("10ms quality %.4f%% below 99%%: anytime %v vs DP %v",
			100*dp.Cost/budget.Best.Cost, budget.Best.Cost, dp.Cost)
	}
}

// TestSeedBattery runs the canonical seed instances: front validity,
// never-worse-than-S-GREEDY, and the lower bound actually bounding.
func TestSeedBattery(t *testing.T) {
	for _, s := range verify.SeedInstances() {
		res, err := anytime.Solver{Seed: 1}.SolveUntil(context.Background(), s.In)
		if errors.Is(err, core.ErrHeterogeneous) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		checkFront(t, s.In, res)
		if sg, err := (core.GreedyMarginal{}).Solve(s.In); err == nil {
			if res.Best.Cost > sg.Cost*(1+1e-6) {
				t.Fatalf("%s: anytime %v worse than S-GREEDY %v", s.Name, res.Best.Cost, sg.Cost)
			}
		}
		if dp, err := (core.DP{}).Solve(s.In); err == nil {
			if !math.IsNaN(res.LowerBound) && res.LowerBound > dp.Cost*(1+1e-9) {
				t.Fatalf("%s: lower bound %v exceeds optimum %v", s.Name, res.LowerBound, dp.Cost)
			}
			if res.Best.Cost < dp.Cost*(1-1e-9) {
				t.Fatalf("%s: anytime %v below optimum %v", s.Name, res.Best.Cost, dp.Cost)
			}
		}
	}
}

// TestBeyondWall: where dense DP refuses on states, the anytime tier must
// return a feasible front point with a finite reported gap bound.
func TestBeyondWall(t *testing.T) {
	in := beyondWallInstance(t)
	if _, err := (core.DP{Sparse: core.SparseOff}).Solve(in); !errors.Is(err, core.ErrStateBudget) {
		t.Fatalf("dense DP past the wall: want ErrStateBudget, got %v", err)
	}
	res, err := anytime.Solver{Seed: 1, Budget: 10 * time.Millisecond}.SolveUntil(context.Background(), in)
	if err != nil {
		t.Fatalf("anytime: %v", err)
	}
	checkFront(t, in, res)
	if math.IsNaN(res.Gap) || res.Gap > 0.05 {
		t.Fatalf("beyond-wall gap bound %v (lower bound %v, best %v)", res.Gap, res.LowerBound, res.Best.Cost)
	}
	// The sparse exact solver still works here — use it to check the gap
	// bound is honest: true suboptimality must be within the reported gap.
	exact, err := (core.DP{Sparse: core.SparseOn}).Solve(in)
	if err != nil {
		t.Fatalf("sparse DP: %v", err)
	}
	if res.Best.Cost > exact.Cost/(1-res.Gap)*(1+1e-9) {
		t.Fatalf("true quality worse than reported gap: best %v, exact %v, gap %v",
			res.Best.Cost, exact.Cost, res.Gap)
	}
}

// TestExpiredBudget: even a pre-expired deadline returns a feasible
// answer — one full evaluation pass always completes.
func TestExpiredBudget(t *testing.T) {
	in := frameInstance(t, 200, 1.5)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := anytime.Solver{Seed: 1}.SolveUntil(ctx, in)
	if err != nil {
		t.Fatalf("expired budget: %v", err)
	}
	checkFront(t, in, res)
	if res.Generations != 1 {
		t.Fatalf("expired budget ran %d generations, want exactly 1", res.Generations)
	}
}

// TestRegistry: "ANYTIME" resolves through core.NewSolver and matches a
// direct zero-budget solve bit for bit.
func TestRegistry(t *testing.T) {
	s, err := core.NewSolver("ANYTIME", core.SolverSpec{Seed: 5, Workers: 3})
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	in := frameInstance(t, 64, 1.5)
	got, err := s.Solve(in)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	want, err := anytime.Solver{Seed: 5, Workers: 3}.Solve(in)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	if err := verify.BitIdenticalSolutions(got, want); err != nil {
		t.Fatalf("registry vs direct: %v", err)
	}
}

// TestHeterogeneousRefused: per-task power coefficients invalidate the
// total-workload fitness model; the solver must say so, not guess.
func TestHeterogeneousRefused(t *testing.T) {
	in := core.Instance{
		Tasks: task.Set{
			Tasks:    []task.Task{{ID: 1, Cycles: 10, Penalty: 1, Rho: 2}, {ID: 2, Cycles: 5, Penalty: 1}},
			Deadline: 100,
		},
		Proc: speed.Proc{Model: power.Cubic(), SMax: 1},
	}
	if _, err := (anytime.Solver{}).Solve(in); !errors.Is(err, core.ErrHeterogeneous) {
		t.Fatalf("want ErrHeterogeneous, got %v", err)
	}
}

// TestEmptyInstance: the degenerate zero-task solve returns the idle
// frame as a one-point front.
func TestEmptyInstance(t *testing.T) {
	in := core.Instance{Tasks: task.Set{Deadline: 100}, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}}
	res, err := anytime.Solver{}.SolveUntil(context.Background(), in)
	if err != nil {
		t.Fatalf("empty: %v", err)
	}
	if len(res.Front) != 1 || res.Best.Cost != res.Front[0].Cost {
		t.Fatalf("empty instance front: %+v", res)
	}
}

// TestFitnessKernelAllocs pins the 0 allocs/op steady-state contract of
// the population kernel.
func TestFitnessKernelAllocs(t *testing.T) {
	in := frameInstance(t, 1024, 1.5)
	be, err := core.NewBatchEval(in)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Release()
	colC, colV := be.Columns()
	const genomes = 64
	stride := (be.Len() + 63) / 64
	pop := make([]uint64, genomes*stride)
	rng := rand.New(rand.NewSource(3))
	for i := range pop {
		pop[i] = rng.Uint64()
	}
	w := make([]int64, genomes)
	pen := make([]float64, genomes)
	if avg := testing.AllocsPerRun(100, func() {
		anytime.EvaluateFitness(colC, colV, pop, stride, w, pen)
	}); avg != 0 {
		t.Fatalf("EvaluateFitness allocates %v per run, want 0", avg)
	}
}

// TestFitnessKernelValues cross-checks the kernel against the exact
// evaluator on random genomes.
func TestFitnessKernelValues(t *testing.T) {
	in := frameInstance(t, 130, 1.5) // straddles a word boundary
	be, err := core.NewBatchEval(in)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Release()
	colC, colV := be.Columns()
	n := be.Len()
	stride := (n + 63) / 64
	const genomes = 32
	pop := make([]uint64, genomes*stride)
	rng := rand.New(rand.NewSource(9))
	for i := range pop {
		pop[i] = rng.Uint64()
	}
	w := make([]int64, genomes)
	pen := make([]float64, genomes)
	anytime.EvaluateFitness(colC, colV, pop, stride, w, pen)
	for g := 0; g < genomes; g++ {
		var tw int64
		var tp float64
		for i := 0; i < n; i++ {
			if pop[g*stride+i/64]>>(uint(i)%64)&1 != 0 {
				tw += colC[i]
				tp += colV[i]
			}
		}
		if tw != w[g] {
			t.Fatalf("genome %d: workload %d, want %d", g, w[g], tw)
		}
		if tp != pen[g] {
			t.Fatalf("genome %d: penalty %v, want %v", g, pen[g], tp)
		}
	}
}

// TestCostLowerBound pins the bound against exact optima across the seed
// instances and state budgets. Every homogeneous instance — ladders and
// dormant processors included — must get a bound; only heterogeneous
// instances and budgets too small for the task count are refused.
func TestCostLowerBound(t *testing.T) {
	for _, s := range verify.SeedInstances() {
		dp, err := core.DP{}.Solve(s.In)
		if err != nil {
			continue
		}
		for _, states := range []int64{0, 1 << 10, 1 << 16} {
			lb, err := core.CostLowerBound(s.In, states)
			if errors.Is(err, core.ErrHeterogeneous) || (err != nil && strings.Contains(err.Error(), "too small")) {
				continue
			}
			if err != nil {
				t.Fatalf("%s states=%d: %v", s.Name, states, err)
			}
			if lb > dp.Cost*(1+1e-9) {
				t.Fatalf("%s states=%d: lower bound %v exceeds optimum %v", s.Name, states, lb, dp.Cost)
			}
		}
	}
}
