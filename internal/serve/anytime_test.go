package serve

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"dvsreject/internal/core"
	"dvsreject/internal/task"
	"dvsreject/internal/verify"
)

// hardSparseSet builds an instance whose subset sums are all distinct and
// all Pareto-surviving (penalty ∝ cycles), so both the dense grid and the
// sparse dominance-pruned rows blow their state budgets — the shape the
// anytime fallback exists for.
func hardSparseSet(n int) task.Set {
	rng := rand.New(rand.NewSource(7))
	set := task.Set{}
	var sum int64
	for i := 0; i < n; i++ {
		c := (int64(1) << 28) + rng.Int63n(1<<28)
		set.Tasks = append(set.Tasks, task.Task{ID: i + 1, Cycles: c, Penalty: float64(c) * (1 + float64(i)*1e-7)})
		sum += c
	}
	set.Deadline = float64(sum)
	return set
}

func checkAnytimeResponse(t *testing.T, req Request, resp Response) {
	t.Helper()
	if resp.Err != nil {
		t.Fatalf("anytime response errored: %v", resp.Err)
	}
	if !resp.Anytime {
		t.Fatal("response not flagged Anytime")
	}
	if resp.CacheHit {
		t.Fatal("anytime response claimed a cache hit")
	}
	in := core.Instance{Tasks: req.Tasks, Proc: req.Proc, FastPow: req.FastPow}
	if err := verify.CheckSolution(in, resp.Solution); err != nil {
		t.Fatalf("anytime solution infeasible: %v", err)
	}
}

// TestAnytimePricedRoute: a DP request whose estimated cost exceeds its
// deadline is answered by the anytime tier — feasible, never cached, at
// least as good as the exact optimum permits, and certified with a gap on
// ideal, discrete-ladder and dormant processors alike.
func TestAnytimePricedRoute(t *testing.T) {
	for _, pname := range []string{"ideal", "discrete", "dormant"} {
		t.Run(pname, func(t *testing.T) {
			e := New(Config{
				AnytimeBudget: 50 * time.Millisecond,
				EstimateCost:  func(Request) float64 { return 1e12 }, // everything "too slow"
			})
			req := Request{Tasks: testSet(t, 1, 30), Proc: testProcs[pname], Solver: "DP", Timeout: 200 * time.Millisecond}
			want, err := directSolve(t, req, core.SolverSpec{})
			if err != nil {
				t.Fatal(err)
			}

			for i := 0; i < 2; i++ {
				resp := e.Solve(context.Background(), req)
				checkAnytimeResponse(t, req, resp)
				if resp.Gap < 0 {
					t.Fatalf("solve %d: no certified gap (gap %v)", i, resp.Gap)
				}
				if resp.Solution.Cost > want.Cost*(1+1e-9) {
					t.Fatalf("solve %d: anytime cost %v worse than exact %v", i, resp.Solution.Cost, want.Cost)
				}
			}
			if st := e.Stats(); st.AnytimeSolves != 2 {
				t.Fatalf("AnytimeSolves = %d, want 2 (anytime answers must not be cached)", st.AnytimeSolves)
			}

			// Without a deadline the priced route is disarmed: exact solve, cached.
			noDL := req
			noDL.Timeout = 0
			if resp := e.Solve(context.Background(), noDL); resp.Anytime || resp.Err != nil {
				t.Fatalf("deadline-free request routed anytime (err %v)", resp.Err)
			}
		})
	}
}

// TestAnytimeCacheHitPrecedence: an exact entry already in the cache wins
// over deadline pricing — the whole point of caching is that hits cost
// nothing, so there is nothing to price.
func TestAnytimeCacheHitPrecedence(t *testing.T) {
	e := New(Config{
		AnytimeBudget: 50 * time.Millisecond,
		EstimateCost:  func(Request) float64 { return 1e12 },
	})
	req := Request{Tasks: testSet(t, 2, 20), Proc: testProcs["ideal"], Solver: "DP"}
	if resp := e.Solve(context.Background(), req); resp.Err != nil || resp.Anytime {
		t.Fatalf("warming solve: err %v, anytime %v", resp.Err, resp.Anytime)
	}
	req.Timeout = time.Millisecond // now deadline-priced, but already cached
	resp := e.Solve(context.Background(), req)
	if resp.Err != nil || !resp.CacheHit || resp.Anytime {
		t.Fatalf("cached exact entry not served: err %v, hit %v, anytime %v", resp.Err, resp.CacheHit, resp.Anytime)
	}
}

// TestAnytimeStateBudgetFallback: an instance that exhausts both DP state
// budgets errors on a plain engine but gets a feasible, gap-certified
// answer once the anytime tier is armed.
func TestAnytimeStateBudgetFallback(t *testing.T) {
	set := hardSparseSet(26)
	req := Request{Tasks: set, Proc: testProcs["ideal"], Solver: "DP"}

	plain := New(Config{})
	if resp := plain.Solve(context.Background(), req); !errors.Is(resp.Err, core.ErrStateBudget) {
		t.Fatalf("plain engine: want ErrStateBudget, got %v", resp.Err)
	}

	armed := New(Config{AnytimeBudget: 50 * time.Millisecond})
	resp := armed.Solve(context.Background(), req)
	checkAnytimeResponse(t, req, resp)
	if resp.Gap < 0 || resp.Gap > 0.5 {
		t.Fatalf("fallback gap bound out of range: %v", resp.Gap)
	}
	if st := armed.Stats(); st.AnytimeSolves != 1 {
		t.Fatalf("AnytimeSolves = %d, want 1", st.AnytimeSolves)
	}
}

// TestAnytimeExplicitSolverCached: an explicit "ANYTIME" request flows
// the normal registry path — fixed generations, deterministic, cacheable.
func TestAnytimeExplicitSolverCached(t *testing.T) {
	e := New(Config{})
	req := Request{Tasks: testSet(t, 3, 24), Proc: testProcs["ideal"], Solver: "ANYTIME"}
	cold := e.Solve(context.Background(), req)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if cold.Anytime || cold.CacheHit {
		t.Fatalf("explicit ANYTIME request mis-flagged: anytime %v, hit %v", cold.Anytime, cold.CacheHit)
	}
	in := core.Instance{Tasks: req.Tasks, Proc: req.Proc}
	if err := verify.CheckSolution(in, cold.Solution); err != nil {
		t.Fatal(err)
	}
	warm := e.Solve(context.Background(), req)
	if !warm.CacheHit {
		t.Fatal("second explicit ANYTIME solve missed the cache")
	}
	if !solutionsBitEqual(warm.Solution, cold.Solution) {
		t.Fatal("cached ANYTIME solution diverged")
	}
}
