package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"dvsreject/internal/conc"
	"dvsreject/internal/core"
)

// panicSolver panics on every solve, counting its calls.
type panicSolver struct{ calls *atomic.Int64 }

func (panicSolver) Name() string { return "PANIC-TEST" }

func (p panicSolver) Solve(core.Instance) (core.Solution, error) {
	p.calls.Add(1)
	panic("injected solver panic")
}

// TestSolverPanicContained: a panicking solver costs its request an
// ErrSolverPanic error and nothing more. The engine keeps serving, keeps
// no cache entry, replication push or delta parent of the run, and a
// repeat request runs the solver again.
func TestSolverPanicContained(t *testing.T) {
	var calls, pushes atomic.Int64
	core.RegisterSolver("PANIC-TEST", func(core.SolverSpec) (core.Solver, error) { return panicSolver{&calls}, nil })
	e := New(Config{OnColdSolve: func(Request, core.Solution) { pushes.Add(1) }})
	ctx := context.Background()
	bad := Request{Tasks: mustSet(3, 8), Proc: testProcs["ideal"], Solver: "PANIC-TEST"}
	good := Request{Tasks: mustSet(4, 8), Proc: testProcs["ideal"], Solver: "DP"}

	for i := int64(1); i <= 2; i++ {
		if resp := e.Solve(ctx, bad); !errors.Is(resp.Err, ErrSolverPanic) {
			t.Fatalf("solve %d: error %v, want ErrSolverPanic", i, resp.Err)
		}
		if calls.Load() != i {
			t.Fatalf("solve %d ran the solver %d times in all", i, calls.Load())
		}
	}
	st := e.Stats()
	if st.Panics != 2 || st.Cache.Entries != 0 || st.DeltaParents != 0 || pushes.Load() != 0 {
		t.Fatalf("after two panics: panics %d, cache entries %d, delta parents %d, pushes %d; want 2, 0, 0, 0",
			st.Panics, st.Cache.Entries, st.DeltaParents, pushes.Load())
	}
	if resp := e.Solve(ctx, good); resp.Err != nil {
		t.Fatalf("engine stopped serving after a panic: %v", resp.Err)
	}

	out := e.SolveBatch(ctx, []Request{bad, good})
	if !errors.Is(out[0].Err, ErrSolverPanic) || out[1].Err != nil {
		t.Fatalf("batch errors %v, %v; want ErrSolverPanic, nil", out[0].Err, out[1].Err)
	}
	if calls.Load() != 3 || e.Stats().Panics != 3 {
		t.Fatalf("batch: %d solver calls, %d panics; want 3, 3", calls.Load(), e.Stats().Panics)
	}

	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	wbad := wireInstance(3, 8)
	wbad.Solver = "PANIC-TEST"
	resp, body := postJSON(t, srv.URL+"/solve", wbad)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "solver panicked") {
		t.Errorf("/solve on a panic: %d %s, want 500 naming the panic", resp.StatusCode, body)
	}
	resp, body = postJSON(t, srv.URL+"/batch", WireBatch{Requests: []WireRequest{wbad, wireInstance(4, 8)}})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "solver panicked") {
		t.Errorf("/batch on a panic: %d %s, want 200 with the panic inline", resp.StatusCode, body)
	}
}

// workerPanicSolver panics on the second worker of a 2-worker
// conc.ForEach, the fan-out every parallel solver goes through.
type workerPanicSolver struct{ calls *atomic.Int64 }

func (workerPanicSolver) Name() string { return "WORKER-PANIC-TEST" }

func (p workerPanicSolver) Solve(core.Instance) (core.Solution, error) {
	p.calls.Add(1)
	conc.ForEach(2, 2, func(i int) (struct{}, error) {
		if i == 1 {
			panic("injected worker panic")
		}
		return struct{}{}, nil
	})
	return core.Solution{}, nil
}

// TestSolverWorkerPanicContained: a panic on a solver's worker goroutine
// reaches the engine's recover through conc.ForEach's re-panic, so the
// request gets a 500 wrapping ErrSolverPanic and the daemon lives on,
// with no cache entry kept and a repeat request running the solver again.
func TestSolverWorkerPanicContained(t *testing.T) {
	var calls atomic.Int64
	core.RegisterSolver("WORKER-PANIC-TEST", func(core.SolverSpec) (core.Solver, error) { return workerPanicSolver{&calls}, nil })
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	req := wireInstance(5, 8)
	req.Solver = "WORKER-PANIC-TEST"

	resp, body := postJSON(t, srv.URL+"/solve", req)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "solver panicked") ||
		!strings.Contains(string(body), "injected worker panic") {
		t.Fatalf("/solve on a worker panic: %d %s, want 500 naming the panic", resp.StatusCode, body)
	}
	if st := e.Stats(); st.Panics != 1 || st.Cache.Entries != 0 {
		t.Fatalf("after the panic: panics %d, cache entries %d; want 1, 0", st.Panics, st.Cache.Entries)
	}
	r, err := req.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	if resp := e.Solve(context.Background(), r); !errors.Is(resp.Err, ErrSolverPanic) {
		t.Fatalf("repeat: error %v, want ErrSolverPanic", resp.Err)
	}
	if calls.Load() != 2 || e.Stats().Panics != 2 {
		t.Fatalf("repeat: %d solver calls, %d panics; want 2, 2", calls.Load(), e.Stats().Panics)
	}
}
