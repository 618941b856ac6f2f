package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"dvsreject/internal/core"
	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
	"dvsreject/internal/verify"
)

// mustSet draws a deterministic contested instance.
func mustSet(seed int64, n int) task.Set {
	set, err := gen.Frame(rand.New(rand.NewSource(seed)), gen.Config{
		N:       n,
		Load:    1.2,
		Penalty: gen.PenaltyModel(seed % 3),
	})
	if err != nil {
		panic(err)
	}
	return set
}

func testSet(t *testing.T, seed int64, n int) task.Set {
	t.Helper()
	return mustSet(seed, n)
}

// directSolve is the reference the engine must reproduce bit for bit.
func directSolve(t *testing.T, req Request, spec core.SolverSpec) (core.Solution, error) {
	t.Helper()
	name := req.Solver
	if name == "" {
		name = "DP"
	}
	s, err := core.NewSolver(name, spec)
	if err != nil {
		return core.Solution{}, err
	}
	return s.Solve(core.Instance{Tasks: req.Tasks, Proc: req.Proc})
}

// solutionsBitEqual defers to the shared verification library's
// bit-identity oracle (the serve contract: a cache hit or coalesced
// response is indistinguishable from a cold solve).
func solutionsBitEqual(a, b core.Solution) bool {
	return verify.BitIdenticalSolutions(a, b) == nil
}

var testProcs = map[string]speed.Proc{
	"ideal":    {Model: power.Cubic(), SMax: 1},
	"xscale":   {Model: power.XScale(), SMax: 1},
	"discrete": {Model: power.XScale(), SMax: 1, Levels: power.XScaleLevels()},
	"dormant":  {Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 0.4},
}

func TestSolveMatchesDirectAndCaches(t *testing.T) {
	for pname, proc := range testProcs {
		t.Run(pname, func(t *testing.T) {
			e := New(Config{})
			for _, solver := range []string{"DP", "GREEDY", "S-GREEDY", "APPROX", "OPT"} {
				for seed := int64(0); seed < 3; seed++ {
					req := Request{Tasks: testSet(t, seed, 12), Proc: proc, Solver: solver}
					want, wantErr := directSolve(t, req, core.SolverSpec{})

					cold := e.Solve(context.Background(), req)
					if (cold.Err == nil) != (wantErr == nil) {
						t.Fatalf("%s seed %d: error divergence: %v vs %v", solver, seed, cold.Err, wantErr)
					}
					if wantErr != nil {
						continue
					}
					if cold.CacheHit {
						t.Errorf("%s seed %d: first solve reported a cache hit", solver, seed)
					}
					if !solutionsBitEqual(cold.Solution, want) {
						t.Errorf("%s seed %d: cold solve diverged from direct", solver, seed)
					}

					warm := e.Solve(context.Background(), req)
					if !warm.CacheHit {
						t.Errorf("%s seed %d: second identical solve missed the cache", solver, seed)
					}
					if !solutionsBitEqual(warm.Solution, want) {
						t.Errorf("%s seed %d: cached solve diverged from direct", solver, seed)
					}
				}
			}
		})
	}
}

func TestDefaultSolver(t *testing.T) {
	e := New(Config{})
	req := Request{Tasks: testSet(t, 1, 10), Proc: testProcs["ideal"]}
	got := e.Solve(context.Background(), req)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	want, err := directSolve(t, Request{Tasks: req.Tasks, Proc: req.Proc, Solver: "DP"}, core.SolverSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !solutionsBitEqual(got.Solution, want) {
		t.Error("empty solver name did not resolve to the DP default")
	}
}

func TestErrorsNotCached(t *testing.T) {
	e := New(Config{})
	set := testSet(t, 2, 8)
	set.Tasks[1].ID = set.Tasks[0].ID // duplicate ID: invalid
	req := Request{Tasks: set, Proc: testProcs["ideal"], Solver: "DP"}
	for i := 0; i < 2; i++ {
		r := e.Solve(context.Background(), req)
		if r.Err == nil {
			t.Fatal("invalid instance solved successfully")
		}
		if r.CacheHit {
			t.Error("error response served from cache")
		}
	}
	if st := e.Stats(); st.Cache.Entries != 0 {
		t.Errorf("failed solve left %d cache entries", st.Cache.Entries)
	}

	if r := e.Solve(context.Background(), Request{Tasks: testSet(t, 2, 8), Proc: testProcs["ideal"], Solver: "NOPE"}); r.Err == nil {
		t.Error("unknown solver did not error")
	}
}

func TestPermutedRequestBypassesCache(t *testing.T) {
	e := New(Config{})
	set := testSet(t, 3, 15)
	req := Request{Tasks: set, Proc: testProcs["ideal"], Solver: "GREEDY"}
	if r := e.Solve(context.Background(), req); r.Err != nil {
		t.Fatal(r.Err)
	}

	perm := cloneRequest(req)
	for i, j := 0, len(perm.Tasks.Tasks)-1; i < j; i, j = i+1, j-1 {
		perm.Tasks.Tasks[i], perm.Tasks.Tasks[j] = perm.Tasks.Tasks[j], perm.Tasks.Tasks[i]
	}
	if Fingerprint(req, 0) != Fingerprint(perm, 0) {
		t.Fatal("permutation changed the fingerprint; bypass path not exercised")
	}
	got := e.Solve(context.Background(), perm)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.CacheHit || got.Coalesced {
		t.Error("permuted request was served a cached solution")
	}
	want, err := directSolve(t, perm, core.SolverSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !solutionsBitEqual(got.Solution, want) {
		t.Error("bypass solve diverged from the direct solve of the permuted order")
	}
	if st := e.Stats(); st.Bypasses == 0 {
		t.Error("bypass counter did not move")
	}
}

func TestCancelledContext(t *testing.T) {
	e := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := e.Solve(ctx, Request{Tasks: testSet(t, 4, 10), Proc: testProcs["ideal"], Solver: "DP"})
	if r.Err != context.Canceled {
		t.Errorf("cancelled context returned %v, want context.Canceled", r.Err)
	}
}

func TestSolveBatch(t *testing.T) {
	e := New(Config{Workers: 4})
	a := Request{Tasks: testSet(t, 5, 12), Proc: testProcs["ideal"], Solver: "DP"}
	b := Request{Tasks: testSet(t, 6, 12), Proc: testProcs["xscale"], Solver: "DP"}
	bad := a
	bad.Solver = "NOPE"
	perm := cloneRequest(a)
	perm.Tasks.Tasks[0], perm.Tasks.Tasks[1] = perm.Tasks.Tasks[1], perm.Tasks.Tasks[0]

	reqs := []Request{a, b, a, bad, perm, a}
	out := e.SolveBatch(context.Background(), reqs)
	if len(out) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(out), len(reqs))
	}

	wantA, _ := directSolve(t, a, core.SolverSpec{})
	wantB, _ := directSolve(t, b, core.SolverSpec{})
	wantPerm, _ := directSolve(t, perm, core.SolverSpec{})

	for _, i := range []int{0, 2, 5} {
		if out[i].Err != nil {
			t.Fatalf("response %d errored: %v", i, out[i].Err)
		}
		if !solutionsBitEqual(out[i].Solution, wantA) {
			t.Errorf("response %d diverged from direct solve", i)
		}
	}
	if out[0].Coalesced {
		t.Error("batch leader marked coalesced")
	}
	if !out[2].Coalesced || !out[5].Coalesced {
		t.Error("batch duplicates not marked coalesced")
	}
	if out[1].Err != nil || !solutionsBitEqual(out[1].Solution, wantB) {
		t.Errorf("distinct request diverged: %v", out[1].Err)
	}
	if out[3].Err == nil {
		t.Error("unknown solver in batch did not error")
	}
	if out[4].Err != nil || !solutionsBitEqual(out[4].Solution, wantPerm) {
		t.Errorf("permuted request in batch diverged: %v", out[4].Err)
	}
	if out[4].Coalesced {
		t.Error("permuted request wrongly coalesced with its anagram")
	}

	// Responses own their slices.
	out[0].Solution.Accepted[0] = -1
	again := e.Solve(context.Background(), a)
	if !solutionsBitEqual(again.Solution, wantA) {
		t.Error("mutating a batch response corrupted the cache")
	}
}

func TestReset(t *testing.T) {
	e := New(Config{})
	req := Request{Tasks: testSet(t, 7, 10), Proc: testProcs["ideal"], Solver: "DP"}
	e.Solve(context.Background(), req)
	e.Reset()
	if r := e.Solve(context.Background(), req); r.CacheHit {
		t.Error("cache hit after Reset")
	}
}

// TestHammerBitIdentical is the serving layer's correctness stress test:
// many goroutines fire equal, permuted and near-equal (±1 ulp-ish penalty)
// requests at one engine — with quantization on, so the near-equal variants
// collide into the same cache slot — and every single response must be
// bit-identical to a direct solve of that exact request. Run with -race.
func TestHammerBitIdentical(t *testing.T) {
	base := Request{Tasks: testSet(t, 8, 20), Proc: testProcs["ideal"], Solver: "DP"}

	perm := cloneRequest(base)
	for i, j := 0, len(perm.Tasks.Tasks)-1; i < j; i, j = i+1, j-1 {
		perm.Tasks.Tasks[i], perm.Tasks.Tasks[j] = perm.Tasks.Tasks[j], perm.Tasks.Tasks[i]
	}
	near := cloneRequest(base)
	near.Tasks.Tasks[0].Penalty += 1e-12
	nearPerm := cloneRequest(perm)
	nearPerm.Tasks.Tasks[0].Penalty += 1e-12
	other := Request{Tasks: testSet(t, 9, 20), Proc: testProcs["xscale"], Solver: "GREEDY"}
	discrete := Request{Tasks: testSet(t, 10, 20), Proc: testProcs["discrete"], Solver: "DP"}

	pool := []Request{base, perm, near, nearPerm, other, discrete}
	want := make([]core.Solution, len(pool))
	for i, req := range pool {
		sol, err := directSolve(t, req, core.SolverSpec{})
		if err != nil {
			t.Fatalf("reference solve %d: %v", i, err)
		}
		want[i] = sol
	}
	if Fingerprint(base, 1e-6) != Fingerprint(near, 1e-6) {
		t.Fatal("near-equal request does not collide under quantization; hammer would not cover the bypass path")
	}

	// Tiny quantized cache: slot collisions, evictions and singleflight
	// all under fire at once.
	e := New(Config{Shards: 2, EntriesPerShard: 2, Quantum: 1e-6})

	const goroutines = 8
	const iters = 150
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				if i%10 == 9 {
					// Batch round: random multiset of the pool.
					idx := make([]int, 4)
					reqs := make([]Request, 4)
					for k := range idx {
						idx[k] = rng.Intn(len(pool))
						reqs[k] = pool[idx[k]]
					}
					for k, resp := range e.SolveBatch(context.Background(), reqs) {
						if resp.Err != nil {
							errs <- "batch error: " + resp.Err.Error()
							return
						}
						if !solutionsBitEqual(resp.Solution, want[idx[k]]) {
							errs <- "batch response diverged from direct solve"
							return
						}
					}
					continue
				}
				j := rng.Intn(len(pool))
				resp := e.Solve(context.Background(), pool[j])
				if resp.Err != nil {
					errs <- "solve error: " + resp.Err.Error()
					return
				}
				if !solutionsBitEqual(resp.Solution, want[j]) {
					errs <- "response diverged from direct solve"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	st := e.Stats()
	if st.Cache.Hits == 0 {
		t.Error("hammer produced no cache hits")
	}
	if st.Bypasses == 0 {
		t.Error("hammer produced no bypasses; slot-collision path untested")
	}
}

func TestStatsCount(t *testing.T) {
	e := New(Config{})
	req := Request{Tasks: testSet(t, 11, 10), Proc: testProcs["ideal"], Solver: "DP"}
	e.Solve(context.Background(), req)
	e.Solve(context.Background(), req)
	st := e.Stats()
	if st.Requests != 2 {
		t.Errorf("Requests = %d, want 2", st.Requests)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
	if st.SparseSolves != 0 || st.SparseCells != 0 {
		t.Errorf("dense-regime solve bumped sparse counters: %d solves / %d cells",
			st.SparseSolves, st.SparseCells)
	}
}

// TestStatsSparseSolves pins the sparse counters: a beyond-the-dense-wall
// instance must route through the sparse kernel and report its breakpoint
// footprint.
func TestStatsSparseSolves(t *testing.T) {
	set, err := gen.Sparse(rand.New(rand.NewSource(3)), gen.SparseConfig{N: 18, Deadline: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{})
	ctx := context.Background()
	if resp := e.Solve(ctx, Request{Tasks: set, Proc: testProcs["ideal"], Solver: "DP"}); resp.Err != nil {
		t.Fatalf("cold sparse solve: %v", resp.Err)
	}
	st := e.Stats()
	if st.SparseSolves != 1 || st.SparseCells == 0 {
		t.Fatalf("after cold solve: SparseSolves=%d SparseCells=%d, want 1 solve with cells",
			st.SparseSolves, st.SparseCells)
	}
	// A tail-append near-miss is a second sparse solve.
	mut := set
	mut.Tasks = append(append([]task.Task(nil), set.Tasks...),
		task.Task{ID: 1000, Cycles: 12345, Penalty: 2})
	if resp := e.Solve(ctx, Request{Tasks: mut, Proc: testProcs["ideal"], Solver: "DP"}); resp.Err != nil {
		t.Fatalf("second sparse solve: %v", resp.Err)
	}
	st = e.Stats()
	if st.SparseSolves != 2 {
		t.Fatalf("SparseSolves = %d, want 2", st.SparseSolves)
	}
}

// TestStatsReadersRaceSolvers hammers Stats() — the GET /stats path — from
// dedicated reader goroutines while writers solve, batch and reset
// concurrently. It exists to run under -race: every counter on the stats
// path must be mutex-guarded (LRU shards) or atomic (engine counters), so
// a snapshot taken mid-solve is merely slightly stale, never torn. Readers
// also check per-goroutine monotonicity of the cumulative counters, which
// a torn or unsynchronized read would eventually violate.
func TestStatsReadersRaceSolvers(t *testing.T) {
	e := New(Config{Shards: 4, EntriesPerShard: 8})
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{Tasks: testSet(t, int64(20+i), 12), Proc: testProcs["ideal"], Solver: "DP"}
	}
	ctx := context.Background()
	done := make(chan struct{})

	var readers, writers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev Stats
			for {
				select {
				case <-done:
					return
				default:
				}
				st := e.Stats()
				if st.Requests < prev.Requests || st.Cache.Hits < prev.Cache.Hits ||
					st.Cache.Misses < prev.Cache.Misses || st.Coalesced < prev.Coalesced {
					t.Errorf("stats went backwards: %+v after %+v", st, prev)
					return
				}
				prev = st
			}
		}()
	}

	var issued uint64
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for iter := 0; iter < 30; iter++ {
				n := uint64(0)
				switch iter % 3 {
				case 0:
					e.Solve(ctx, reqs[(w+iter)%len(reqs)])
					n = 1
				case 1:
					e.SolveBatch(ctx, reqs[:3])
					n = 3
				default:
					e.Solve(ctx, reqs[(w*2+iter)%len(reqs)])
					e.Reset()
					n = 1
				}
				mu.Lock()
				issued += n
				mu.Unlock()
			}
		}(w)
	}

	// Readers stay live for the writers' whole run, then drain before the
	// quiescent final snapshot.
	writers.Wait()
	close(done)
	readers.Wait()

	st := e.Stats()
	if st.Requests != issued {
		t.Errorf("Requests = %d, want %d", st.Requests, issued)
	}
}

// TestJumboPurge checks a jumbo request solves correctly and survives the
// post-solve scratch purge (the purge itself is a heap-size heuristic; the
// contract here is correctness before and after).
func TestJumboPurge(t *testing.T) {
	ctx := context.Background()
	e := New(Config{})
	// 10⁴ unit tasks against a tight capacity keep the DP table narrow,
	// so the jumbo threshold is crossed without a jumbo-sized test bill.
	ts := make([]task.Task, jumboTasks)
	for i := range ts {
		ts[i] = task.Task{ID: i + 1, Cycles: 1 + int64(i%3), Penalty: float64(i%7) + 0.5}
	}
	jumbo := Request{Tasks: task.Set{Tasks: ts, Deadline: 100}, Proc: testProcs["ideal"], Solver: "DP"}
	if r := e.Solve(ctx, jumbo); r.Err != nil {
		t.Fatal(r.Err)
	}
	small := Request{Tasks: mustSet(17, 30), Proc: testProcs["ideal"], Solver: "DP"}
	got := e.Solve(ctx, small)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	want, err := directSolve(t, small, core.SolverSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BitIdenticalSolutions(got.Solution, want); err != nil {
		t.Fatal(err)
	}
}
