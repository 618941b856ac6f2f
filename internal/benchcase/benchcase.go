// Package benchcase is the one table of core microbenchmark cases. The
// root package's BenchmarkCore runs each row as a sub-benchmark named by
// its report key (BenchmarkCore/SolverDP/n=10), and cmd/bench times the
// same rows into BENCH_core.json and gates on them, so `go test -bench
// Core` and the committed baseline measure the same instances. Every
// instance is drawn from seed 42.
package benchcase

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"dvsreject/internal/anytime"
	"dvsreject/internal/cache"
	"dvsreject/internal/core"
	"dvsreject/internal/dormant"
	"dvsreject/internal/exper"
	"dvsreject/internal/gen"
	"dvsreject/internal/multiproc"
	"dvsreject/internal/online"
	"dvsreject/internal/power"
	"dvsreject/internal/sched/edf"
	"dvsreject/internal/serve"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// Op is a case once set up.
type Op struct {
	// Run is one measured iteration.
	Run func() error
	// Cache, on the serve rows, reads the engine's plan-cache counters
	// after the measured run.
	Cache func() cache.Stats
	// Note, on the two anytime rows, returns the quality headline printed
	// after the table. Runners call it only once every iteration succeeded.
	Note func() string
}

// Case is one row of the table.
type Case struct {
	Name string
	N    int
	M    int // processor count of the multiprocessor rows, else 0
	// Setup builds the workload. Runners call it just before timing the
	// case and drop the Op right after, so one case's live heap (an
	// n=100000 instance, pooled scratch grown to match) never inflates the
	// GC mark cost of the cases that follow.
	Setup func() (Op, error)
}

// Key names the case in reports and sub-benchmarks: Name/n=N, with /M=M
// on the multiprocessor rows.
func (c Case) Key() string {
	if c.M > 0 {
		return fmt.Sprintf("%s/n=%d/M=%d", c.Name, c.N, c.M)
	}
	return fmt.Sprintf("%s/n=%d", c.Name, c.N)
}

var cubic = speed.Proc{Model: power.Cubic(), SMax: 1}

func frame(n int, load, deadline float64) (task.Set, error) {
	return gen.Frame(rand.New(rand.NewSource(42)), gen.Config{N: n, Load: load, Deadline: deadline})
}

// contested is the solver rows' instance: n tasks at the given load on a
// 1000-cycle frame.
func contested(n int, load float64) (core.Instance, error) {
	set, err := frame(n, load, 1000)
	return core.Instance{Tasks: set, Proc: cubic}, err
}

// The incremental-solving rows run on a wide DP grid — same generator
// and load, Deadline 8000 instead of 1000 — because warm starts trade
// O(n·cap) table rebuilds for O(n + cap) fixed work (context setup, final
// scan, reconstruction): the wider the grid, the more a full rebuild
// costs and the more a delta re-solve saves. The narrow n=1000 grid caps
// any warm/cold ratio near 4× on fixed cost alone; the wide shape is the
// regime replanning and serve near-misses actually live in. FastPow is on
// for the whole group (cold references included, so ratios stay
// apples-to-apples): without it the final scan's math.Pow per grid cell
// dominates every warm re-solve.
const wideDeadline = 8000

func wide(n int) (core.Instance, error) {
	set, err := frame(n, 1.5, wideDeadline)
	return core.Instance{Tasks: set, Proc: cubic, FastPow: true}, err
}

// sparse is the pairwise-coprime family of the sparse-regime rows.
func sparse(n int, deadline float64) (core.Instance, error) {
	set, err := gen.Sparse(rand.New(rand.NewSource(42)), gen.SparseConfig{N: n, Deadline: deadline})
	return core.Instance{Tasks: set, Proc: cubic}, err
}

// beyondWall is the n=40 sparse instance on a 2^26 grid — 2.7G cells,
// past the dense state budget entirely.
func beyondWall() (core.Instance, error) {
	in, err := sparse(40, 1<<26)
	if err != nil {
		return in, err
	}
	if _, err := (core.DP{Sparse: core.SparseOff}).Solve(in); err == nil {
		return in, fmt.Errorf("dense kernel unexpectedly admitted the beyond-wall grid")
	}
	return in, nil
}

// multiprocInstance scales total load with M so every processor sees
// load 1.5, the E9 regime.
func multiprocInstance(n, m int) (multiproc.Instance, error) {
	set, err := frame(n, 1.5*float64(m), 1000)
	return multiproc.Instance{Tasks: set, Proc: cubic, M: m}, err
}

// solve is the Op timing solve(in).
func solve[I, S any](solve func(I) (S, error), in I) Op {
	return Op{Run: func() error { _, err := solve(in); return err }}
}

// warmSolve times SolveFrom re-solves of mut from a checkpointed solve of
// the wide n=1000 instance; edit derives mut's tasks from the parent's.
func warmSolve(edit func([]task.Task) []task.Task) (Op, error) {
	in, err := wide(1000)
	if err != nil {
		return Op{}, err
	}
	d := core.DP{CheckpointStride: 8}
	var st core.DPState
	if _, _, err := d.SolveCheckpoint(in, &st); err != nil {
		return Op{}, err
	}
	mut := in
	mut.Tasks.Tasks = edit(in.Tasks.Tasks)
	return Op{Run: func() error {
		_, _, ok, err := d.SolveFrom(&st, mut, false)
		if err == nil && !ok {
			return fmt.Errorf("warm re-solve declined")
		}
		return err
	}}, nil
}

// replan is the online replanning row at n=1000: each operation is one
// steady-state event pair — a near-tail cancellation plus a fresh arrival
// — so the frame holds at 1000 tasks. The incremental replanner evolves
// one checkpointed DP state; the cold one rebuilds the full table per
// event, which is exactly what a replan-from-scratch policy pays.
func replan(cold bool) (Op, error) {
	r := online.NewReplanner(cubic, wideDeadline)
	r.DP = core.DP{CheckpointStride: 16}
	r.Cold = cold
	r.FastPow = true
	rng := rand.New(rand.NewSource(42))
	nextID := 0
	var ids []int
	arrive := func() error {
		nextID++
		if _, err := r.Arrive(task.Task{ID: nextID, Cycles: 1 + rng.Int63n(20), Penalty: rng.Float64() * 5}); err != nil {
			return err
		}
		ids = append(ids, nextID)
		return nil
	}
	for len(ids) < 1000 {
		if err := arrive(); err != nil {
			return Op{}, err
		}
	}
	return Op{Run: func() error {
		i := len(ids) - 4
		id := ids[i]
		ids = append(ids[:i], ids[i+1:]...)
		if _, err := r.Withdraw(id); err != nil {
			return err
		}
		return arrive()
	}}, nil
}

// serveOp times run on eng and reads eng's cache counters afterwards.
func serveOp(eng *serve.Engine, run func() error) Op {
	return Op{Run: run, Cache: func() cache.Stats { return eng.Stats().Cache }}
}

// serveCold re-solves req on an engine built from cfg and reset every
// iteration.
func serveCold(cfg serve.Config, req serve.Request) Op {
	eng := serve.New(cfg)
	return serveOp(eng, func() error {
		eng.Reset()
		return eng.Solve(context.Background(), req).Err
	})
}

// serveReq is the DP request for in, passing err through so it can wrap
// an instance builder's call.
func serveReq(in core.Instance, err error) (serve.Request, error) {
	return serve.Request{Tasks: in.Tasks, Proc: in.Proc, Solver: "DP", FastPow: in.FastPow}, err
}

var deltaConfig = serve.Config{Shards: 1, EntriesPerShard: 64, DeltaStride: 8}

// anytimeOp times 10 ms wall-budget anytime solves of in; its note is
// headline applied to the last result.
func anytimeOp(in core.Instance, headline func(anytime.Result) string) Op {
	s := anytime.Solver{Seed: 1, Budget: 10 * time.Millisecond}
	var last anytime.Result
	return Op{
		Run: func() error {
			var err error
			last, err = s.SolveUntil(context.Background(), in)
			return err
		},
		Note: func() string { return headline(last) },
	}
}

// All returns the table in run order.
func All() []Case {
	var cs []Case
	add := func(name string, n, m int, setup func() (Op, error)) {
		cs = append(cs, Case{Name: name, N: n, M: m, Setup: setup})
	}
	for _, r := range []struct {
		name  string
		s     core.Solver
		sizes []int
	}{
		{"SolverDP", core.DP{}, []int{10, 100, 1000, 10000, 100000}},
		{"SolverApproxDP", core.ApproxDP{Eps: 0.1}, []int{10, 100, 1000, 10000, 100000}},
		{"SolverGreedyDensity", core.GreedyDensity{}, []int{10, 100, 1000, 10000}},
		{"SolverGreedyMarginal", core.GreedyMarginal{}, []int{10, 100, 1000}},
		{"SolverRounding", core.Rounding{}, []int{10, 100, 1000}},
		{"SolverExhaustive", core.Exhaustive{Workers: 1}, []int{12, 16, 20}},
		// Workers = 0 fans the subtree search out to GOMAXPROCS workers.
		{"SolverExhaustiveParallel", core.Exhaustive{}, []int{16, 20}},
		{"SolverRandomAdmission", core.RandomAdmission{Seed: 1, Restarts: 32, Workers: 1}, []int{100, 1000}},
		// The restarts on a GOMAXPROCS-wide pool; the result is identical
		// to the serial run for the same seed.
		{"SolverRandomAdmissionParallel", core.RandomAdmission{Seed: 1, Restarts: 32}, []int{100, 1000}},
	} {
		for _, n := range r.sizes {
			add(r.name, n, 0, func() (Op, error) {
				in, err := contested(n, 1.5)
				return solve(r.s.Solve, in), err
			})
		}
	}
	add("Evaluate", 100, 0, func() (Op, error) {
		in, err := contested(100, 1.2)
		if err != nil {
			return Op{}, err
		}
		ids := make([]int, 0, 50)
		for _, t := range in.Tasks.Tasks[:50] {
			ids = append(ids, t.ID)
		}
		return Op{Run: func() error { _, err := core.Evaluate(in, ids); return err }}, nil
	})
	add("SpeedAssignDiscrete", 1, 0, func() (Op, error) {
		proc := speed.Proc{Model: power.XScale(), SMax: 1, Levels: power.XScaleLevels(), DormantEnable: true, Esw: 0.5}
		i := 0
		return Op{Run: func() error {
			_, err := proc.Assign(float64(i%900)+1, 1000)
			i++
			return err
		}}, nil
	})
	add("EDFSimulate", 20, 0, func() (Op, error) {
		ps, err := gen.Periodic(rand.New(rand.NewSource(42)), gen.PeriodicConfig{N: 20, Utilization: 0.9})
		if err != nil {
			return Op{}, err
		}
		l, err := ps.Hyperperiod()
		if err != nil {
			return Op{}, err
		}
		jobs := edf.PeriodicJobs(ps, l)
		profile := speed.Constant(0.95, 0, float64(l))
		return Op{Run: func() error {
			r, err := edf.Simulate(jobs, profile)
			if err == nil && !r.Feasible() {
				return fmt.Errorf("infeasible bench schedule")
			}
			return err
		}}, nil
	})
	for _, m := range []int{2, 4, 8} {
		add("MultiprocLTFRejectLS", 64, m, func() (Op, error) {
			in, err := multiprocInstance(64, m)
			return solve(multiproc.LTFRejectLS{}.Solve, in), err
		})
	}
	add("MultiprocExhaustive", 10, 2, func() (Op, error) {
		in, err := multiprocInstance(10, 2)
		return solve(multiproc.Exhaustive{}.Solve, in), err
	})
	// A two-type big.LITTLE vector (half the processors at smax 1, half at
	// 0.5) with total load scaled so the platform sees load 1.5.
	for _, m := range []int{2, 4} {
		add("HeteroPartition", 24, m, func() (Op, error) {
			procs, err := gen.BigLittle(gen.BigLittleConfig{NBig: m / 2, NLittle: m - m/2, Ratio: 2})
			if err != nil {
				return Op{}, err
			}
			smaxTotal := 0.0
			for _, p := range procs {
				smaxTotal += p.SMax
			}
			set, err := frame(24, 1.5*smaxTotal, 1000)
			return solve(multiproc.HeteroPartition{}.Solve, multiproc.HeteroInstance{Tasks: set, Procs: procs}), err
		})
	}
	// The online and dormant extensions: the E11 storm and the E14
	// light-load storm on a dormant-enable XScale processor.
	add("OnlineSimulate", 64, 0, func() (Op, error) {
		jobs := online.RandomStorm(rand.New(rand.NewSource(42)), online.StormConfig{N: 64, Load: 1.5})
		return Op{Run: func() error { _, err := online.Simulate(jobs, cubic, online.MarginalCost{}); return err }}, nil
	})
	// Jointly infeasible draws are redrawn as the experiment does.
	add("DormantCompare", 64, 0, func() (Op, error) {
		rng := rand.New(rand.NewSource(42))
		proc := speed.Proc{Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 0.4}
		for attempt := 0; attempt < 100; attempt++ {
			storm := online.RandomStorm(rng, online.StormConfig{N: 64, Load: 0.4, Span: 200})
			jobs := make([]edf.Job, 0, len(storm))
			horizon := 0.0
			for _, j := range storm {
				jobs = append(jobs, edf.Job{TaskID: j.ID, Release: j.Arrival, Deadline: j.Deadline, Cycles: j.Cycles})
				horizon = max(horizon, j.Deadline)
			}
			run := func() error { _, _, err := dormant.Compare(jobs, 1, horizon, proc); return err }
			if run() == nil {
				return Op{Run: run}, nil
			}
		}
		return Op{}, fmt.Errorf("no feasible storm in 100 draws")
	})
	// The serving layer (internal/serve) on the DP n=100 instance the 50×
	// hit-speedup criterion is stated against: a cold solve (cache cleared
	// every iteration), a warm cache hit, and a steady-state batch.
	add("ServeColdSolve", 100, 0, func() (Op, error) {
		req, err := serveReq(contested(100, 1.5))
		return serveCold(serve.Config{}, req), err
	})
	add("ServeWarmHit", 100, 0, func() (Op, error) {
		req, err := serveReq(contested(100, 1.5))
		if err != nil {
			return Op{}, err
		}
		ctx := context.Background()
		eng := serve.New(serve.Config{})
		if err := eng.Solve(ctx, req).Err; err != nil {
			return Op{}, fmt.Errorf("prewarm: %v", err)
		}
		return serveOp(eng, func() error {
			r := eng.Solve(ctx, req)
			if r.Err == nil && !r.CacheHit {
				return fmt.Errorf("warm solve missed the cache")
			}
			return r.Err
		}), nil
	})
	add("ServeBatch64", 100, 0, func() (Op, error) {
		reqs := make([]serve.Request, 64)
		for i := range reqs {
			var err error
			if reqs[i], err = serveReq(contested(100, 1.2+0.01*float64(i))); err != nil {
				return Op{}, err
			}
		}
		eng := serve.New(serve.Config{})
		return serveOp(eng, func() error {
			for _, r := range eng.SolveBatch(context.Background(), reqs) {
				if r.Err != nil {
					return r.Err
				}
			}
			return nil
		}), nil
	})
	add("DPColdWide", 1000, 0, func() (Op, error) {
		in, err := wide(1000)
		return solve(core.DP{}.Solve, in), err
	})
	// Warm near-miss re-solves from a checkpointed parent state. Append
	// diverges at the parent's final row; the tail modify replays from the
	// nearest stride checkpoint.
	add("DPWarmAppend", 1000, 0, func() (Op, error) {
		return warmSolve(func(ts []task.Task) []task.Task {
			return append(ts[:len(ts):len(ts)], task.Task{ID: 1000001, Cycles: 7, Penalty: 3})
		})
	})
	add("DPWarmModify", 1000, 0, func() (Op, error) {
		return warmSolve(func(ts []task.Task) []task.Task {
			ts = append([]task.Task(nil), ts...)
			ts[len(ts)-4].Penalty += 0.5
			return ts
		})
	})
	add("OnlineReplanIncremental", 1000, 0, func() (Op, error) { return replan(false) })
	add("OnlineReplanCold", 1000, 0, func() (Op, error) { return replan(true) })
	// The serve delta path at n=1000: every iteration is a unique near-miss
	// mutant — a fingerprint miss by construction — served by a warm start
	// from the resident parent state. The same-size cold row resets the
	// engine (plan cache and similarity index) every iteration.
	add("ServeColdSolve", 1000, 0, func() (Op, error) {
		req, err := serveReq(wide(1000))
		return serveCold(deltaConfig, req), err
	})
	add("ServeDeltaSolve", 1000, 0, func() (Op, error) {
		req, err := serveReq(wide(1000))
		if err != nil {
			return Op{}, err
		}
		ctx := context.Background()
		eng := serve.New(deltaConfig)
		if err := eng.Solve(ctx, req).Err; err != nil {
			return Op{}, fmt.Errorf("prewarm: %v", err)
		}
		base := req.Tasks.Tasks
		iter := 0
		run := func() error {
			iter++
			ts := append([]task.Task(nil), base...)
			ts[len(ts)-2].Penalty += 1e-9 * float64(iter)
			mut := req
			mut.Tasks.Tasks = ts
			r := eng.Solve(ctx, mut)
			if r.Err == nil && r.CacheHit {
				return fmt.Errorf("mutant hit the exact cache")
			}
			return r.Err
		}
		// One probe confirms the mutants actually ride the delta path
		// before anything is measured.
		if err := run(); err != nil {
			return Op{}, err
		}
		if eng.Stats().DeltaSolves == 0 {
			return Op{}, fmt.Errorf("probe mutant was not delta-solved")
		}
		return serveOp(eng, run), nil
	})
	// The sparse-regime pair: one pairwise-coprime instance on a 2^22-wide
	// grid, solved by the dense kernel (admitted, but ~66M grid cells) and
	// by the sparse dominance-pruned rows (~2k breakpoints). The README's
	// ≥10× sparse-regime claim is the ratio of these two. Beyond the wall
	// only the sparse rows solve; auto mode routes there.
	add("DPSparseRegimeDense", 28, 0, func() (Op, error) {
		in, err := sparse(28, 1<<22)
		return solve(core.DP{Sparse: core.SparseOff}.Solve, in), err
	})
	add("DPSparseRegimeSparse", 28, 0, func() (Op, error) {
		in, err := sparse(28, 1<<22)
		return solve(core.DP{Sparse: core.SparseOn}.Solve, in), err
	})
	add("DPSparseBeyondWall", 40, 0, func() (Op, error) {
		in, err := beyondWall()
		return solve(core.DP{}.Solve, in), err
	})
	// The anytime tier (internal/anytime): the raw SoA fitness kernel (64
	// genomes × 1024 tasks, the zero-alloc claim), the 10 ms wall-budget
	// solve on the DP n=1000 instance and the beyond-wall n=40 instance.
	add("AnytimeFitness1024", 1024, 0, func() (Op, error) {
		const n, pop = 1024, 64
		stride := (n + 63) / 64
		rng := rand.New(rand.NewSource(42))
		cycles := make([]int64, n)
		penalties := make([]float64, n)
		for i := range cycles {
			cycles[i] = 1 + rng.Int63n(100)
			penalties[i] = rng.Float64() * 5
		}
		genomes := make([]uint64, pop*stride)
		for i := range genomes {
			genomes[i] = rng.Uint64()
		}
		w := make([]int64, pop)
		accPen := make([]float64, pop)
		return Op{Run: func() error {
			anytime.EvaluateFitness(cycles, penalties, genomes, stride, w, accPen)
			return nil
		}}, nil
	})
	add("AnytimeFront10ms", 1000, 0, func() (Op, error) {
		in, err := contested(1000, 1.5)
		if err != nil {
			return Op{}, err
		}
		exact, err := (core.DP{}).Solve(in)
		return anytimeOp(in, func(r anytime.Result) string {
			return fmt.Sprintf("anytime quality @10ms      %6.2f%%  (exact DP cost %.6g vs anytime best %.6g, n=1000)",
				100*exact.Cost/r.Best.Cost, exact.Cost, r.Best.Cost)
		}), err
	})
	add("AnytimeBeyondWall", 40, 0, func() (Op, error) {
		in, err := beyondWall()
		return anytimeOp(in, func(r anytime.Result) string {
			return fmt.Sprintf("anytime beyond-wall gap    %7.4f%%  (certified (best−LB)/best @10ms, n=40, D=2^26 grid)", 100*r.Gap)
		}), err
	})
	// The harness itself: one quick-mode pass over every experiment on the
	// full worker pool, the unit CI smokes and the suite scales by.
	add("ExperimentsQuickSuite", len(exper.All()), 0, func() (Op, error) {
		return Op{Run: func() error {
			_, err := exper.RunSuite(exper.All(), exper.Options{Quick: true, Seed: 1})
			return err
		}}, nil
	})
	return cs
}
