package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
	"dvsreject/internal/verify/oracle"
)

// sparseInstance draws one sparse-regime instance (large pairwise-coprime
// cycles, modest n) on the given processor.
func sparseInstance(t *testing.T, seed int64, n int, deadline float64, proc speed.Proc) Instance {
	t.Helper()
	set, err := gen.Sparse(rand.New(rand.NewSource(seed)), gen.SparseConfig{
		N: n, Deadline: deadline, SMax: proc.MaxSpeed(),
		Penalty: gen.PenaltyModel(seed % 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return Instance{Tasks: set, Proc: proc}
}

// bitIdentical fails the test unless the two solutions match bit for bit —
// accepted sets, assignments, and every float of the cost breakdown.
func bitIdentical(t *testing.T, name string, got, want Solution) {
	t.Helper()
	if err := oracle.BitIdenticalFrame(frameOf(got), frameOf(want)); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// TestSparseDenseDifferentialCorpus pins the sparse kernel to the dense
// one over the full differential corpus — every processor flavour,
// monotone and not — on values, accepted sets and DPStats counts, serial
// and row-parallel.
func TestSparseDenseDifferentialCorpus(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, tc := range diffCorpus(t) {
			name := tc.name
			dense, dst, derr := (DP{Sparse: SparseOff, Workers: workers}).SolveStats(tc.in)
			sparse, sst, serr := (DP{Sparse: SparseOn, Workers: workers}).SolveStats(tc.in)
			if (derr != nil) != (serr != nil) {
				t.Errorf("%s (workers=%d): dense err = %v, sparse err = %v", name, workers, derr, serr)
				continue
			}
			if derr != nil {
				continue // e.g. heterogeneous flavours reject identically
			}
			bitIdentical(t, name, sparse, dense)
			if sst.Rows != dst.Rows {
				t.Errorf("%s: sparse rows = %d, dense rows = %d", name, sst.Rows, dst.Rows)
			}
			if dst.SparseCells != 0 || dst.DenseRows != dst.Rows {
				t.Errorf("%s: dense stats report sparse work: %+v", name, dst)
			}
			if sst.SparseCells == 0 {
				t.Errorf("%s: sparse solve reported no sparse cells: %+v", name, sst)
			}
			if sst.SparseCells+sst.Cells > dst.Cells {
				t.Errorf("%s: sparse work %d+%d exceeds dense %d", name, sst.SparseCells, sst.Cells, dst.Cells)
			}
		}
	}
}

// TestSparseDenseCoprimeFamily compares the kernels on the sparse-regime
// family itself, at a grid width the dense kernel still admits.
func TestSparseDenseCoprimeFamily(t *testing.T) {
	procs := map[string]speed.Proc{
		"ideal-cubic":   {Model: power.Cubic(), SMax: 1},
		"leaky-dormant": {Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 2},
		"discrete":      {Model: power.XScale(), Levels: power.XScaleLevels()},
	}
	for pname, proc := range procs {
		for seed := int64(0); seed < 6; seed++ {
			in := sparseInstance(t, 100+seed, 10+int(seed), 20000, proc)
			name := fmt.Sprintf("%s/seed=%d", pname, seed)
			dense, _, derr := (DP{Sparse: SparseOff}).SolveStats(in)
			sparse, sst, serr := (DP{Sparse: SparseOn}).SolveStats(in)
			if derr != nil || serr != nil {
				t.Fatalf("%s: dense err = %v, sparse err = %v", name, derr, serr)
			}
			bitIdentical(t, name, sparse, dense)
			if sst.SparseCells == 0 {
				t.Errorf("%s: no sparse cells recorded", name)
			}
		}
	}
}

// TestSparseSwitchoverDense drives the adaptive switchover: a narrow grid
// with many small tasks fills the rows past 1/8 occupancy even with
// dominance pruning on the dormant curve, so the solve must hand off to
// the dense kernel mid-run and still match it bit for bit.
func TestSparseSwitchoverDense(t *testing.T) {
	proc := speed.Proc{Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 2}
	set, err := gen.Frame(rand.New(rand.NewSource(7)), gen.Config{
		N: 60, Deadline: 3000, Load: 1.2, SMax: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{Tasks: set, Proc: proc}
	for _, workers := range []int{1, 4} {
		dense, _, derr := (DP{Sparse: SparseOff, Workers: workers}).SolveStats(in)
		sparse, sst, serr := (DP{Sparse: SparseOn, Workers: workers}).SolveStats(in)
		if derr != nil || serr != nil {
			t.Fatalf("workers=%d: dense err = %v, sparse err = %v", workers, derr, serr)
		}
		bitIdentical(t, "switchover", sparse, dense)
		if sst.DenseRows == 0 {
			t.Errorf("workers=%d: switchover never fired: %+v", workers, sst)
		}
		if sst.SparseCells == 0 || sst.DenseRows >= sst.Rows {
			t.Errorf("workers=%d: expected a sparse prefix before the dense tail: %+v", workers, sst)
		}
	}
}

// TestSparseBeyondDenseWall is the headline capability: an instance whose
// dense grid exceeds DefaultMaxDPStates solves exactly in auto mode, and
// the optimum matches the exhaustive search.
func TestSparseBeyondDenseWall(t *testing.T) {
	in := sparseInstance(t, 42, 18, 1<<24, speed.Proc{Model: power.Cubic(), SMax: 1})
	if work := int64(18) * (DPGridCapacity(in) + 1); work <= DefaultMaxDPStates {
		t.Fatalf("instance unexpectedly inside the dense wall: %d states", work)
	}
	_, derr := (DP{Sparse: SparseOff}).Solve(in)
	if derr == nil {
		t.Fatal("dense kernel admitted a beyond-wall grid")
	}
	for _, want := range []string{"states", "ApproxDP", "DP-SPARSE"} {
		if !strings.Contains(derr.Error(), want) {
			t.Errorf("dense error %q does not mention %q", derr, want)
		}
	}

	sol, st, err := (DP{}).SolveStats(in) // auto mode routes to sparse rows
	if err != nil {
		t.Fatalf("auto mode failed beyond the wall: %v", err)
	}
	if st.SparseCells == 0 {
		t.Errorf("auto mode did not run sparse: %+v", st)
	}
	esol, eerr := (Exhaustive{}).Solve(in)
	if eerr != nil {
		t.Fatalf("exhaustive reference failed: %v", eerr)
	}
	if diff := math.Abs(sol.Cost - esol.Cost); diff > 1e-9*math.Max(1, math.Abs(esol.Cost)) {
		t.Errorf("sparse cost %v != exhaustive cost %v", sol.Cost, esol.Cost)
	}
}

// TestSparseBudgetEnforced pins the sparse admission semantics: MaxStates
// budgets actual breakpoints, and exceeding it reports a targeted error.
func TestSparseBudgetEnforced(t *testing.T) {
	in := sparseInstance(t, 3, 12, 1e6, speed.Proc{Model: power.Cubic(), SMax: 1})
	_, err := (DP{Sparse: SparseOn, MaxStates: 8}).Solve(in)
	if err == nil {
		t.Fatal("breakpoint budget not enforced")
	}
	if !strings.Contains(err.Error(), "breakpoints") {
		t.Errorf("budget error %q does not mention breakpoints", err)
	}
	// Auto mode under the same tiny budget: the dense grid is over it, the
	// sparse fallback is over it too, so the solve must still error.
	if _, err := (DP{MaxStates: 8}).Solve(in); err == nil {
		t.Error("auto mode ignored the budget")
	}
	// The same instance solves with the default budgets.
	if _, err := (DP{Sparse: SparseOn}).Solve(in); err != nil {
		t.Errorf("default sparse budget rejected a small instance: %v", err)
	}
}

// sparseMutants is the warm-start battery over one instance: the shapes
// the serve delta index and the replanner produce.
func sparseMutants(in Instance) map[string]Instance {
	ts := in.Tasks.Tasks
	n := len(ts)
	clone := func() []task.Task { return append([]task.Task(nil), ts...) }
	with := func(mut []task.Task) Instance {
		c := in
		c.Tasks.Tasks = mut
		return c
	}
	out := map[string]Instance{
		"append": with(append(clone(), task.Task{ID: 1000, Cycles: ts[0].Cycles + 1, Penalty: ts[0].Penalty})),
	}
	m := clone()
	m[n-1].Penalty *= 0.5
	out["tail-penalty"] = with(m)
	m = clone()
	m[n-1].Cycles += 3
	out["tail-cycles"] = with(m)
	out["remove-tail"] = with(clone()[:n-1])
	m = clone()
	m[0].Penalty *= 2
	out["front-penalty"] = with(m)
	return out
}

// TestSparseWarmStart pins sparse checkpoints: SolveCheckpoint matches the
// plain solve, read-only SolveFrom matches cold solves of every mutant,
// and an evolving chain stays bit-identical step by step.
func TestSparseWarmStart(t *testing.T) {
	proc := speed.Proc{Model: power.Cubic(), SMax: 1}
	for seed := int64(0); seed < 4; seed++ {
		in := sparseInstance(t, 200+seed, 16, 1<<22, proc)
		d := DP{Sparse: SparseOn, CheckpointStride: 4}
		var st DPState
		base, _, err := d.SolveCheckpoint(in, &st)
		if err != nil {
			t.Fatalf("seed %d: checkpoint solve: %v", seed, err)
		}
		plain, perr := d.Solve(in)
		if perr != nil {
			t.Fatalf("seed %d: plain solve: %v", seed, perr)
		}
		bitIdentical(t, "checkpoint==plain", base, plain)
		if !st.Valid() {
			t.Fatalf("seed %d: state not valid after checkpoint solve", seed)
		}

		for name, m := range sparseMutants(in) {
			want, errC := d.Solve(m)
			sol, stats, ok, errW := d.SolveFrom(&st, m, false)
			if (errC == nil) != (errW == nil) {
				t.Fatalf("seed %d %s: cold err = %v, warm err = %v", seed, name, errC, errW)
			}
			if errC != nil || !ok {
				continue
			}
			bitIdentical(t, name, sol, want)
			if name == "append" && stats.Rows != 1 {
				t.Errorf("seed %d append: re-ran %d rows, want 1", seed, stats.Rows)
			}
		}

		// Evolving chain: each mutant becomes the next base.
		var est DPState
		if _, _, err := d.SolveCheckpoint(in, &est); err != nil {
			t.Fatal(err)
		}
		cur := in
		for step, name := range []string{"append", "tail-penalty", "remove-tail"} {
			m := sparseMutants(cur)[name]
			want, errC := d.Solve(m)
			sol, _, ok, errW := d.SolveFrom(&est, m, true)
			if (errC == nil) != (errW == nil) {
				t.Fatalf("seed %d evolve step %d: cold err = %v, warm err = %v", seed, step, errC, errW)
			}
			if errC != nil {
				break
			}
			if !ok {
				if _, _, err := d.SolveCheckpoint(m, &est); err != nil {
					t.Fatal(err)
				}
			} else {
				bitIdentical(t, name, sol, want)
			}
			cur = m
		}
	}
}

// TestSparseWarmStartCrossCurve: sparse rows keep only the dominance
// frontier on every processor flavour, so a sparse state recorded on one
// energy curve warms an instance on any other — cubic, dormant XScale,
// XScale ladder, dormant ladder, each into all four — for the same tasks
// and for a task set edited near its end, bit-identical to a cold solve.
func TestSparseWarmStartCrossCurve(t *testing.T) {
	procs := map[string]speed.Proc{
		"cubic":          {Model: power.Cubic(), SMax: 1},
		"dormant":        {Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 2},
		"ladder":         {Model: power.XScale(), Levels: power.XScaleLevels()},
		"dormant-ladder": {Model: power.XScale(), Levels: power.XScaleLevels(), DormantEnable: true, Esw: 2},
	}
	d := DP{Sparse: SparseOn, CheckpointStride: 4}
	for seed := int64(1); seed <= 5; seed++ {
		for from, pf := range procs {
			in := sparseInstance(t, seed, 16, 1<<22, pf)
			var st DPState
			if _, _, err := d.SolveCheckpoint(in, &st); err != nil {
				t.Fatal(err)
			}
			for to, pt := range procs {
				edited := in
				edited.Proc = pt
				edited.Tasks.Tasks = slices.Clone(in.Tasks.Tasks)
				edited.Tasks.Tasks[len(edited.Tasks.Tasks)-2].Penalty *= 2
				for _, target := range []Instance{{Tasks: in.Tasks, Proc: pt}, edited} {
					name := fmt.Sprintf("seed %d %s→%s", seed, from, to)
					want, errC := d.Solve(target)
					sol, _, ok, errW := d.SolveFrom(&st, target, false)
					if errC != nil || errW != nil || !ok {
						t.Fatalf("%s: ok=%v coldErr=%v warmErr=%v", name, ok, errC, errW)
					}
					bitIdentical(t, name, sol, want)
				}
			}
		}
	}
}
