package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// subsetOf materializes the subset instance SubsetDP.Cost(idx) stands for.
func subsetOf(in Instance, idx []int) Instance {
	sub := in
	sub.Tasks.Tasks = make([]task.Task, 0, len(idx))
	for _, i := range idx {
		sub.Tasks.Tasks = append(sub.Tasks.Tasks, in.Tasks.Tasks[i])
	}
	return sub
}

// TestSubsetDPMatchesSolve is SubsetDP's contract as a differential test:
// on every processor flavour, random ordered subsets from singletons to
// the whole set cost exactly what DP-SPARSE returns on the materialized
// subset — the same cost bits and the same error text — including probes
// past a small breakpoint budget and grids whose rows switch to the dense
// kernel. It also counts that both cases were reached.
func TestSubsetDPMatchesSolve(t *testing.T) {
	flavours := []struct {
		name string
		proc speed.Proc
	}{
		{"cubic", speed.Proc{Model: power.Cubic(), SMax: 1}},
		{"xscale-smin", speed.Proc{Model: power.XScale(), SMin: 0.3, SMax: 1}},
		{"xscale-ladder", speed.Proc{Model: power.XScale(), Levels: power.XScaleLevels()}},
		{"dormant", speed.Proc{Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 2}},
	}
	grids := []struct {
		n        int
		deadline float64
		load     float64
	}{
		{8, 1000, 1.5},
		{20, 1000, 1.2},
		{40, 300, 2},     // small cycles on a narrow grid: rows densify
		{12, 20000, 1.3}, // workloads past the energy memo's slot count
	}
	var budgetHits, switchovers, probes int
	rng := rand.New(rand.NewSource(17))
	for _, fl := range flavours {
		for gi, g := range grids {
			set, err := gen.Frame(rand.New(rand.NewSource(int64(gi+1))), gen.Config{
				N: g.n, Deadline: g.deadline, Load: g.load, SMax: fl.proc.MaxSpeed(), Penalty: gen.PenaltyModel(gi % 3),
			})
			if err != nil {
				t.Fatal(err)
			}
			in := Instance{Tasks: set, Proc: fl.proc}
			for _, maxStates := range []int64{0, 60} {
				dp := DP{Sparse: SparseOn, MaxStates: maxStates}
				s, err := NewSubsetDP(dp, in)
				if err != nil {
					t.Fatalf("%s/%d: %v", fl.name, gi, err)
				}
				check := func(idx []int) {
					t.Helper()
					probes++
					got, gotErr := s.Cost(idx)
					want, st, wantErr := dp.SolveStats(subsetOf(in, idx))
					if st.DenseRows > 0 {
						switchovers++
					}
					if errors.Is(wantErr, ErrStateBudget) {
						budgetHits++
					}
					if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
						t.Fatalf("%s/%d MaxStates=%d %v: error %v, Solve %v", fl.name, gi, maxStates, idx, gotErr, wantErr)
					}
					if math.Float64bits(got) != math.Float64bits(want.Cost) {
						t.Fatalf("%s/%d MaxStates=%d %v: cost %v, Solve %v", fl.name, gi, maxStates, idx, got, want.Cost)
					}
				}
				all := make([]int, g.n)
				for i := range all {
					all[i] = i
				}
				check(all)
				for i := 0; i < g.n; i++ {
					check([]int{i})
				}
				for trial := 0; trial < 40; trial++ {
					perm := rng.Perm(g.n)
					check(perm[:1+rng.Intn(g.n)])
				}
			}
		}
	}
	t.Logf("%d probes: %d past the breakpoint budget, %d dense switchovers", probes, budgetHits, switchovers)
	if budgetHits == 0 || switchovers == 0 {
		t.Errorf("over %d probes: %d past the breakpoint budget, %d dense switchovers; want both > 0", probes, budgetHits, switchovers)
	}
}

// TestSubsetDPEdges: the empty subset costs the idle frame, a repeated
// index reports Solve's duplicate-ID error, and the constructor refuses
// what Solve would refuse before its rows start.
func TestSubsetDPEdges(t *testing.T) {
	in := cubicInstance(
		task.Task{ID: 1, Cycles: 4, Penalty: 1},
		task.Task{ID: 2, Cycles: 5, Penalty: 2},
		task.Task{ID: 3, Cycles: 6, Penalty: 3},
	)
	dp := DP{Sparse: SparseOn}
	s, err := NewSubsetDP(dp, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range [][]int{{}, {2, 0, 2}} {
		got, gotErr := s.Cost(idx)
		want, wantErr := dp.Solve(subsetOf(in, idx))
		if math.Float64bits(got) != math.Float64bits(want.Cost) || (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%v: Cost = %v, %v; Solve = %v, %v", idx, got, gotErr, want.Cost, wantErr)
		}
	}
	if _, err := s.Cost([]int{1, 1}); err == nil {
		t.Error("repeated index accepted")
	}

	bad := in
	bad.Tasks.Deadline = 0
	if _, err := NewSubsetDP(dp, bad); err == nil {
		t.Error("invalid instance accepted")
	}
	het := in
	het.Tasks.Tasks = append([]task.Task(nil), in.Tasks.Tasks...)
	het.Tasks.Tasks[0].Rho = 2
	if _, err := NewSubsetDP(dp, het); !errors.Is(err, ErrHeterogeneous) {
		t.Errorf("heterogeneous instance: %v, want ErrHeterogeneous", err)
	}
}
