//go:build !race

// The race detector makes sync.Pool drop a share of its Puts, so pooled
// scratch is reallocated at random and allocation counts are only
// meaningful without it.

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// TestDPSolveAllocs pins the steady-state heap work of a small solve on
// either row representation, cold and warm-started read-only from a
// checkpoint: the row buffers, take bits and evaluation context all come
// from pools, so the only allocations left are the solution's Accepted
// and Rejected slices.
func TestDPSolveAllocs(t *testing.T) {
	in := cubicInstance(
		task.Task{ID: 1, Cycles: 4, Penalty: 1},
		task.Task{ID: 2, Cycles: 4, Penalty: 1},
		task.Task{ID: 3, Cycles: 4, Penalty: 1},
	)
	for _, d := range []DP{{CheckpointStride: 2}, {CheckpointStride: 2, Sparse: SparseOn}} {
		var st DPState
		sol, _, err := d.SolveCheckpoint(in, &st)
		if err != nil {
			t.Fatal(err)
		}
		if len(sol.Accepted) == 0 || len(sol.Rejected) == 0 {
			t.Fatalf("%s: accepted %v, rejected %v; want both non-empty", d.Name(), sol.Accepted, sol.Rejected)
		}
		mut := withTasks(in, cloneTasks(in))
		mut.Tasks.Tasks[2].Penalty = 2
		for _, c := range []struct {
			name  string
			solve func() error
		}{
			{"solve", func() error { _, err := d.Solve(in); return err }},
			{"warm solve", func() error {
				if _, _, ok, err := d.SolveFrom(&st, mut, false); err != nil || !ok {
					return fmt.Errorf("ok=%v err=%v", ok, err)
				}
				return nil
			}},
		} {
			if avg := testing.AllocsPerRun(100, func() {
				if err := c.solve(); err != nil {
					t.Fatal(err)
				}
			}); avg != 2 {
				t.Errorf("%s: %v allocs per %s, want 2 (Accepted, Rejected)", d.Name(), avg, c.name)
			}
		}
	}
}

// TestSubsetDPCostAllocs pins a warm SubsetDP.Cost, and a warm Fold
// followed by a CostAppend on the kept row, at zero allocations: the row
// record, value buffers, gathered items, kept rows and energy memo all
// live on the SubsetDP.
func TestSubsetDPCostAllocs(t *testing.T) {
	in := cubicInstance(
		task.Task{ID: 1, Cycles: 4, Penalty: 1},
		task.Task{ID: 2, Cycles: 4, Penalty: 1},
		task.Task{ID: 3, Cycles: 4, Penalty: 1},
		task.Task{ID: 4, Cycles: 3, Penalty: 2},
	)
	in.Tasks.Deadline = 100 // wide enough that no row switches to dense
	s, err := NewSubsetDP(DP{Sparse: SparseOn}, in)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{3, 0, 2}
	if _, err := s.Cost(idx); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := s.Cost(idx); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("%v allocs per warm Cost, want 0", avg)
	}
	row := &s.Rows(1)[0]
	if _, err := s.Fold(row, idx[:2]); err != nil || !row.kept {
		t.Fatalf("Fold(%v): kept %v, %v; want a kept row", idx[:2], row.kept, err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := s.Fold(row, idx[:2]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CostAppend(row, idx[2]); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("%v allocs per warm Fold + CostAppend, want 0", avg)
	}

	// A probe whose rows switch to the dense kernel finishes on dense rows
	// in place, still allocation-free.
	set, err := gen.Frame(rand.New(rand.NewSource(3)), gen.Config{N: 60, Deadline: 300, Load: 2, SMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	ladder := Instance{Tasks: set, Proc: speed.Proc{Model: power.XScale(), Levels: power.XScaleLevels()}}
	dp := DP{Sparse: SparseOn}
	if _, st, err := dp.SolveStats(ladder); err != nil || st.DenseRows == 0 {
		t.Fatalf("reference solve: %+v, %v; want dense rows", st, err)
	}
	if s, err = NewSubsetDP(dp, ladder); err != nil {
		t.Fatal(err)
	}
	idx = make([]int, len(set.Tasks))
	for i := range idx {
		idx[i] = i
	}
	if _, err := s.Cost(idx); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := s.Cost(idx); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("%v allocs per warm Cost with dense rows, want 0", avg)
	}
}
