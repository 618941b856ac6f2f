//go:build !race

// The race detector makes sync.Pool drop a share of its Puts, so pooled
// scratch is reallocated at random and allocation counts are only
// meaningful without it.

package core

import (
	"testing"

	"dvsreject/internal/task"
)

// TestDPSolveAllocs pins the steady-state heap work of a small solve on
// either row representation: the row buffers, take bits and evaluation
// context all come from pools, so the only allocations left are the
// solution's Accepted and Rejected slices.
func TestDPSolveAllocs(t *testing.T) {
	in := cubicInstance(
		task.Task{ID: 1, Cycles: 4, Penalty: 1},
		task.Task{ID: 2, Cycles: 4, Penalty: 1},
		task.Task{ID: 3, Cycles: 4, Penalty: 1},
	)
	for _, d := range []DP{{}, {Sparse: SparseOn}} {
		sol, err := d.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(sol.Accepted) == 0 || len(sol.Rejected) == 0 {
			t.Fatalf("%s: accepted %v, rejected %v; want both non-empty", d.Name(), sol.Accepted, sol.Rejected)
		}
		if avg := testing.AllocsPerRun(100, func() {
			if _, err := d.Solve(in); err != nil {
				t.Fatal(err)
			}
		}); avg != 2 {
			t.Errorf("%s: %v allocs per solve, want 2 (Accepted, Rejected)", d.Name(), avg)
		}
	}
}

// TestSubsetDPCostAllocs pins a warm SubsetDP.Cost at zero allocations:
// the row record, value buffers, gathered items and energy memo all live
// on the SubsetDP.
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
}
