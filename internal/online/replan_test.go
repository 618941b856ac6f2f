package online

import (
	"math/rand"
	"testing"

	"dvsreject/internal/core"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
	"dvsreject/internal/verify"
)

// TestReplannerMatchesColdSolve drives a mixed arrival/cancel/revise
// stream and pins every incremental plan to a from-scratch core.DP solve
// of the same task set, bit for bit.
func TestReplannerMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	proc := speed.Proc{Model: power.Cubic(), SMax: 1}
	const deadline = 120
	r := NewReplanner(proc, deadline)
	r.DP = core.DP{CheckpointStride: 8}

	var live []int // IDs currently in the frame
	for ev := 0; ev < 80; ev++ {
		var (
			got core.Solution
			err error
		)
		switch {
		case len(live) > 5 && ev%9 == 4:
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			got, err = r.Withdraw(id)
		case len(live) > 3 && ev%5 == 2:
			id := live[rng.Intn(len(live))]
			got, err = r.Revise(task.Task{ID: id, Cycles: 1 + rng.Int63n(20), Penalty: rng.Float64() * 5})
		default:
			id := ev + 1
			live = append(live, id)
			got, err = r.Arrive(task.Task{ID: id, Cycles: 1 + rng.Int63n(20), Penalty: rng.Float64() * 5})
		}
		if err != nil {
			t.Fatalf("event %d: %v", ev, err)
		}
		in := core.Instance{Tasks: task.Set{Tasks: currentTasks(r), Deadline: deadline}, Proc: proc}
		want, err := (core.DP{}).Solve(in)
		if err != nil {
			t.Fatalf("event %d: cold ref: %v", ev, err)
		}
		if err := verify.BitIdenticalSolutions(got, want); err != nil {
			t.Fatalf("event %d (n=%d): %v", ev, r.Len(), err)
		}
		if err := verify.CheckSolution(in, got); err != nil {
			t.Fatalf("event %d: oracle: %v", ev, err)
		}
	}
	st := r.Stats()
	if st.WarmSolves == 0 {
		t.Fatal("stream never took the incremental path")
	}
	if st.RowsRerun >= st.RowsFull {
		t.Fatalf("incremental replan saved nothing: reran %d of %d rows", st.RowsRerun, st.RowsFull)
	}
	t.Logf("events=%d warm=%d cold=%d rows %d/%d (%.1f%%)",
		st.Events, st.WarmSolves, st.ColdSolves, st.RowsRerun, st.RowsFull,
		100*float64(st.RowsRerun)/float64(st.RowsFull))
}

// currentTasks snapshots the replanner's task list via its public events
// API surface (the tasks slice itself is private).
func currentTasks(r *Replanner) []task.Task {
	in := r.Snapshot()
	return in.Tasks.Tasks
}

// TestReplannerArrivalsMostlyWarm asserts the headline case — a pure
// arrival stream — stays on the incremental path after the first event.
func TestReplannerArrivalsMostlyWarm(t *testing.T) {
	proc := speed.Proc{Model: power.Cubic(), SMax: 1}
	r := NewReplanner(proc, 100)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		if _, err := r.Arrive(task.Task{ID: i + 1, Cycles: 1 + rng.Int63n(10), Penalty: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.ColdSolves != 1 || st.WarmSolves != 49 {
		t.Fatalf("arrival stream: cold=%d warm=%d, want 1/49", st.ColdSolves, st.WarmSolves)
	}
}

// TestReplannerEdgeCases covers duplicate arrivals, unknown withdrawals
// and draining the frame back to empty.
func TestReplannerEdgeCases(t *testing.T) {
	proc := speed.Proc{Model: power.Cubic(), SMax: 1}
	r := NewReplanner(proc, 50)
	if _, err := r.Arrive(task.Task{ID: 1, Cycles: 5, Penalty: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Arrive(task.Task{ID: 1, Cycles: 3, Penalty: 1}); err == nil {
		t.Fatal("duplicate arrival accepted")
	}
	if _, err := r.Withdraw(99); err == nil {
		t.Fatal("unknown withdrawal accepted")
	}
	sol, err := r.Withdraw(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || len(sol.Accepted) != 0 || sol.Cost != 0 {
		t.Fatalf("drained frame: len=%d sol=%+v", r.Len(), sol)
	}
	// The frame keeps working after draining.
	if _, err := r.Arrive(task.Task{ID: 2, Cycles: 4, Penalty: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestReplannerDenseWall streams arrivals across the DP's dense budget
// wall: ten tasks on 100 workload levels fill a 1000-state budget, so
// from the eleventh on a cold solve runs sparse rows. The warm replanner
// must take every arrival the cold one takes, with the same plans.
func TestReplannerDenseWall(t *testing.T) {
	proc := speed.Proc{Model: power.Cubic(), SMax: 1}
	const deadline = 99
	dp := core.DP{MaxStates: 1000, CheckpointStride: 4}
	warm, cold := NewReplanner(proc, deadline), NewReplanner(proc, deadline)
	warm.DP, cold.DP, cold.Cold = dp, dp, true
	for id := 1; id <= 12; id++ {
		tk := task.Task{ID: id, Cycles: int64(4 + id%7), Penalty: float64(1 + id%4)}
		want, err := cold.Arrive(tk)
		if err != nil {
			t.Fatalf("arrival %d: cold: %v", id, err)
		}
		got, err := warm.Arrive(tk)
		if err != nil {
			t.Fatalf("arrival %d: warm: %v", id, err)
		}
		if err := verify.BitIdenticalSolutions(got, want); err != nil {
			t.Fatalf("arrival %d: %v", id, err)
		}
	}
}
