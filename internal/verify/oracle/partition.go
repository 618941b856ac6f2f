package oracle

import (
	"dvsreject/internal/sched/edf"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// PartitionSolution mirrors multiproc.Solution without importing
// multiproc, so the partition oracles remain callable from that package's
// own test files.
type PartitionSolution struct {
	PerProc  [][]int
	Rejected []int

	Energies []float64
	Energy   float64
	Penalty  float64
	Cost     float64
}

// CheckPartition verifies a partitioned-EDF solution on M identical
// processors from scratch:
//
//   - every task ID appears exactly once, on one processor or rejected,
//     and each list is ascending;
//   - every per-processor workload fits the per-processor capacity;
//   - each Energies[m] equals speed.Proc.Assign on that processor's load,
//     bit-exactly, and Energy is their sum in processor order;
//   - Penalty is the task-order sum of rejected penalties, bit-exactly;
//   - Cost = Energy + Penalty, bit-exactly.
//
// The recomputation follows the arithmetic order of multiproc's evaluator
// (Evaluate and EvaluateHetero share one body) exactly, so all float
// comparisons are bitwise.
func CheckPartition(set task.Set, proc speed.Proc, m int, sol PartitionSolution) error {
	procs := make([]speed.Proc, m)
	for i := range procs {
		procs[i] = proc
	}
	return CheckHeteroPartition(set, procs, sol)
}

// CheckHeteroPartition is CheckPartition over a per-processor profile
// vector (the heterogeneous big.LITTLE setting): each processor's load is
// checked against *its own* capacity and each Energies[m] against its own
// speed.Proc.Assign, bit-exactly, following multiproc.EvaluateHetero's
// arithmetic order. Additionally every processor's accepted set replays
// through the EDF simulator under that processor's own optimal profile —
// the mechanical per-processor schedulability check.
func CheckHeteroPartition(set task.Set, procs []speed.Proc, sol PartitionSolution) error {
	m := len(procs)
	var d Diff
	if len(sol.PerProc) != m {
		d.Add("PerProc has %d processors, want %d", len(sol.PerProc), m)
		return Fail("partition-invariants", "solution", d.Err())
	}

	pos := make(map[int]int, len(set.Tasks))
	for i, t := range set.Tasks {
		pos[t.ID] = i
	}
	owner := make(map[int]int, len(set.Tasks)) // id → proc, -1 for rejected
	checkList := func(label string, procIdx int, ids []int) {
		for i, id := range ids {
			if i > 0 && ids[i-1] >= id {
				d.Add("%s not strictly ascending at index %d: %v", label, i, ids)
				return
			}
			if _, ok := pos[id]; !ok {
				d.Add("%s contains unknown task ID %d", label, id)
				return
			}
			if prev, dup := owner[id]; dup {
				d.Add("task ID %d assigned twice (processor %d and %s)", id, prev, label)
				return
			}
			owner[id] = procIdx
		}
	}
	total := 0
	for pi, ids := range sol.PerProc {
		checkList("processor", pi, ids)
		total += len(ids)
	}
	checkList("rejected", -1, sol.Rejected)
	total += len(sol.Rejected)
	d.Int("assigned+rejected task count", total, len(set.Tasks))
	if !d.Ok() {
		return Fail("partition-invariants", "solution", d.Err())
	}

	// From-scratch recomputation in multiproc's evaluator order: loads and
	// penalty over the task list in position order, then energies in
	// processor order.
	loads := make([]int64, m)
	var penalty float64
	for _, t := range set.Tasks {
		if p, ok := owner[t.ID]; ok && p >= 0 {
			loads[p] += t.Cycles
		} else {
			penalty += t.Penalty
		}
	}
	d.F64("penalty recompute", sol.Penalty, penalty)

	var energy float64
	for p := 0; p < m; p++ {
		capacity := procs[p].Capacity(set.Deadline)
		if float64(loads[p]) > capacity*(1+feasibilitySlack) {
			d.Add("processor %d load %d exceeds capacity %g", p, loads[p], capacity)
			continue
		}
		a, err := procs[p].Assign(float64(loads[p]), set.Deadline)
		if err != nil {
			d.Add("processor %d recompute: %v", p, err)
			continue
		}
		if p < len(sol.Energies) {
			d.F64("energy recompute (processor)", sol.Energies[p], a.Total)
		}
		energy += a.Total
		// Per-processor EDF replay under this processor's own profile.
		if len(sol.PerProc[p]) > 0 {
			jobs := edf.FrameJobs(set, sol.PerProc[p])
			r, err := edf.Simulate(jobs, a.Profile(0))
			if err != nil {
				d.Add("processor %d EDF replay: %v", p, err)
			} else if !r.Feasible() {
				d.Add("processor %d EDF replay missed %d deadlines", p, r.Misses)
			}
		}
	}
	d.Int("energies length", len(sol.Energies), m)
	d.F64("energy recompute (total)", sol.Energy, energy)
	d.F64("cost identity energy+penalty", sol.Cost, sol.Energy+sol.Penalty)

	return Fail("partition-invariants", "solution", d.Err())
}

// EqualPartitionSolutions compares two partitioned solutions field-for-
// field, floats bitwise — the assertion shape of the multiproc
// differential corpus.
func EqualPartitionSolutions(got, want PartitionSolution) error {
	var d Diff
	d.F64("cost", got.Cost, want.Cost)
	d.F64("energy", got.Energy, want.Energy)
	d.F64("penalty", got.Penalty, want.Penalty)
	d.Int("processors", len(got.PerProc), len(want.PerProc))
	if d.Ok() {
		for p := range got.PerProc {
			d.IDs("processor assignment", got.PerProc[p], want.PerProc[p])
		}
	}
	d.IDs("rejected", got.Rejected, want.Rejected)
	d.F64s("energies", got.Energies, want.Energies)
	return d.Err()
}
