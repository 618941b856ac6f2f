// Package multiproc extends task rejection to M DVS processors under
// partitioned EDF — the composition of the target paper with the
// research group's multiprocessor LTF partitioning line, and the natural
// "future work" direction the overview paper sketches.
//
// A solution now assigns every task to one of the M processors or rejects
// it; each processor independently runs its accepted workload at its own
// minimum-energy speed (internal/speed), and the objective remains total
// energy plus total rejection penalty. The single-processor hardness
// trivially carries over (M = 1), and partitioning adds bin-packing
// structure on top.
//
// The solvers (hetero.go) take a HeteroInstance: M processors with
// per-processor speed/power profiles, the two-type big.LITTLE setting of
// the Thammawichai & Kerrigan line generalized to arbitrary profile
// vectors. M identical processors are the one-profile case, so the
// identical-processor API in this file validates an Instance and then
// runs the hetero solver on AsHetero(in): LTF-REJECT is HETERO-LTF,
// LTF-REJECT-LS is HETERO-LS and OPT is HETERO-OPT on M copies of one
// profile.
package multiproc

import (
	"fmt"
	"runtime"

	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// Instance is a multiprocessor rejection problem on M identical processors.
type Instance struct {
	Tasks task.Set
	Proc  speed.Proc // every processor is identical
	M     int        // number of processors, ≥ 1
}

// Validate checks the components. Heterogeneous power coefficients are not
// supported in the multiprocessor extension.
func (in Instance) Validate() error {
	if err := in.Tasks.Validate(); err != nil {
		return err
	}
	if err := in.Proc.Validate(); err != nil {
		return err
	}
	if in.M < 1 {
		return fmt.Errorf("multiproc: M = %d, want ≥ 1", in.M)
	}
	for _, t := range in.Tasks.Tasks {
		if t.PowerCoeff() != 1 {
			return fmt.Errorf("multiproc: task %d has heterogeneous power coefficient", t.ID)
		}
	}
	return nil
}

// capacity is the per-processor workload limit.
func (in Instance) capacity() float64 {
	return in.Proc.Capacity(in.Tasks.Deadline)
}

// Solution is a partitioned admission decision with its cost breakdown.
type Solution struct {
	// PerProc[m] lists the task IDs accepted on processor m, ascending.
	PerProc  [][]int
	Rejected []int

	Energies []float64 // per-processor energy (including idle frames)
	Energy   float64   // Σ Energies
	Penalty  float64
	Cost     float64
}

// Assignment maps task ID → processor index, with -1 for rejected tasks.
type Assignment map[int]int

// Evaluate costs a full assignment exactly. Tasks absent from the map are
// rejected. It errors when any processor exceeds capacity.
func Evaluate(in Instance, assign Assignment) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	return evaluate(AsHetero(in), assign)
}

// Solver is one multiprocessor admission/partitioning algorithm.
type Solver interface {
	Name() string
	Solve(in Instance) (Solution, error)
}

// LTFReject is the Largest-Task-First-style constructive heuristic with
// admission control: consider tasks in non-increasing penalty density
// vi/ci, tentatively place each on the least-loaded processor, and accept
// iff it fits there and its marginal energy on that processor is below its
// penalty. It is HeteroLTFReject on AsHetero(in).
type LTFReject struct{}

// Name implements Solver.
func (LTFReject) Name() string { return "LTF-REJECT" }

// Solve implements Solver.
func (LTFReject) Solve(in Instance) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	return HeteroLTFReject{}.Solve(AsHetero(in))
}

// LTFRejectLS refines LTFReject with steepest-descent local search over
// five move kinds: reject an accepted task, admit a rejected task onto its
// best processor, migrate an accepted task to another processor, swap an
// accepted task out for a rejected one, and exchange two accepted tasks
// across processors (the move that repairs the load balance convexity
// rewards but density-ordered placement misses). It is HeteroLTFRejectLS
// on AsHetero(in).
type LTFRejectLS struct {
	// MaxIterations bounds the move count; 0 means 10·n.
	MaxIterations int
	// DisableExchange restricts the neighbourhood to single-task moves
	// (the pre-exchange behaviour, kept for ablation).
	DisableExchange bool
}

// Name implements Solver.
func (LTFRejectLS) Name() string { return "LTF-REJECT-LS" }

// Solve implements Solver.
func (g LTFRejectLS) Solve(in Instance) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	return HeteroLTFRejectLS(g).Solve(AsHetero(in))
}

// Exhaustive enumerates all (M+1)ⁿ assignments with symmetry reduction on
// identical processors; exact for tiny instances (the experiment suite's
// optimum reference). It is HeteroExhaustive on AsHetero(in), plus a
// parallel search.
type Exhaustive struct {
	// MaxAssignments guards the search space; 0 means 5 million.
	MaxAssignments int64
	// Workers sets the parallel fan-out of Solve: the top of the search
	// tree is split into prefix subtrees that a worker pool explores
	// concurrently against a shared atomic incumbent bound. 0 means
	// GOMAXPROCS, 1 forces the serial search. The returned solution is
	// identical either way; SolveStats always searches serially so its
	// node counts stay deterministic.
	Workers int
}

// Name implements Solver.
func (Exhaustive) Name() string { return "OPT" }

// Solve implements Solver.
func (e Exhaustive) Solve(in Instance) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sol, _, err := exhaustive(AsHetero(in), e.MaxAssignments, workers)
	return sol, err
}

// SolveStats is Solve plus the number of branch-and-bound nodes entered —
// the instrumentation the search-ablation experiments and the differential
// tests read. The search is always serial here, keeping the node counts
// deterministic and comparable across runs.
func (e Exhaustive) SolveStats(in Instance) (Solution, int64, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, 0, err
	}
	return exhaustive(AsHetero(in), e.MaxAssignments, 1)
}
