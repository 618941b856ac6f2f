package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"dvsreject/internal/core"
	"dvsreject/internal/gen"
	"dvsreject/internal/multiproc"
	"dvsreject/internal/serve"
	"dvsreject/internal/verify"
	"dvsreject/internal/verify/oracle"
)

// reference is the answer a direct in-process solve gives for an instance:
// core.NewSolver for single-processor requests, SolveHeteroCertified with
// the engine's default hetero solver for profile-vector ones.
type reference struct {
	sol    core.Solution
	hetero *multiproc.HeteroResult
	err    error
}

func (inst *instance) reference() *reference {
	inst.once.Do(func() {
		req := inst.req
		if len(req.Procs) > 0 {
			res, err := multiproc.SolveHeteroCertified(multiproc.HeteroInstance{Tasks: req.Tasks, Procs: req.Procs}, multiproc.HeteroPartition{})
			inst.ref = reference{hetero: &res, err: err}
			return
		}
		s, err := core.NewSolver(req.Solver, core.SolverSpec{})
		if err != nil {
			inst.ref.err = err
			return
		}
		inst.ref.sol, inst.ref.err = s.Solve(core.Instance{Tasks: req.Tasks, Proc: req.Proc, FastPow: req.FastPow})
	})
	return &inst.ref
}

// outcome is what one served request returned.
type outcome struct {
	sol    core.Solution
	hetero *serve.HeteroInfo
	// full marks a solution decoded from the wire protocol, which carries
	// the speed assignment; the HTTP surface returns only the decision,
	// energy, penalty and cost.
	full bool
	shed bool  // refused by admission control (429)
	err  error // transport or server error
	// raw is an HTTP answer not yet decoded (see decode); nil once decoded
	// and on the wire protocol.
	raw []byte
}

// errMismatch marks an answer that differs from the direct solve.
var errMismatch = errors.New("answer differs from the direct solve")

// check compares one served answer with the direct solve of its instance,
// bit for bit, and replays it through the verification oracles. A nil
// result means the answer is exactly what the solver library computes.
func check(inst *instance, out outcome) error {
	ref := inst.reference()
	if ref.err != nil {
		return fmt.Errorf("reference solve: %w", ref.err)
	}
	if ref.hetero != nil {
		return checkHetero(inst, out, ref.hetero)
	}
	in := core.Instance{Tasks: inst.req.Tasks, Proc: inst.req.Proc, FastPow: inst.req.FastPow}
	got := out.sol
	if out.full {
		if err := verify.BitIdenticalSolutions(got, ref.sol); err != nil {
			return fmt.Errorf("%w: %v", errMismatch, err)
		}
	} else {
		if !sameDecision(got, ref.sol) {
			return errMismatch
		}
		// The oracle's EDF replay needs the speed assignment, which HTTP
		// does not carry; the served fields are bit-identical to the
		// reference, so borrow its assignment.
		got.Assignment, got.PerTaskSpeeds = ref.sol.Assignment, ref.sol.PerTaskSpeeds
	}
	err := verify.CheckSolution(in, got)
	if err != nil && edfRoundingMiss(err, in, got) {
		return errEDFRounding
	}
	return err
}

// errEDFRounding marks an answer whose only oracle complaint is an EDF
// replay miss that a relative tolerance clears. The simulator in
// internal/sched/edf compares completion times with an absolute 1e-9
// slack, below the float resolution of a wide frame (D = 2^24 on the
// sparse instances), so an exactly fitting schedule can finish a few ulps
// past its deadline. Such answers are counted apart, not as failures.
var errEDFRounding = errors.New("EDF replay miss within float rounding")

// edfRoundingMiss reports whether err is only an EDF replay miss and the
// frame still fits: every task of a frame is released at 0 with deadline
// D, so the schedule is feasible when its speed profile runs the accepted
// cycles within D, up to a relative 1e-12.
func edfRoundingMiss(err error, in core.Instance, sol core.Solution) bool {
	var f *oracle.Failure
	if !errors.As(err, &f) || f.Detail == nil {
		return false
	}
	msg := f.Detail.Error()
	if !strings.HasPrefix(msg, "EDF replay missed") || strings.Contains(msg, ";") {
		return false
	}
	accepted := make(map[int]bool, len(sol.Accepted))
	for _, id := range sol.Accepted {
		accepted[id] = true
	}
	var w float64
	for _, t := range in.Tasks.Tasks {
		if accepted[t.ID] {
			w += float64(t.Cycles)
		}
	}
	const rel = 1e-12
	a := sol.Assignment
	return a.LoTime+a.HiTime <= in.Tasks.Deadline*(1+rel) &&
		a.LoSpeed*a.LoTime+a.HiSpeed*a.HiTime >= w*(1-rel)
}

// sameDecision compares the fields every protocol carries: the accepted
// and rejected IDs and the energy, penalty and cost bit patterns.
func sameDecision(got, want core.Solution) bool {
	bits := math.Float64bits
	return slices.Equal(got.Accepted, want.Accepted) && slices.Equal(got.Rejected, want.Rejected) &&
		bits(got.Energy) == bits(want.Energy) && bits(got.Penalty) == bits(want.Penalty) &&
		bits(got.Cost) == bits(want.Cost)
}

func checkHetero(inst *instance, out outcome, ref *multiproc.HeteroResult) error {
	h := out.hetero
	if h == nil {
		return fmt.Errorf("%w: no hetero placement in the answer", errMismatch)
	}
	want := core.Solution{Rejected: ref.Rejected, Energy: ref.Energy, Penalty: ref.Penalty, Cost: ref.Cost}
	for _, ids := range ref.PerProc {
		want.Accepted = append(want.Accepted, ids...)
	}
	slices.Sort(want.Accepted)
	bits := math.Float64bits
	if !sameDecision(out.sol, want) || len(h.PerProc) != len(ref.PerProc) ||
		!slices.Equal(h.Energies, ref.Energies) ||
		bits(h.LowerBound) != bits(ref.LowerBound) || bits(h.Gap) != bits(ref.Gap) {
		return errMismatch
	}
	for m := range h.PerProc {
		if !slices.Equal(h.PerProc[m], ref.PerProc[m]) {
			return errMismatch
		}
	}
	return oracle.CheckHeteroPartition(inst.req.Tasks, inst.req.Procs, oracle.PartitionSolution{
		PerProc: h.PerProc, Rejected: out.sol.Rejected, Energies: h.Energies,
		Energy: out.sol.Energy, Penalty: out.sol.Penalty, Cost: out.sol.Cost,
	})
}

// gapOf is the certified optimality gap of a served answer: the hetero
// tier's bound, or 0 for the exact DP.
func gapOf(out outcome) float64 {
	if out.hetero != nil && out.hetero.Gap > 0 {
		return out.hetero.Gap
	}
	return 0
}

// selfTest feeds the checker a correct answer and corrupted copies of it,
// single-processor and hetero, and fails unless it accepts the first and
// catches every corruption.
func selfTest() error {
	set, err := gen.Frame(rand.New(rand.NewSource(1)), gen.Config{N: 20, Load: 1.2})
	if err != nil {
		return err
	}
	single, err := newSingle(set, false)
	if err != nil {
		return err
	}
	good := outcome{sol: single.reference().sol, full: true}
	if err := check(single, good); err != nil {
		return fmt.Errorf("checker rejects a correct answer: %v", err)
	}
	bad := good
	bad.sol.Cost = math.Nextafter(bad.sol.Cost, math.Inf(1))
	if check(single, bad) == nil {
		return errors.New("checker missed a one-ulp cost change")
	}
	httpOut := good
	httpOut.full = false
	httpOut.sol.Accepted = slices.Clone(good.sol.Accepted[1:])
	if check(single, httpOut) == nil {
		return errors.New("checker missed a dropped accepted task")
	}

	pair := newHeteroStream(1).next()
	ref := pair[0].reference()
	if ref.err != nil {
		return ref.err
	}
	info := &serve.HeteroInfo{PerProc: ref.hetero.PerProc, Energies: ref.hetero.Energies, LowerBound: ref.hetero.LowerBound, Gap: ref.hetero.Gap}
	hsol := core.Solution{Rejected: ref.hetero.Rejected, Energy: ref.hetero.Energy, Penalty: ref.hetero.Penalty, Cost: ref.hetero.Cost}
	for _, ids := range ref.hetero.PerProc {
		hsol.Accepted = append(hsol.Accepted, ids...)
	}
	slices.Sort(hsol.Accepted)
	if err := check(pair[0], outcome{sol: hsol, hetero: info}); err != nil {
		return fmt.Errorf("checker rejects a correct hetero answer: %v", err)
	}
	badInfo := *info
	badInfo.Gap = math.Nextafter(info.Gap, 1)
	if check(pair[0], outcome{sol: hsol, hetero: &badInfo}) == nil {
		return errors.New("checker missed a changed hetero gap")
	}
	return nil
}
