// Fuzz target for the warm-start DP: arbitrary instances are solved cold
// with checkpoint recording, then pushed through deterministic near-miss
// mutations (append, tail/mid edits, removal) on both the read-only and
// evolving warm paths. Every warm result must be bit-identical to a cold
// solve of the mutant and pass the EDF oracle replay; a decline (ok=false)
// is always legal — callers fall back to a cold solve — but a wrong answer
// never is.
package core_test

import (
	"fmt"
	"testing"

	"dvsreject/internal/core"
	"dvsreject/internal/task"
	"dvsreject/internal/verify"
)

// deltaMutant is one derived near-miss instance.
type deltaMutant struct {
	name string
	in   core.Instance
}

// deltaMutants derives the mutation battery from an instance: the shapes
// the serve delta index and the online replanner actually produce.
func deltaMutants(in core.Instance) []deltaMutant {
	ts := in.Tasks.Tasks
	n := len(ts)
	if n == 0 {
		return nil
	}
	clone := func() []task.Task { return append([]task.Task(nil), ts...) }
	with := func(name string, mut []task.Task) deltaMutant {
		c := in
		c.Tasks.Tasks = mut
		return deltaMutant{name: name, in: c}
	}
	maxID := 0
	for _, t := range ts {
		if t.ID > maxID {
			maxID = t.ID
		}
	}
	out := []deltaMutant{
		with("append", append(clone(), task.Task{ID: maxID + 1, Cycles: ts[0].Cycles, Penalty: ts[0].Penalty})),
	}
	m := clone()
	m[n-1].Penalty = m[n-1].Penalty/2 + 0.25
	out = append(out, with("tail-penalty", m))
	m = clone()
	m[n/2].Cycles++
	out = append(out, with("mid-cycles", m))
	if n > 1 {
		out = append(out, with("remove-tail", clone()[:n-1]))
	}
	return out
}

// checkDeltaSolve pins every mutant's warm result — read-only
// shared-parent first, then a short evolving chain — against a
// from-scratch solve. The read-only battery runs twice: at the default
// budgets, and at sparseFuzzBudget, where the codec's grids straddle the
// dense wall and a warm start must follow the cold solve's row
// representation.
func checkDeltaSolve(in core.Instance) error {
	d := core.DP{CheckpointStride: 4}
	for _, rd := range []core.DP{d, {CheckpointStride: 4, MaxStates: sparseFuzzBudget}} {
		if err := checkDeltaReadOnly(rd, in); err != nil {
			return fmt.Errorf("MaxStates=%d: %w", rd.MaxStates, err)
		}
	}

	// Evolving chain: each accepted mutant becomes the next base, the way
	// the online replanner drives the state.
	var est core.DPState
	if _, _, err := d.SolveCheckpoint(in, &est); err != nil {
		return nil
	}
	cur := in
	for step := 0; step < 3; step++ {
		muts := deltaMutants(cur)
		if len(muts) == 0 {
			break
		}
		m := muts[step%len(muts)]
		want, errC := (core.DP{}).Solve(m.in)
		sol, _, ok, errW := d.SolveFrom(&est, m.in, true)
		if (errC == nil) != (errW == nil) {
			return fmt.Errorf("delta evolve %s: cold err=%v, warm err=%v", m.name, errC, errW)
		}
		if errC != nil {
			return nil
		}
		if !ok {
			if _, _, err := d.SolveCheckpoint(m.in, &est); err != nil {
				return nil
			}
		} else if err := verify.BitIdenticalSolutions(sol, want); err != nil {
			return fmt.Errorf("delta evolve %s: %w", m.name, err)
		}
		cur = m.in
	}
	return nil
}

// checkDeltaReadOnly records a checkpointed parent solve under d and
// warm-starts every mutant from it read-only: warm and cold d.Solve
// errors must agree, and a taken warm start must be bit-identical to the
// cold solve and pass the EDF oracle.
func checkDeltaReadOnly(d core.DP, in core.Instance) error {
	var st core.DPState
	base, _, err := d.SolveCheckpoint(in, &st)
	if err != nil {
		if st.Valid() {
			return fmt.Errorf("delta: cold solve failed (%v) but left a valid state", err)
		}
		return nil
	}
	if err := verify.CheckSolution(in, base); err != nil {
		return fmt.Errorf("delta: parent solve: %w", err)
	}
	for _, m := range deltaMutants(in) {
		want, errC := d.Solve(m.in)
		sol, _, ok, errW := d.SolveFrom(&st, m.in, false)
		if (errC == nil) != (errW == nil) || (errC != nil && errC.Error() != errW.Error()) {
			return fmt.Errorf("delta %s: cold err=%v, warm err=%v", m.name, errC, errW)
		}
		if errC != nil || !ok {
			continue
		}
		if err := verify.BitIdenticalSolutions(sol, want); err != nil {
			return fmt.Errorf("delta %s: %w", m.name, err)
		}
		if err := verify.CheckSolution(m.in, sol); err != nil {
			return fmt.Errorf("delta %s: oracle: %w", m.name, err)
		}
	}
	return nil
}

// FuzzDeltaSolve decodes arbitrary bytes into an instance and checks the
// incremental warm-start battery: warm ≡ cold, bit for bit, under the
// mutation shapes the serve cache and online replanner generate.
func FuzzDeltaSolve(f *testing.F) {
	for _, s := range verify.SeedInstances() {
		if data, ok := verify.EncodeInstance(s.In); ok {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := verify.DecodeInstance(data)
		if !ok {
			t.Skip()
		}
		if err := checkDeltaSolve(in); err != nil {
			failShrunk(t, in, err, checkDeltaSolve)
		}
	})
}
