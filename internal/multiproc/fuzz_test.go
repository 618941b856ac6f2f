// Fuzz target for the heterogeneous partitioned-rejection tier: arbitrary
// instances are lifted into two-type processor vectors (shape and speed
// ratio fuzzed alongside the bytes) and the tier's contracts are checked —
// every solution survives the heterogeneous partition oracle (including
// per-processor EDF replay), HETERO-PART and HeteroLowerBound match their
// reference copies bit for bit, HETERO-PART never costs more than HETERO-LS,
// nothing undercuts the certified HeteroLowerBound or the exhaustive
// optimum, and on an all-equal vector HETERO-LS and HETERO-OPT match the
// seed copies of the identical-processor solvers bit for bit (node counts
// included).
package multiproc_test

import (
	"fmt"
	"math"
	"testing"

	"dvsreject/internal/core"
	"dvsreject/internal/multiproc"
	"dvsreject/internal/speed"
	"dvsreject/internal/verify"
	"dvsreject/internal/verify/oracle"
)

// fuzzMaxTasks keeps the exhaustive reference inside its assignment
// budget on every fuzzed shape ((M+1)^n ≤ 5^8 < 600k).
const fuzzMaxTasks = 8

func fuzzPartitionOf(s multiproc.Solution) oracle.PartitionSolution {
	return oracle.PartitionSolution{
		PerProc: s.PerProc, Rejected: s.Rejected,
		Energies: s.Energies, Energy: s.Energy, Penalty: s.Penalty, Cost: s.Cost,
	}
}

// heteroFromFuzz lifts a codec instance into a two-type vector: mCount
// processors, nBig of the decoded flavour and the rest slowed by 1/ratio.
// ok=false when the lift leaves the multiproc domain (heterogeneous rho
// tasks, or a derived processor the validator refuses).
func heteroFromFuzz(ci core.Instance, ratio, mCount, nBig int) (multiproc.HeteroInstance, bool) {
	little := ci.Proc
	little.SMax = ci.Proc.SMax / float64(ratio)
	if little.SMin > little.SMax {
		little.SMin = little.SMax / 2
	}
	if little.Validate() != nil {
		little = ci.Proc // fall back to an all-equal vector
	}
	procs := make([]speed.Proc, 0, mCount)
	for i := 0; i < mCount; i++ {
		if i < nBig {
			procs = append(procs, ci.Proc)
		} else {
			procs = append(procs, little)
		}
	}
	set := ci.Tasks
	if len(set.Tasks) > fuzzMaxTasks {
		set.Tasks = set.Tasks[:fuzzMaxTasks]
	}
	in := multiproc.HeteroInstance{Tasks: set, Procs: procs}
	if in.Validate() != nil {
		return multiproc.HeteroInstance{}, false
	}
	return in, true
}

func checkHeteroFuzz(ratio, mCount, nBig int) func(core.Instance) error {
	return func(ci core.Instance) error {
		in, ok := heteroFromFuzz(ci, ratio, mCount, nBig)
		if !ok {
			return nil
		}
		part, err := (multiproc.HeteroPartition{}).Solve(in)
		if err != nil {
			return fmt.Errorf("HETERO-PART: %w", err)
		}
		ref, err := multiproc.RefHeteroPartition(multiproc.HeteroPartition{}, in)
		if err != nil {
			return fmt.Errorf("HETERO-PART reference: %w", err)
		}
		if err := oracle.EqualPartitionSolutions(fuzzPartitionOf(part), fuzzPartitionOf(ref)); err != nil {
			return fmt.Errorf("HETERO-PART vs reference: %w", err)
		}
		ls, err := (multiproc.HeteroLTFRejectLS{}).Solve(in)
		if err != nil {
			return fmt.Errorf("HETERO-LS: %w", err)
		}
		if err := oracle.CheckHeteroPartition(in.Tasks, in.Procs, fuzzPartitionOf(part)); err != nil {
			return fmt.Errorf("HETERO-PART: %w", err)
		}
		if err := oracle.CheckHeteroPartition(in.Tasks, in.Procs, fuzzPartitionOf(ls)); err != nil {
			return fmt.Errorf("HETERO-LS: %w", err)
		}
		if err := oracle.CheckNotAbove("HETERO-PART vs HETERO-LS", part.Cost, ls.Cost, 1e-9); err != nil {
			return err
		}
		lb, lbErr := multiproc.HeteroLowerBound(in, 0)
		if refLB, refErr := multiproc.RefHeteroLowerBound(in, 0); (lbErr == nil) != (refErr == nil) ||
			math.Float64bits(lb) != math.Float64bits(refLB) {
			return fmt.Errorf("HeteroLowerBound %v (%v), reference %v (%v)", lb, lbErr, refLB, refErr)
		}
		if lbErr == nil {
			if err := oracle.CheckNotBelow("HETERO-PART vs HeteroLowerBound", part.Cost, lb, 1e-9); err != nil {
				return err
			}
			if err := oracle.CheckNotBelow("HETERO-LS vs HeteroLowerBound", ls.Cost, lb, 1e-9); err != nil {
				return err
			}
		}
		opt, optNodes, optErr := (multiproc.HeteroExhaustive{MaxAssignments: 600_000}).SolveStats(in)
		if optErr == nil {
			if err := oracle.CheckNotBelow("HETERO-PART vs HETERO-OPT", part.Cost, opt.Cost, 1e-9); err != nil {
				return err
			}
			if err := oracle.CheckNotBelow("HETERO-LS vs HETERO-OPT", ls.Cost, opt.Cost, 1e-9); err != nil {
				return err
			}
			if lbErr == nil {
				if err := oracle.CheckNotBelow("HETERO-OPT vs HeteroLowerBound", opt.Cost, lb, 1e-9); err != nil {
					return err
				}
			}
		}

		// All-equal vector: the hetero solvers must reproduce the seed
		// identical-processor solvers bit for bit, node counts included.
		if ratio == 1 || nBig == mCount {
			ident := multiproc.Instance{Tasks: in.Tasks, Proc: in.Procs[0], M: mCount}
			want, err := multiproc.RefLTFRejectLS(multiproc.LTFRejectLS{}, ident)
			if err != nil {
				return fmt.Errorf("LTF-REJECT-LS reference (degenerate): %w", err)
			}
			if err := oracle.EqualPartitionSolutions(fuzzPartitionOf(ls), fuzzPartitionOf(want)); err != nil {
				return fmt.Errorf("degeneracy HETERO-LS vs LTF-REJECT-LS reference: %w", err)
			}
			if optErr == nil {
				wantOpt, wantNodes, err := multiproc.RefExhaustive(multiproc.Exhaustive{MaxAssignments: 600_000}, ident)
				if err != nil {
					return fmt.Errorf("OPT reference (degenerate): %w", err)
				}
				if err := oracle.EqualPartitionSolutions(fuzzPartitionOf(opt), fuzzPartitionOf(wantOpt)); err != nil {
					return fmt.Errorf("degeneracy HETERO-OPT vs OPT reference: %w", err)
				}
				if optNodes != wantNodes {
					return fmt.Errorf("degeneracy node count %d, reference search %d", optNodes, wantNodes)
				}
			}
		}
		return nil
	}
}

// FuzzHeteroPartition decodes arbitrary bytes into an instance, lifts it
// into a fuzzed two-type processor vector, and checks the heterogeneous
// tier's oracle, ordering, lower-bound and degeneracy contracts.
func FuzzHeteroPartition(f *testing.F) {
	for _, s := range verify.SeedInstances() {
		if data, ok := verify.EncodeInstance(s.In); ok {
			f.Add(data, uint8(2), uint8(3))
			f.Add(data, uint8(0), uint8(1))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, ratioB, shapeB uint8) {
		ci, ok := verify.DecodeInstance(data)
		if !ok {
			t.Skip()
		}
		ratio := 1 + int(ratioB)%8
		mCount := 2 + int(shapeB)%3
		nBig := 1 + int(shapeB/8)%(mCount-1)
		check := checkHeteroFuzz(ratio, mCount, nBig)
		if err := check(ci); err != nil {
			small := verify.Shrink(ci, func(c core.Instance) bool {
				return verify.SameFailure(check(c), err)
			})
			t.Fatalf("ratio=%d M=%d nBig=%d: %v\n\nshrunk repro (%d tasks):\n%s",
				ratio, mCount, nBig, err, len(small.Tasks.Tasks), verify.GoTestCase("ShrunkRepro", small))
		}
	})
}
