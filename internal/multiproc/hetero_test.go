package multiproc

// Heterogeneous corpus: (a) small-grid optimality — HeteroPartition
// against the HeteroExhaustive reference on two-type vectors; (b) the
// certified HeteroLowerBound never exceeds the exhaustive optimum and is
// exact at M = 1 on unscaled grids. On an all-equal vector the hetero
// solvers are the identical-processor ones (multiproc.go runs them on
// AsHetero), so differential_test.go's seed copies pin that case.

import (
	"math/rand"
	"testing"

	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/verify/oracle"
)

// mustEqualHetero compares two hetero solutions bitwise and recomputes the
// got solution from scratch through the heterogeneous partition oracle.
func mustEqualHetero(t *testing.T, in HeteroInstance, label string, got, want Solution) {
	t.Helper()
	if err := oracle.EqualPartitionSolutions(partitionOf(got), partitionOf(want)); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	if err := oracle.CheckHeteroPartition(in.Tasks, in.Procs, partitionOf(got)); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// bigLittleProcs builds a two-type vector: nBig fast processors and
// nLittle slow ones at the given smax ratio.
func bigLittleProcs(model power.Polynomial, nBig, nLittle int, ratio float64) []speed.Proc {
	procs := make([]speed.Proc, 0, nBig+nLittle)
	for i := 0; i < nBig; i++ {
		procs = append(procs, speed.Proc{Model: model, SMax: 1})
	}
	for i := 0; i < nLittle; i++ {
		procs = append(procs, speed.Proc{Model: model, SMax: 1 / ratio})
	}
	return procs
}

// heteroCorpus builds two-type instances small enough for the exhaustive
// reference: continuous convex processor flavours only, so the certified
// lower bound applies everywhere.
func heteroCorpus(t *testing.T) []HeteroInstance {
	t.Helper()
	vectors := [][]speed.Proc{
		bigLittleProcs(power.Cubic(), 1, 1, 2),
		bigLittleProcs(power.Cubic(), 1, 2, 4),
		bigLittleProcs(power.Cubic(), 2, 2, 2),
		bigLittleProcs(power.XScale(), 1, 1, 2.5),
		{
			{Model: power.Cubic(), SMax: 1},
			{Model: power.XScale(), SMin: 0.15, SMax: 0.6},
		},
	}
	var corpus []HeteroInstance
	for seed := int64(0); seed < 6; seed++ {
		for vi, procs := range vectors {
			smaxTotal := 0.0
			for _, p := range procs {
				smaxTotal += p.SMax
			}
			n := 6 + int(seed)%3
			if len(procs) > 3 {
				n = 6 // (M+1)^n within the exhaustive budget
			}
			set, err := gen.Frame(rand.New(rand.NewSource(seed*53+int64(vi))), gen.Config{
				N: n, Load: (1.2 + float64(seed%3)) * smaxTotal, Deadline: 40,
				Penalty: gen.PenaltyModel(seed % 3),
			})
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, HeteroInstance{Tasks: set, Procs: procs})
		}
	}
	return corpus
}

func TestHeteroPartitionVsExhaustive(t *testing.T) {
	for i, in := range heteroCorpus(t) {
		opt, err := (HeteroExhaustive{}).Solve(in)
		if err != nil {
			t.Fatalf("instance %d: exhaustive: %v", i, err)
		}
		ls, err := (HeteroLTFRejectLS{}).Solve(in)
		if err != nil {
			t.Fatalf("instance %d: HETERO-LS: %v", i, err)
		}
		for _, s := range []HeteroSolver{HeteroPartition{}, HeteroLTFReject{}, HeteroLTFRejectLS{}} {
			got, err := s.Solve(in)
			if err != nil {
				t.Fatalf("instance %d: %s: %v", i, s.Name(), err)
			}
			if err := oracle.CheckHeteroPartition(in.Tasks, in.Procs, partitionOf(got)); err != nil {
				t.Errorf("instance %d: %s: %v", i, s.Name(), err)
			}
			if err := oracle.CheckNotBelow(s.Name(), got.Cost, opt.Cost, 1e-9); err != nil {
				t.Errorf("instance %d: %v", i, err)
			}
			if s.Name() == "HETERO-PART" {
				if got.Cost > opt.Cost*1.05+1e-9 {
					t.Errorf("instance %d: HETERO-PART cost %g more than 5%% above optimum %g", i, got.Cost, opt.Cost)
				}
				// The LS-seeded refinement guarantees PART ≤ LS.
				if err := oracle.CheckNotAbove("HETERO-PART vs HETERO-LS", got.Cost, ls.Cost, 1e-9); err != nil {
					t.Errorf("instance %d: %v", i, err)
				}
			}
		}
	}
}

func TestHeteroLowerBoundNeverExceedsOptimum(t *testing.T) {
	for i, in := range heteroCorpus(t) {
		opt, err := (HeteroExhaustive{}).Solve(in)
		if err != nil {
			t.Fatalf("instance %d: exhaustive: %v", i, err)
		}
		lb, err := HeteroLowerBound(in, 0)
		if err != nil {
			t.Fatalf("instance %d: lower bound: %v", i, err)
		}
		if lb > opt.Cost+1e-9*(1+opt.Cost) {
			t.Errorf("instance %d: lower bound %g exceeds optimum %g", i, lb, opt.Cost)
		}
	}
}

func TestHeteroLowerBoundExactSingleProcessor(t *testing.T) {
	// With M = 1 and an unscaled grid (k = 1) the pooled relaxation *is*
	// the single-processor rejection DP, so the bound is tight.
	for seed := int64(0); seed < 4; seed++ {
		set, err := gen.Frame(rand.New(rand.NewSource(seed)), gen.Config{
			N: 7, Load: 1.8, Deadline: 40, Penalty: gen.PenaltyModel(seed % 3),
		})
		if err != nil {
			t.Fatal(err)
		}
		in := HeteroInstance{Tasks: set, Procs: []speed.Proc{{Model: power.Cubic(), SMax: 1}}}
		opt, err := (HeteroExhaustive{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := HeteroLowerBound(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if diff := opt.Cost - lb; diff > 1e-9*(1+opt.Cost) || diff < -1e-9*(1+opt.Cost) {
			t.Errorf("seed %d: M=1 bound %g not tight against optimum %g", seed, lb, opt.Cost)
		}
	}
}

func TestSolveHeteroCertified(t *testing.T) {
	in := heteroCorpus(t)[0]
	res, err := SolveHeteroCertified(in, HeteroPartition{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gap < 0 {
		t.Fatalf("convex instance reported no certified gap")
	}
	if res.LowerBound > res.Cost+1e-9*(1+res.Cost) {
		t.Errorf("lower bound %g exceeds solution cost %g", res.LowerBound, res.Cost)
	}

	// Discrete ladders decline the bound but not the solve.
	in.Procs = []speed.Proc{
		{Model: power.XScale(), Levels: power.XScaleLevels()},
		{Model: power.XScale(), Levels: power.XScaleLevels()},
	}
	res, err = SolveHeteroCertified(in, HeteroPartition{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gap != -1 {
		t.Errorf("discrete-ladder instance reported gap %g, want -1", res.Gap)
	}
}

func TestHeteroNamesStable(t *testing.T) {
	names := map[string]string{
		(HeteroPartition{}).Name():   "HETERO-PART",
		(HeteroLTFReject{}).Name():   "HETERO-LTF",
		(HeteroLTFRejectLS{}).Name(): "HETERO-LS",
		(HeteroExhaustive{}).Name():  "HETERO-OPT",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("solver name %q, want %q", got, want)
		}
	}
	for _, name := range HeteroSolverNames() {
		s, ok := HeteroSolverByName(name)
		if !ok || s.Name() != name {
			t.Errorf("HeteroSolverByName(%q) = %v, %v", name, s, ok)
		}
	}
	if _, ok := HeteroSolverByName("NOPE"); ok {
		t.Error("HeteroSolverByName accepted an unknown name")
	}
}

func TestEvaluateHeteroErrors(t *testing.T) {
	in := heteroCorpus(t)[0]
	firstID := in.Tasks.Tasks[0].ID

	// Out-of-range processor index.
	if _, err := EvaluateHetero(in, Assignment{firstID: len(in.Procs)}); err == nil {
		t.Error("out-of-range processor index not rejected")
	}
	// Unknown task ID.
	unknown := firstID
	for _, tk := range in.Tasks.Tasks {
		if tk.ID >= unknown {
			unknown = tk.ID + 1
		}
	}
	if _, err := EvaluateHetero(in, Assignment{unknown: 0}); err == nil {
		t.Error("assignment with an unknown task ID not rejected")
	}
	// Overload: everything on the little processor.
	all := Assignment{}
	for _, tk := range in.Tasks.Tasks {
		all[tk.ID] = 1
	}
	if _, err := EvaluateHetero(in, all); err == nil {
		t.Error("per-processor overload not rejected")
	}
	// Invalid instance.
	bad := in
	bad.Procs = nil
	if _, err := EvaluateHetero(bad, Assignment{}); err == nil {
		t.Error("instance without processors not rejected")
	}
}
