package multiproc

import (
	"math"
	"math/rand"
	"testing"

	"dvsreject/internal/core"
	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

func twoProc(tasks ...task.Task) Instance {
	return Instance{
		Tasks: task.Set{Deadline: 10, Tasks: tasks},
		Proc:  speed.Proc{Model: power.Cubic(), SMax: 1},
		M:     2,
	}
}

func TestInstanceValidate(t *testing.T) {
	ok := twoProc(task.Task{ID: 1, Cycles: 4, Penalty: 1})
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.M = 0
	if err := bad.Validate(); err == nil {
		t.Error("M = 0 accepted")
	}
	het := twoProc(task.Task{ID: 1, Cycles: 4, Penalty: 1, Rho: 2})
	if err := het.Validate(); err == nil {
		t.Error("heterogeneous task accepted")
	}
}

// TestIdenticalErrorTexts pins the identical-processor API's error texts.
// The solvers run on AsHetero(in) only after Instance.Validate, so a bad
// processor or M = 0 keeps its identical-processor wording rather than the
// hetero validator's ("processor 0: …", "no processors").
func TestIdenticalErrorTexts(t *testing.T) {
	calls := []struct {
		name string
		run  func(Instance) error
	}{
		{"LTFReject", func(in Instance) error { _, err := (LTFReject{}).Solve(in); return err }},
		{"LTFRejectLS", func(in Instance) error { _, err := (LTFRejectLS{}).Solve(in); return err }},
		{"Exhaustive", func(in Instance) error { _, err := (Exhaustive{}).Solve(in); return err }},
		{"ExhaustiveWorkers4", func(in Instance) error { _, err := (Exhaustive{Workers: 4}).Solve(in); return err }},
		{"SolveStats", func(in Instance) error { _, _, err := (Exhaustive{}).SolveStats(in); return err }},
		{"Evaluate", func(in Instance) error { _, err := Evaluate(in, Assignment{}); return err }},
	}
	base := func() Instance {
		return twoProc(task.Task{ID: 1, Cycles: 4, Penalty: 1}, task.Task{ID: 2, Cycles: 6, Penalty: 2})
	}
	noM, noSMax, rho, dup, wide := base(), base(), base(), base(), base()
	noM.M = 0
	noSMax.Proc.SMax = 0
	rho.Tasks.Tasks[0].Rho = 2
	dup.Tasks.Tasks[1].ID = 1
	wide.Tasks.Tasks = nil
	for i := 0; i < 20; i++ {
		wide.Tasks.Tasks = append(wide.Tasks.Tasks, task.Task{ID: i, Cycles: 1, Penalty: 1})
	}
	each := func(msg string) []string { return []string{msg, msg, msg, msg, msg, msg} }
	limit := "multiproc: exhaustive search needs 14348907+ assignments, over the limit 5000000"
	cases := []struct {
		name string
		in   Instance
		want []string // per call, "" for success
	}{
		{"M=0", noM, each("multiproc: M = 0, want ≥ 1")},
		{"SMax=0", noSMax, each("speed: smax = 0, want finite > 0")},
		{"rho=2", rho, each("multiproc: task 1 has heterogeneous power coefficient")},
		{"duplicate ID", dup, each("task set: duplicate task ID 1")},
		{"20 tasks on M=2", wide, []string{"", "", limit, limit, limit, ""}},
	}
	for _, tc := range cases {
		for i, call := range calls {
			got := ""
			if err := call.run(tc.in); err != nil {
				got = err.Error()
			}
			if got != tc.want[i] {
				t.Errorf("%s %s: error %q, want %q", tc.name, call.name, got, tc.want[i])
			}
		}
	}

	over := twoProc(task.Task{ID: 1, Cycles: 8, Penalty: 1}, task.Task{ID: 2, Cycles: 8, Penalty: 1})
	for _, tc := range []struct {
		name   string
		assign Assignment
		want   string
	}{
		{"processor out of range", Assignment{1: 2}, "multiproc: task 1 assigned to processor 2 of 2"},
		{"unknown ID", Assignment{1: 0, 7: 1}, "multiproc: assignment references 1 unknown task IDs"},
		{"over capacity", Assignment{1: 0, 2: 0},
			"multiproc: processor 0: speed: workload exceeds smax·D, no feasible assignment: W = 16, capacity = 10"},
	} {
		_, err := Evaluate(over, tc.assign)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Evaluate %s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestEvaluateSplitsLoad(t *testing.T) {
	in := twoProc(
		task.Task{ID: 1, Cycles: 4, Penalty: 1},
		task.Task{ID: 2, Cycles: 6, Penalty: 2},
		task.Task{ID: 3, Cycles: 5, Penalty: 3},
	)
	sol, err := Evaluate(in, Assignment{1: 0, 2: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Proc 0: W=4 → 0.064·... E = 4³/100 = 0.64; proc 1: 6³/100 = 2.16.
	if math.Abs(sol.Energies[0]-0.64) > 1e-9 || math.Abs(sol.Energies[1]-2.16) > 1e-9 {
		t.Errorf("energies = %v, want [0.64, 2.16]", sol.Energies)
	}
	if sol.Penalty != 3 {
		t.Errorf("penalty = %v, want 3 (task 3 rejected)", sol.Penalty)
	}
	if math.Abs(sol.Cost-(0.64+2.16+3)) > 1e-9 {
		t.Errorf("cost = %v", sol.Cost)
	}
}

func TestEvaluateErrors(t *testing.T) {
	in := twoProc(task.Task{ID: 1, Cycles: 4, Penalty: 1})
	if _, err := Evaluate(in, Assignment{1: 5}); err == nil {
		t.Error("out-of-range processor accepted")
	}
	over := twoProc(
		task.Task{ID: 1, Cycles: 8, Penalty: 1},
		task.Task{ID: 2, Cycles: 8, Penalty: 1},
	)
	if _, err := Evaluate(over, Assignment{1: 0, 2: 0}); err == nil {
		t.Error("over-capacity processor accepted")
	}
}

func TestTwoProcessorsBeatOne(t *testing.T) {
	// The convexity of E makes splitting work across processors cheaper:
	// two tasks of 5 cycles on one processor cost E(10) = 10; split, they
	// cost 2·E(5) = 2.5.
	tasks := []task.Task{
		{ID: 1, Cycles: 5, Penalty: 100},
		{ID: 2, Cycles: 5, Penalty: 100},
	}
	one := Instance{Tasks: task.Set{Deadline: 10, Tasks: tasks}, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}, M: 1}
	two := one
	two.M = 2
	s1, err := (Exhaustive{}).Solve(one)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := (Exhaustive{}).Solve(two)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Cost-10) > 1e-9 {
		t.Errorf("M=1 cost = %v, want 10", s1.Cost)
	}
	if math.Abs(s2.Cost-2.5) > 1e-9 {
		t.Errorf("M=2 cost = %v, want 2.5", s2.Cost)
	}
}

func TestSingleProcessorMatchesCoreDP(t *testing.T) {
	// With M = 1 the multiprocessor optimum must equal the core optimum.
	for seed := int64(0); seed < 8; seed++ {
		set, err := gen.Frame(rand.New(rand.NewSource(seed)), gen.Config{N: 9, Load: 1.4, Deadline: 50})
		if err != nil {
			t.Fatal(err)
		}
		proc := speed.Proc{Model: power.Cubic(), SMax: 1}
		mOpt, err := (Exhaustive{}).Solve(Instance{Tasks: set, Proc: proc, M: 1})
		if err != nil {
			t.Fatal(err)
		}
		cOpt, err := (core.DP{}).Solve(core.Instance{Tasks: set, Proc: proc})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mOpt.Cost-cOpt.Cost) > 1e-6*(1+cOpt.Cost) {
			t.Errorf("seed %d: multiproc M=1 cost %v != core DP cost %v", seed, mOpt.Cost, cOpt.Cost)
		}
	}
}

func TestHeuristicsNeverBeatExhaustive(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		set, err := gen.Frame(rand.New(rand.NewSource(seed)), gen.Config{
			N: 8, Load: float64(2 + seed%3), Deadline: 40, Penalty: gen.PenaltyModel(seed % 3),
		})
		if err != nil {
			t.Fatal(err)
		}
		in := Instance{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}, M: 3}
		opt, err := (Exhaustive{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Solver{LTFReject{}, LTFRejectLS{}} {
			sol, err := s.Solve(in)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if sol.Cost < opt.Cost-1e-6*(1+opt.Cost) {
				t.Errorf("seed %d: %s cost %v beats OPT %v", seed, s.Name(), sol.Cost, opt.Cost)
			}
			if sol.Cost > 3*opt.Cost+1e-9 {
				t.Errorf("seed %d: %s cost %v is > 3× OPT %v", seed, s.Name(), sol.Cost, opt.Cost)
			}
		}
	}
}

func TestLocalSearchNeverWorseThanConstructive(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		set, err := gen.Frame(rand.New(rand.NewSource(seed)), gen.Config{
			N: 20, Load: 2.5, Deadline: 100, Penalty: gen.PenaltyProportional,
		})
		if err != nil {
			t.Fatal(err)
		}
		in := Instance{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}, M: 4}
		a, err := (LTFReject{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := (LTFRejectLS{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if b.Cost > a.Cost+1e-9 {
			t.Errorf("seed %d: local search worsened: %v > %v", seed, b.Cost, a.Cost)
		}
	}
}

func TestExhaustiveLimit(t *testing.T) {
	set := task.Set{Deadline: 10}
	for i := 0; i < 20; i++ {
		set.Tasks = append(set.Tasks, task.Task{ID: i, Cycles: 1, Penalty: 1})
	}
	in := Instance{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}, M: 4}
	if _, err := (Exhaustive{}).Solve(in); err == nil {
		t.Error("20 tasks × 5 choices accepted without limit error")
	}
}

func TestOverloadedSystemRejects(t *testing.T) {
	// Load 3 on M = 2: at least a third of the work must be rejected.
	set, err := gen.Frame(rand.New(rand.NewSource(3)), gen.Config{N: 12, Load: 3, Deadline: 30})
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}, M: 2}
	sol, err := (LTFRejectLS{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Rejected) == 0 {
		t.Error("overloaded multiprocessor rejected nothing")
	}
	for m, ids := range sol.PerProc {
		var w int64
		for _, id := range ids {
			tk, _ := set.ByID(id)
			w += tk.Cycles
		}
		if float64(w) > in.capacity()*(1+1e-9) {
			t.Errorf("processor %d overloaded: %d > %v", m, w, in.capacity())
		}
	}
}

func TestNamesStable(t *testing.T) {
	if (LTFReject{}).Name() != "LTF-REJECT" ||
		(LTFRejectLS{}).Name() != "LTF-REJECT-LS" ||
		(Exhaustive{}).Name() != "OPT" {
		t.Error("solver names changed")
	}
}

func TestExchangeNeighbourhoodNeverWorse(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		set, err := gen.Frame(rand.New(rand.NewSource(seed)), gen.Config{
			N: 12, Load: 4.5, Deadline: 60, Penalty: gen.PenaltyModel(seed % 3),
		})
		if err != nil {
			t.Fatal(err)
		}
		in := Instance{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}, M: 3}
		basic, err := (LTFRejectLS{DisableExchange: true}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		full, err := (LTFRejectLS{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if full.Cost > basic.Cost+1e-9 {
			t.Errorf("seed %d: exchange neighbourhood worsened: %v > %v", seed, full.Cost, basic.Cost)
		}
	}
}
