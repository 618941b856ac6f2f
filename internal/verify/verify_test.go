package verify_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvsreject/internal/core"
	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
	"dvsreject/internal/verify"
)

// TestCheckInstanceCleanOnRandomInstances is the library's own smoke: the
// full oracle battery must pass on instances drawn from every flavour.
func TestCheckInstanceCleanOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draws := 40
	if testing.Short() {
		draws = 10
	}
	for i := 0; i < draws; i++ {
		in, f, err := verify.Draw(rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckInstance(in, verify.Options{}); err != nil {
			t.Errorf("draw %d (%s): %v", i, f.Name, err)
		}
	}
}

// TestCheckMetamorphicCleanOnRandomInstances holds the metamorphic
// relations on random instances.
func TestCheckMetamorphicCleanOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draws := 30
	if testing.Short() {
		draws = 8
	}
	for i := 0; i < draws; i++ {
		in, f, err := verify.Draw(rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckMetamorphic(in, verify.Options{}); err != nil {
			t.Errorf("draw %d (%s): %v", i, f.Name, err)
		}
	}
}

// TestCheckSolutionDetectsCorruption is the negative control: a tampered
// solution must trip the oracles.
func TestCheckSolutionDetectsCorruption(t *testing.T) {
	in := cubicInstance()
	sol, err := (core.DP{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckSolution(in, sol); err != nil {
		t.Fatalf("clean solution rejected: %v", err)
	}

	bad := sol
	bad.Energy += 1e-9
	bad.Cost = bad.Energy + bad.Penalty
	if verify.CheckSolution(in, bad) == nil {
		t.Error("tampered energy not detected")
	}

	bad = sol
	bad.Cost += 1e-9
	if verify.CheckSolution(in, bad) == nil {
		t.Error("broken cost identity not detected")
	}

	bad = sol
	bad.Accepted = append([]int{}, sol.Accepted...)
	bad.Accepted = append(bad.Accepted, 999)
	if verify.CheckSolution(in, bad) == nil {
		t.Error("unknown accepted ID not detected")
	}
}

// TestCheckSolutionLongFrame is the regression test for the EDF replay's
// slack: the exact sparse-DP answer on this cold-wire-shaped frame
// (D = 2²⁴) fills its frame to within float resolution, and an absolute
// 1e-9 replay slack — below one ulp at that scale — reported it as a
// deadline miss.
func TestCheckSolutionLongFrame(t *testing.T) {
	const seed = 7
	set, err := gen.Sparse(rand.New(rand.NewSource(seed)), gen.SparseConfig{
		N: 32 + seed%9, Penalty: gen.PenaltyModel(seed % 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	in := core.Instance{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}}
	sol, err := (core.DP{Sparse: core.SparseOn}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckSolution(in, sol); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
}

// TestBitIdenticalSolutions covers the serve-layer identity helper.
func TestBitIdenticalSolutions(t *testing.T) {
	in := cubicInstance()
	a, err := (core.DP{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (core.DP{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BitIdenticalSolutions(a, b); err != nil {
		t.Fatalf("repeated solve not bit-identical: %v", err)
	}
	b.Energy += 1e-12
	if verify.BitIdenticalSolutions(a, b) == nil {
		t.Error("1-ulp drift not detected")
	}
}

// TestCodecRoundTrip pins the fuzz codec: the adversarial whale/shrimp
// penalty structure from TestRoundingSingleTaskAnchor must encode exactly
// and decode back to the same instance.
func TestCodecRoundTrip(t *testing.T) {
	in := core.Instance{
		Tasks: task.Set{
			Deadline: 10,
			Tasks: []task.Task{
				{ID: 1, Cycles: 9, Penalty: 100},
				{ID: 2, Cycles: 2, Penalty: 12},
				{ID: 3, Cycles: 2, Penalty: 12},
				{ID: 4, Cycles: 2, Penalty: 12},
				{ID: 5, Cycles: 2, Penalty: 12},
				{ID: 6, Cycles: 2, Penalty: 12},
			},
		},
		Proc: speed.Proc{Model: power.Cubic(), SMax: 1},
	}
	data, ok := verify.EncodeInstance(in)
	if !ok {
		t.Fatal("whale instance not encodable")
	}
	back, ok := verify.DecodeInstance(data)
	if !ok {
		t.Fatal("encoded bytes not decodable")
	}
	if len(back.Tasks.Tasks) != len(in.Tasks.Tasks) || back.Tasks.Deadline != in.Tasks.Deadline {
		t.Fatalf("round trip changed shape: %+v", back.Tasks)
	}
	for i, got := range back.Tasks.Tasks {
		want := in.Tasks.Tasks[i]
		if got != want {
			t.Errorf("task %d: %+v, want %+v", i, got, want)
		}
	}
	if back.FastPow != in.FastPow {
		t.Error("FastPow flag lost")
	}

	// Arbitrary bytes must decode to valid instances (or be rejected).
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		if in, ok := verify.DecodeInstance(buf); ok {
			if err := in.Validate(); err != nil {
				t.Fatalf("decoded instance invalid: %v", err)
			}
		}
	}
}

// TestSeedInstancesRepresentable pins the canonical fuzz seeds to the
// codec grid: every seed must encode, decode back to the identical
// instance, and pass the full oracle sweep (the committed corpus files
// under testdata/fuzz/ are these exact bytes).
func TestSeedInstancesRepresentable(t *testing.T) {
	for _, s := range verify.SeedInstances() {
		data, ok := verify.EncodeInstance(s.In)
		if !ok {
			t.Errorf("seed %q not codec-representable", s.Name)
			continue
		}
		back, ok := verify.DecodeInstance(data)
		if !ok {
			t.Errorf("seed %q does not decode", s.Name)
			continue
		}
		if back.Tasks.Deadline != s.In.Tasks.Deadline || back.FastPow != s.In.FastPow ||
			len(back.Tasks.Tasks) != len(s.In.Tasks.Tasks) {
			t.Errorf("seed %q round trip changed shape", s.Name)
			continue
		}
		for i := range back.Tasks.Tasks {
			if back.Tasks.Tasks[i] != s.In.Tasks.Tasks[i] {
				t.Errorf("seed %q task %d: %+v, want %+v", s.Name, i, back.Tasks.Tasks[i], s.In.Tasks.Tasks[i])
			}
		}
		if err := verify.CheckInstance(back, verify.Options{}); err != nil {
			t.Errorf("seed %q fails oracles: %v", s.Name, err)
		}
	}
}

// TestShrinkerDemoGreedyGap is the acceptance demo: seed an 8-task
// instance where the single-pass greedy pays a capacity-trap premium over
// DP, shrink it under that predicate, and require the minimum to be at
// most 4 tasks, written as a JSON repro under testdata/shrunk/ with a
// ready-to-paste Go test case.
func TestShrinkerDemoGreedyGap(t *testing.T) {
	in := core.Instance{
		Tasks: task.Set{
			Deadline: 10,
			Tasks: []task.Task{
				{ID: 1, Cycles: 10, Penalty: 10.5}, // density 1.05: greedy grabs it, fills the frame
				{ID: 2, Cycles: 5, Penalty: 5},     // density 1.0: the better choice greedy then can't fit
				{ID: 3, Cycles: 3, Penalty: 0},
				{ID: 4, Cycles: 4, Penalty: 0},
				{ID: 5, Cycles: 1, Penalty: 0.5},
				{ID: 6, Cycles: 2, Penalty: 0},
				{ID: 7, Cycles: 6, Penalty: 0},
				{ID: 8, Cycles: 1, Penalty: 0.25},
			},
		},
		Proc: speed.Proc{Model: power.Cubic(), SMax: 1},
	}
	pred := func(c core.Instance) bool {
		if c.Validate() != nil {
			return false
		}
		g, err := (core.GreedyDensity{}).Solve(c)
		if err != nil {
			return false
		}
		d, err := (core.DP{}).Solve(c)
		if err != nil {
			return false
		}
		return g.Cost > 1.2*d.Cost
	}
	if !pred(in) {
		t.Fatal("seeded demo instance does not exhibit the greedy gap")
	}
	small := verify.Shrink(in, pred)
	if n := len(small.Tasks.Tasks); n > 4 {
		t.Fatalf("shrinker left %d tasks, want ≤ 4: %+v", n, small.Tasks.Tasks)
	}
	if !pred(small) {
		t.Fatal("shrunk instance no longer exhibits the failure")
	}

	// JSON repro round trip through the committed example location.
	r := verify.NewRepro(small, nil, "demo: GREEDY exceeds 1.2×DP on a capacity trap (expected heuristic gap, shrinker workflow example)")
	path := filepath.Join("testdata", "shrunk", "greedy-gap-demo.json")
	if err := verify.WriteRepro(path, r); err != nil {
		t.Fatal(err)
	}
	back, err := verify.ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !pred(back.Instance()) {
		t.Fatal("repro read back from JSON no longer exhibits the failure")
	}

	// The emitted Go test case must mention every load-bearing literal.
	src := verify.GoTestCase("ShrunkGreedyGapDemo", small)
	for _, want := range []string{"func TestShrunkGreedyGapDemo", "core.Instance", "verify.CheckInstance", "power.Polynomial"} {
		if !strings.Contains(src, want) {
			t.Errorf("generated test case missing %q:\n%s", want, src)
		}
	}
}

// TestShrinkPredicateRejectsSeed returns the input unchanged.
func TestShrinkPredicateRejectsSeed(t *testing.T) {
	in := cubicInstance()
	out := verify.Shrink(in, func(core.Instance) bool { return false })
	if len(out.Tasks.Tasks) != len(in.Tasks.Tasks) {
		t.Fatal("Shrink modified an instance its predicate rejected")
	}
}

// TestReproSurvivesMissingFile keeps the error path honest.
func TestReproSurvivesMissingFile(t *testing.T) {
	if _, err := verify.ReadRepro(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("expected error for missing repro")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := verify.ReadRepro(bad); err == nil {
		t.Fatal("expected error for malformed repro")
	}
}

func cubicInstance() core.Instance {
	return core.Instance{
		Tasks: task.Set{
			Deadline: 10,
			Tasks: []task.Task{
				{ID: 1, Cycles: 9, Penalty: 100},
				{ID: 2, Cycles: 2, Penalty: 12},
				{ID: 3, Cycles: 2, Penalty: 12},
				{ID: 4, Cycles: 2, Penalty: 12},
				{ID: 5, Cycles: 2, Penalty: 12},
				{ID: 6, Cycles: 2, Penalty: 12},
			},
		},
		Proc: speed.Proc{Model: power.Cubic(), SMax: 1},
	}
}
