package serve

// Tests for the heterogeneous profile-vector route: a Request with a
// non-empty Procs vector lands on the internal/multiproc tier, the
// response carries the certified HeteroInfo extension, cache hits return
// bit-identical solutions with a cloned extension, and an M=1 hetero
// request can never alias the single-processor encoding of the same
// profile.

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"dvsreject/internal/core"
	"dvsreject/internal/multiproc"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
)

func heteroTestProcs() []speed.Proc {
	return []speed.Proc{
		{Model: power.Cubic(), SMax: 1},
		{Model: power.Cubic(), SMax: 0.5},
	}
}

func TestSolveHeteroMatchesDirect(t *testing.T) {
	e := New(Config{})
	req := Request{Tasks: testSet(t, 3, 10), Procs: heteroTestProcs()}

	want, err := multiproc.SolveHeteroCertified(
		multiproc.HeteroInstance{Tasks: req.Tasks, Procs: req.Procs},
		multiproc.HeteroPartition{})
	if err != nil {
		t.Fatal(err)
	}

	cold := e.Solve(context.Background(), req)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if cold.CacheHit {
		t.Error("first hetero solve reported a cache hit")
	}
	if cold.Hetero == nil {
		t.Fatal("hetero response missing its HeteroInfo extension")
	}
	if cold.Solution.Cost != want.Cost || cold.Solution.Energy != want.Energy {
		t.Errorf("cold solve cost %g/%g, direct %g/%g",
			cold.Solution.Cost, cold.Solution.Energy, want.Cost, want.Energy)
	}
	if cold.Hetero.LowerBound != want.LowerBound || cold.Hetero.Gap != want.Gap {
		t.Errorf("cold solve bound %g gap %g, direct %g gap %g",
			cold.Hetero.LowerBound, cold.Hetero.Gap, want.LowerBound, want.Gap)
	}
	if got := e.Stats().HeteroSolves; got != 1 {
		t.Errorf("HeteroSolves = %d after one cold solve, want 1", got)
	}

	warm := e.Solve(context.Background(), req)
	if !warm.CacheHit {
		t.Error("second identical hetero solve missed the cache")
	}
	if !solutionsBitEqual(warm.Solution, cold.Solution) {
		t.Error("cache hit diverged from the cold hetero solve")
	}
	if warm.Hetero == nil {
		t.Fatal("cache hit dropped the HeteroInfo extension")
	}
	if warm.Hetero == cold.Hetero {
		t.Error("cache hit returned the cached HeteroInfo without cloning")
	}
	if len(warm.Hetero.PerProc) != len(cold.Hetero.PerProc) ||
		warm.Hetero.LowerBound != cold.Hetero.LowerBound ||
		warm.Hetero.Gap != cold.Hetero.Gap {
		t.Error("cache hit HeteroInfo diverged from the cold solve")
	}
	if got := e.Stats().HeteroSolves; got != 1 {
		t.Errorf("HeteroSolves = %d after a cache hit, want 1", got)
	}
}

// TestHeteroAnswerRebuiltExactly: a cached hetero entry keeps only its
// task placement, and every answer — the cold solve, a coalesced waiter,
// a cache hit — rebuilds Accepted, Rejected and PerProc exactly as the
// direct solve lists them, nil rows of idle processors included.
// Mutating one answer leaves the next hit untouched.
func TestHeteroAnswerRebuiltExactly(t *testing.T) {
	big, little := speed.Proc{Model: power.Cubic(), SMax: 1}, speed.Proc{Model: power.Cubic(), SMax: 0.5}
	shuffled := testSet(t, 7, 12)
	slices.Reverse(shuffled.Tasks)
	cheap := testSet(t, 8, 6)
	for i := range cheap.Tasks {
		cheap.Tasks[i].Penalty = 1e-9 // everything rejected
	}
	cases := map[string]Request{
		"herd":         {Tasks: testSet(t, 3, 18), Procs: []speed.Proc{big, big, little, little}},
		"idle-proc":    {Tasks: testSet(t, 4, 2), Procs: []speed.Proc{big, little, little}},
		"ids-reversed": {Tasks: shuffled, Procs: []speed.Proc{big, little}},
		"all-rejected": {Tasks: cheap, Procs: []speed.Proc{big, little}},
	}
	for name, req := range cases {
		res, err := multiproc.SolveHeteroCertified(multiproc.HeteroInstance{Tasks: req.Tasks, Procs: req.Procs}, multiproc.HeteroPartition{})
		if err != nil {
			t.Fatal(err)
		}
		accepted := []int{}
		for _, ids := range res.PerProc {
			accepted = append(accepted, ids...)
		}
		slices.Sort(accepted)
		wantHetero := &HeteroInfo{PerProc: res.PerProc, Energies: res.Energies, LowerBound: res.LowerBound, Gap: res.Gap}

		e := New(Config{})
		for i, label := range []string{"cold", "hit", "hit after mutation"} {
			resp := e.Solve(context.Background(), req)
			if resp.Err != nil || resp.CacheHit != (i > 0) {
				t.Fatalf("%s %s: err %v, cache hit %v", name, label, resp.Err, resp.CacheHit)
			}
			if !reflect.DeepEqual(resp.Solution.Accepted, accepted) || !reflect.DeepEqual(resp.Solution.Rejected, res.Rejected) ||
				!reflect.DeepEqual(resp.Hetero, wantHetero) || resp.Solution.Cost != res.Cost {
				t.Fatalf("%s %s: accepted %v rejected %v hetero %+v; direct %v %v %+v",
					name, label, resp.Solution.Accepted, resp.Solution.Rejected, resp.Hetero, accepted, res.Rejected, wantHetero)
			}
			for _, ids := range resp.Hetero.PerProc {
				for j := range ids {
					ids[j] = -1
				}
			}
			for j := range resp.Solution.Accepted {
				resp.Solution.Accepted[j] = -1
			}
			resp.Hetero.Energies[0] = -1
		}
	}
}

// TestHeteroNamedSolvers: the registry names route to their multiproc
// solvers, and a single-processor solver name refuses the vector.
func TestHeteroNamedSolvers(t *testing.T) {
	e := New(Config{})
	set := testSet(t, 5, 9)
	for _, name := range multiproc.HeteroSolverNames() {
		req := Request{Tasks: set, Procs: heteroTestProcs(), Solver: name}
		resp := e.Solve(context.Background(), req)
		if resp.Err != nil {
			t.Fatalf("%s: %v", name, resp.Err)
		}
		hs, _ := multiproc.HeteroSolverByName(name)
		want, err := multiproc.SolveHeteroCertified(
			multiproc.HeteroInstance{Tasks: set, Procs: req.Procs}, hs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Solution.Cost != want.Cost {
			t.Errorf("%s: cost %g, direct %g", name, resp.Solution.Cost, want.Cost)
		}
	}
	bad := e.Solve(context.Background(), Request{Tasks: set, Procs: heteroTestProcs(), Solver: "GREEDY"})
	if bad.Err == nil {
		t.Error("single-processor solver name accepted a processor vector")
	}
}

// TestHeteroFingerprintDistinctFromSingle: an M=1 hetero request and the
// single-processor request over the same profile are different artifacts
// (the hetero one reports a certified gap) and must key separately.
func TestHeteroFingerprintDistinctFromSingle(t *testing.T) {
	proc := speed.Proc{Model: power.Cubic(), SMax: 1}
	set := testSet(t, 2, 8)
	single := Request{Tasks: set, Proc: proc, Solver: "DP"}
	hetero := Request{Tasks: set, Procs: []speed.Proc{proc}, Solver: "DP"}
	if Fingerprint(single, 0) == Fingerprint(hetero, 0) {
		t.Fatal("M=1 hetero request aliased the single-processor fingerprint")
	}
	if requestsEqual(single, hetero) {
		t.Fatal("requestsEqual conflated the single and M=1 hetero forms")
	}

	e := New(Config{})
	a := e.Solve(context.Background(), single)
	b := e.Solve(context.Background(), hetero)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if a.Hetero != nil {
		t.Error("single-processor response grew a HeteroInfo")
	}
	if b.Hetero == nil {
		t.Error("M=1 hetero response missing its HeteroInfo")
	}
	if b.CacheHit {
		t.Error("M=1 hetero solve was served from the single-processor entry")
	}
}

func TestHeteroBatchDedup(t *testing.T) {
	e := New(Config{})
	set := testSet(t, 7, 10)
	hreq := Request{Tasks: set, Procs: heteroTestProcs()}
	sreq := Request{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}}
	out := e.SolveBatch(context.Background(), []Request{hreq, sreq, hreq})
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	if out[0].Hetero == nil || out[2].Hetero == nil {
		t.Fatal("hetero batch responses missing their HeteroInfo")
	}
	if out[1].Hetero != nil {
		t.Error("single-processor batch response grew a HeteroInfo")
	}
	if !out[2].Coalesced {
		t.Error("duplicate hetero request was not coalesced")
	}
	if !solutionsBitEqual(out[0].Solution, out[2].Solution) {
		t.Error("coalesced hetero response diverged from its leader")
	}
	if got := e.Stats().HeteroSolves; got != 1 {
		t.Errorf("HeteroSolves = %d after a deduped batch, want 1", got)
	}
}

// TestHeteroWarmRefused: hetero entries never install via the replication
// path — the wire codec is single-processor and a pushed entry would lack
// its HeteroInfo.
func TestHeteroWarmRefused(t *testing.T) {
	e := New(Config{})
	req := Request{Tasks: testSet(t, 9, 8), Procs: heteroTestProcs()}
	if e.Warm(req, core.Solution{}) {
		t.Fatal("Warm installed a heterogeneous entry")
	}
	if got := e.Stats().Warmed; got != 0 {
		t.Errorf("Warmed = %d, want 0", got)
	}
}
