package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

func fpReq(tasks []task.Task) Request {
	return Request{
		Tasks:  task.Set{Deadline: 100, Tasks: tasks},
		Proc:   speed.Proc{Model: power.Cubic(), SMax: 1},
		Solver: "DP",
	}
}

func TestFingerprintPermutationInvariant(t *testing.T) {
	a := fpReq([]task.Task{{ID: 1, Cycles: 10, Penalty: 1}, {ID: 2, Cycles: 20, Penalty: 2}})
	b := fpReq([]task.Task{{ID: 2, Cycles: 20, Penalty: 2}, {ID: 1, Cycles: 10, Penalty: 1}})
	if Fingerprint(a, 0) != Fingerprint(b, 0) {
		t.Error("permuted task sets should share a fingerprint slot")
	}
	if requestsEqual(a, b) {
		t.Error("permuted task sets must not compare bit-equal (summation order matters)")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpReq([]task.Task{{ID: 1, Cycles: 10, Penalty: 1}, {ID: 2, Cycles: 20, Penalty: 2}})
	fp := Fingerprint(base, 0)

	mutations := map[string]func(*Request){
		"solver":   func(r *Request) { r.Solver = "GREEDY" },
		"deadline": func(r *Request) { r.Tasks.Deadline = 101 },
		"cycles":   func(r *Request) { r.Tasks.Tasks[0].Cycles = 11 },
		"penalty":  func(r *Request) { r.Tasks.Tasks[0].Penalty = 1.5 },
		"rho":      func(r *Request) { r.Tasks.Tasks[0].Rho = 2 },
		"id":       func(r *Request) { r.Tasks.Tasks[0].ID = 3 },
		"smax":     func(r *Request) { r.Proc.SMax = 2 },
		"smin":     func(r *Request) { r.Proc.SMin = 0.1 },
		"alpha":    func(r *Request) { r.Proc.Model.Alpha = 2 },
		"pind":     func(r *Request) { r.Proc.Model.Pind = 0.1 },
		"dormant":  func(r *Request) { r.Proc.DormantEnable = true },
		"esw":      func(r *Request) { r.Proc.Esw = 1 },
		"levels":   func(r *Request) { r.Proc.Levels = power.LevelSet{0.5, 1} },
	}
	for name, mutate := range mutations {
		r := fpReq([]task.Task{{ID: 1, Cycles: 10, Penalty: 1}, {ID: 2, Cycles: 20, Penalty: 2}})
		mutate(&r)
		if Fingerprint(r, 0) == fp {
			t.Errorf("%s mutation did not change the fingerprint", name)
		}
		if requestsEqual(base, r) {
			t.Errorf("%s mutation still compares equal", name)
		}
	}
}

func TestFingerprintTimeoutIgnored(t *testing.T) {
	a := fpReq([]task.Task{{ID: 1, Cycles: 10, Penalty: 1}})
	b := a
	b.Timeout = 1e9
	if Fingerprint(a, 0) != Fingerprint(b, 0) {
		t.Error("timeout must not affect the fingerprint")
	}
	if !requestsEqual(a, b) {
		t.Error("timeout must not affect request equality")
	}
}

func TestFingerprintQuantum(t *testing.T) {
	a := fpReq([]task.Task{{ID: 1, Cycles: 10, Penalty: 1.0}})
	b := fpReq([]task.Task{{ID: 1, Cycles: 10, Penalty: 1.0 + 1e-12}})
	if Fingerprint(a, 0) == Fingerprint(b, 0) {
		t.Error("exact-bits fingerprints of near-equal penalties should differ")
	}
	if Fingerprint(a, 1e-6) != Fingerprint(b, 1e-6) {
		t.Error("quantized fingerprints of near-equal penalties should collide")
	}
	if requestsEqual(a, b) {
		t.Error("near-equal penalties must never compare bit-equal")
	}
}

func TestFingerprintNegativeZero(t *testing.T) {
	a := fpReq([]task.Task{{ID: 1, Cycles: 10, Penalty: 0}})
	b := fpReq([]task.Task{{ID: 1, Cycles: 10, Penalty: math.Copysign(0, -1)}})
	if requestsEqual(a, b) {
		t.Error("-0.0 and +0.0 must not compare bit-equal")
	}
}

func TestSortedTasksNoCopyWhenSorted(t *testing.T) {
	ts := []task.Task{{ID: 1}, {ID: 2}, {ID: 3}}
	if got := sortedTasks(ts); &got[0] != &ts[0] {
		t.Error("already-sorted input should be returned without copying")
	}
	rev := []task.Task{{ID: 3}, {ID: 1}, {ID: 2}}
	got := sortedTasks(rev)
	if got[0].ID != 1 || got[1].ID != 2 || got[2].ID != 3 {
		t.Errorf("sortedTasks returned %v", got)
	}
	if rev[0].ID != 3 {
		t.Error("sortedTasks mutated its input")
	}
}

// TestExactKeyHerdM4 pins the plan-cache key of a JSON-decoded
// hetero-herd request (n=18 on an M=4 big.LITTLE vector): processor
// floats take 1–3 bytes each, not 8. A one-ulp change to any processor
// float still changes the key.
func TestExactKeyHerdM4(t *testing.T) {
	procs, err := gen.BigLittle(gen.BigLittleConfig{NBig: 2, NLittle: 2})
	if err != nil {
		t.Fatal(err)
	}
	set, err := gen.Frame(rand.New(rand.NewSource(3)), gen.Config{N: 18, Load: 1.2 * 3, Penalty: gen.PenaltyModel(1)})
	if err != nil {
		t.Fatal(err)
	}
	w := WireRequest{Solver: "DP", Deadline: set.Deadline}
	for _, tk := range set.Tasks {
		w.Tasks = append(w.Tasks, WireTask{ID: tk.ID, Cycles: tk.Cycles, Penalty: tk.Penalty})
	}
	for _, p := range procs {
		w.Procs = append(w.Procs, WireProc{SMax: p.SMax})
	}
	body, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var dec WireRequest
	if err := decodeWire(bytes.NewReader(body), &dec); err != nil {
		t.Fatal(err)
	}
	req, err := dec.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(exactKey(req)), 290; got != want {
		t.Errorf("exact key of the n=18 M=4 request is %d bytes, want %d", got, want)
	}
	up := func(x *float64) { *x = math.Nextafter(*x, math.Inf(1)) }
	for name, mutate := range map[string]func(*speed.Proc){
		"pind":  func(p *speed.Proc) { up(&p.Model.Pind) },
		"coeff": func(p *speed.Proc) { up(&p.Model.Coeff) },
		"alpha": func(p *speed.Proc) { up(&p.Model.Alpha) },
		"smin":  func(p *speed.Proc) { up(&p.SMin) },
		"smax":  func(p *speed.Proc) { up(&p.SMax) },
		"esw":   func(p *speed.Proc) { up(&p.Esw) },
	} {
		for i := range req.Procs {
			mut := req
			mut.Procs = slices.Clone(req.Procs)
			mutate(&mut.Procs[i])
			if requestsEqual(req, mut) {
				t.Errorf("procs[%d].%s one ulp up still compares equal", i, name)
			}
		}
	}
}
