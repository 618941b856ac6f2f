package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/serve"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// workload is one traffic mix: which serving stack it launches, how its
// requests are drawn, the open-loop offered rate and the latency limit.
// The numbers here are the ones BENCHMARK.json's "why" lines quote; a test
// keeps the two in step.
type workload struct {
	name  string
	nodes int    // rejectschedd processes
	proto string // "http" (JSON /solve) or "wire" (binary protocol, ring-routed)
	// openRate is the open-loop offered rate in groups per second; a group
	// is one request, or one concurrent identical pair when pair is set.
	openRate float64
	slo      time.Duration // per-request latency limit behind slo_met_frac
	pair     bool          // each group is two identical concurrent requests
	// roundGroups is the size of one open-loop round in groups; the
	// figures come from the quietest rounds (see quietest).
	roundGroups int
	// newStream draws the deterministic request stream of one phase.
	newStream func(seed int64) stream
}

// stream yields the request groups of one phase, in a fixed order that
// depends only on the seed. Not safe for concurrent use.
type stream interface {
	next() group
}

// group is a set of requests that share one due time: a single request,
// or a hetero-herd pair of identical requests.
type group []*instance

// instance is one solve request in every form the benchmark sends it,
// plus its lazily computed reference answer. Requests that repeat (the
// hot-http pool) share one instance, so each reference is computed once.
type instance struct {
	req  serve.Request
	body []byte // JSON /solve body; nil on wire workloads
	// parent is the instance this one edits (cold-wire delta candidates).
	parent *instance

	once sync.Once
	ref  reference
}

var workloads = []workload{
	{
		name: "hot-http", nodes: 1, proto: "http",
		openRate: 1000, slo: 2 * time.Millisecond, roundGroups: 1000,
		newStream: func(seed int64) stream { return newHotStream(seed) },
	},
	{
		name: "cold-wire", nodes: 2, proto: "wire",
		openRate: 1000, slo: 5 * time.Millisecond, roundGroups: 1000,
		newStream: func(seed int64) stream { return newColdStream(seed) },
	},
	{
		name: "hetero-herd", nodes: 1, proto: "http",
		openRate: 40, slo: 150 * time.Millisecond, pair: true, roundGroups: 80,
		newStream: func(seed int64) stream { return newHeteroStream(seed) },
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// phaseSeed derives an independent stream seed per phase, so the open-loop,
// closed-loop and traced phases never send each other's instances.
func phaseSeed(seed int64, phase int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(phase+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x >> 1)
}

// unitProc is the single-processor platform of the exact-DP workloads,
// matching the JSON defaults (cubic model, smax 1).
var unitProc = speed.Proc{Model: power.Cubic(), SMax: 1}

// newSingle wraps a task set as a DP request, with its JSON body when the
// workload speaks HTTP.
func newSingle(set task.Set, withBody bool) (*instance, error) {
	inst := &instance{req: serve.Request{Tasks: set, Proc: unitProc, Solver: "DP"}}
	if withBody {
		wreq := serve.WireRequest{Solver: "DP", Deadline: set.Deadline, SMax: 1, Tasks: wireTasks(set)}
		b, err := json.Marshal(wreq)
		if err != nil {
			return nil, err
		}
		inst.body = b
	}
	return inst, nil
}

func wireTasks(set task.Set) []serve.WireTask {
	out := make([]serve.WireTask, len(set.Tasks))
	for i, t := range set.Tasks {
		out[i] = serve.WireTask{ID: t.ID, Cycles: t.Cycles, Penalty: t.Penalty, Rho: t.Rho}
	}
	return out
}

// Workload shapes. hotRotate is counted in requests, not seconds, so the
// stream (and its ~1% miss share) is a function of the seed alone.
const (
	hotPool   = 64
	hotN      = 50
	hotZipf   = 1.1
	hotRotate = 6000

	coldDenseN  = 180 // dense instances have coldDenseN..+40 tasks
	coldSparseN = 32  // sparse instances have coldSparseN..+8 tasks
	coldRecent  = 8   // edits pick a parent among the last coldRecent sent

	heteroN = 16 // hetero instances have heteroN..+4 tasks
)

// hotStream is hot-http: Zipf(1.1) draws over a pool of 64 n=50 frames
// that is replaced by a fresh pool every hotRotate requests.
type hotStream struct {
	seed  int64
	i     int
	zipf  *rand.Zipf
	epoch int
	pool  []*instance
}

func newHotStream(seed int64) *hotStream {
	rng := rand.New(rand.NewSource(seed))
	return &hotStream{seed: seed, zipf: rand.NewZipf(rng, hotZipf, 1, hotPool-1), epoch: -1}
}

func (s *hotStream) next() group {
	if e := s.i / hotRotate; e != s.epoch {
		s.epoch = e
		s.pool = make([]*instance, hotPool)
		for k := range s.pool {
			rng := rand.New(rand.NewSource(phaseSeed(s.seed, e*hotPool+k)))
			set, err := gen.Frame(rng, gen.Config{N: hotN, Load: 1.2, Penalty: gen.PenaltyModel(k % 3)})
			if err != nil {
				panic(err) // fixed, valid generator configuration
			}
			if s.pool[k], err = newSingle(set, true); err != nil {
				panic(err)
			}
		}
	}
	s.i++
	return group{s.pool[s.zipf.Uint64()]}
}

// coldStream is cold-wire: half fresh dense frames (n≈200), a fifth sparse
// wide-deadline frames, and the rest one-task edits of a recent request.
// No instance repeats.
type coldStream struct {
	rng    *rand.Rand
	recent []*instance
}

func newColdStream(seed int64) *coldStream {
	return &coldStream{rng: rand.New(rand.NewSource(seed))}
}

func (s *coldStream) next() group {
	var inst *instance
	var err error
	switch u := s.rng.Float64(); {
	case u < 0.5 || len(s.recent) == 0:
		sub := rand.New(rand.NewSource(s.rng.Int63()))
		set, gerr := gen.Frame(sub, gen.Config{N: coldDenseN + s.rng.Intn(41), Load: 1.2, Penalty: gen.PenaltyModel(s.rng.Intn(3))})
		if gerr != nil {
			panic(gerr)
		}
		inst, err = newSingle(set, false)
	case u < 0.7:
		sub := rand.New(rand.NewSource(s.rng.Int63()))
		set, gerr := gen.Sparse(sub, gen.SparseConfig{N: coldSparseN + s.rng.Intn(9), Penalty: gen.PenaltyModel(s.rng.Intn(3))})
		if gerr != nil {
			panic(gerr)
		}
		inst, err = newSingle(set, false)
	default:
		parent := s.recent[s.rng.Intn(len(s.recent))]
		inst, err = newSingle(editOne(s.rng, parent.req.Tasks), false)
		inst.parent = parent
	}
	if err != nil {
		panic(err)
	}
	s.recent = append(s.recent, inst)
	if len(s.recent) > coldRecent {
		s.recent = s.recent[1:]
	}
	return group{inst}
}

// editOne returns a copy of set with one task appended, or one task in
// the last quarter given a new penalty and possibly one more cycle. The
// unchanged prefix is what the engine's delta index warm-starts from.
func editOne(rng *rand.Rand, set task.Set) task.Set {
	out := set
	out.Tasks = slices.Clone(set.Tasks)
	n := len(out.Tasks)
	donor := out.Tasks[rng.Intn(n)]
	if rng.Intn(2) == 0 {
		maxID := 0
		for _, t := range out.Tasks {
			maxID = max(maxID, t.ID)
		}
		out.Tasks = append(out.Tasks, task.Task{ID: maxID + 1, Cycles: donor.Cycles, Penalty: donor.Penalty * (0.5 + rng.Float64())})
		return out
	}
	k := n - 1 - rng.Intn(max(1, n/4))
	out.Tasks[k].Penalty *= 0.5 + rng.Float64()
	out.Tasks[k].Cycles += int64(rng.Intn(2))
	return out
}

// heteroStream is hetero-herd: every group is a pair of identical requests
// for a fresh n≈16–20 frame on a big.LITTLE vector of M∈{2,4} cores,
// loaded to 1.2× the vector's total capacity.
//
// M, n and the penalty model cycle through all 30 combinations in a fixed
// order and only the task contents are drawn: solve cost depends mostly on
// M and n, so a few hundred drawn shapes would make the closed-loop figures
// of two seeds differ by their mix rather than by the program.
type heteroStream struct {
	rng *rand.Rand
	i   int
}

func newHeteroStream(seed int64) *heteroStream {
	return &heteroStream{rng: rand.New(rand.NewSource(seed))}
}

func (s *heteroStream) next() group {
	m := 2 + 2*(s.i%2)
	n := heteroN + (s.i/2)%5
	penalty := gen.PenaltyModel((s.i / 10) % 3)
	s.i++
	procs, err := gen.BigLittle(gen.BigLittleConfig{NBig: m / 2, NLittle: m / 2})
	if err != nil {
		panic(err)
	}
	var capacity float64 // Σ smax, in units of one big core
	for _, p := range procs {
		capacity += p.SMax
	}
	sub := rand.New(rand.NewSource(s.rng.Int63()))
	set, err := gen.Frame(sub, gen.Config{N: n, Load: 1.2 * capacity, Penalty: penalty})
	if err != nil {
		panic(err)
	}
	wreq := serve.WireRequest{Solver: "DP", Deadline: set.Deadline, Tasks: wireTasks(set)}
	for _, p := range procs {
		wreq.Procs = append(wreq.Procs, serve.WireProc{SMax: p.SMax})
	}
	body, err := json.Marshal(wreq)
	if err != nil {
		panic(err)
	}
	req, err := wreq.ToRequest()
	if err != nil {
		panic(err)
	}
	inst := &instance{req: req, body: body}
	return group{inst, inst}
}
