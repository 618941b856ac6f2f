// Package serve is the batched, cache-fronted solve engine behind the
// rejectschedd daemon. It fronts the internal/core solvers with
//
//   - a sharded LRU plan cache keyed by a canonical instance fingerprint
//     (tasks sorted by ID, floats optionally quantized, solver and
//     processor folded in);
//   - singleflight collapsing of concurrent identical solves, so a
//     thundering herd of the same instance costs one solver run;
//   - a batch API that groups same-processor requests behind one shared
//     core.ProcProfile and fans distinct instances across a bounded
//     worker pool.
//
// The engine never changes results: a cached or coalesced response is
// served only after verifying the stored request is bit-identical to the
// incoming one (including task order — float summation order is observable
// in Penalty). Anything else bypasses the cache and solves directly.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"dvsreject/internal/anytime"
	"dvsreject/internal/cache"
	"dvsreject/internal/conc"
	"dvsreject/internal/core"
	"dvsreject/internal/multiproc"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// Config parameterizes an Engine. The zero value is usable: 16 shards of
// 256 entries, exact-bits fingerprints, GOMAXPROCS batch workers, DP as the
// default solver.
type Config struct {
	// Shards is the plan-cache shard count, rounded up to a power of two.
	// 0 means 16.
	Shards int
	// EntriesPerShard bounds each shard's LRU. 0 means 256.
	EntriesPerShard int
	// Workers bounds the batch fan-out. 0 means GOMAXPROCS.
	Workers int
	// Quantum buckets fingerprint floats to its nearest multiple, letting
	// near-identical instances share a cache slot. 0 hashes exact bits.
	// Results are never affected; only slot sharing is.
	Quantum float64
	// DefaultSolver resolves requests with an empty Solver field.
	// "" means "DP".
	DefaultSolver string
	// Spec configures solver construction (ε, seed, per-solver workers).
	Spec core.SolverSpec
	// OnColdSolve, when non-nil, observes every successful cold solve just
	// after its entry is cached: the cluster layer hooks warm-cache
	// replication here. The request passed is the engine's private clone,
	// so the callback may retain it. It runs on the solving goroutine —
	// keep it cheap (enqueue, don't send).
	OnColdSolve func(req Request, sol core.Solution)
	// AnytimeBudget, when > 0, arms the anytime Pareto fallback tier for
	// exact-DP requests: a solve whose predicted cost exceeds its Timeout
	// (see EstimateCost), or that dies on the DP state budget, is answered
	// by internal/anytime within min(AnytimeBudget, Timeout) instead of
	// timing out or erroring. Anytime responses are flagged
	// (Response.Anytime) and never cached — they are budget-dependent, not
	// bit-reproducible. 0 disables the tier entirely.
	AnytimeBudget time.Duration
	// EstimateCost predicts a request's solve cost in microseconds (the
	// cluster layer plugs in its admission cost model). Only consulted for
	// deadline pricing when AnytimeBudget > 0; nil disables the priced
	// route, leaving just the state-budget fallback.
	EstimateCost func(req Request) float64
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.EntriesPerShard <= 0 {
		c.EntriesPerShard = 256
	}
	if c.DefaultSolver == "" {
		c.DefaultSolver = "DP"
	}
	return c
}

// Request is one solve: an instance plus the solver name and an optional
// per-request deadline. Timeout does not participate in caching — it bounds
// this call, not the solution.
type Request struct {
	Tasks task.Set
	Proc  speed.Proc
	// Procs, when non-empty, makes this a heterogeneous M-processor solve
	// over the profile vector (Proc is then ignored): the engine routes it
	// to the internal/multiproc hetero tier and the response carries a
	// HeteroInfo with the partition and its certified optimality gap.
	// Hetero responses cache normally — the solvers are deterministic —
	// but never replicate to peers (the wire codec is single-processor).
	Procs  []speed.Proc
	Solver string // experiment-table name; "" = engine default
	// FastPow opts this solve into the integer-exponent fast paths (see
	// core.Instance.FastPow). It participates in caching: a FastPow solve
	// and an exact solve of the same instance are distinct cache entries,
	// because their results need not be bit-identical.
	FastPow bool
	// Timeout, when > 0, bounds this request even inside a batch.
	Timeout time.Duration
}

// Response is the outcome of one request.
type Response struct {
	Solution core.Solution
	Err      error
	// CacheHit marks a response served from the plan cache.
	CacheHit bool
	// Coalesced marks a response shared with a concurrent or same-batch
	// identical request (singleflight or batch dedup).
	Coalesced bool
	// Anytime marks a response served by the anytime Pareto tier instead
	// of the requested exact solver — either deadline-priced routing or a
	// DP state-budget fallback. Anytime responses are never cached.
	Anytime bool
	// Gap is the certified optimality-gap bound of an anytime response:
	// (cost − lower bound) / cost, so 0 means proven optimal. Negative
	// when no lower bound was available for the instance.
	Gap float64
	// Hetero carries the heterogeneous extension of a profile-vector
	// solve: per-processor placement and the certified gap against
	// multiproc.HeteroLowerBound. Nil on single-processor responses.
	Hetero *HeteroInfo
}

// HeteroInfo is the heterogeneous extension of a response.
type HeteroInfo struct {
	// PerProc[m] lists the task IDs accepted on processor m, ascending.
	PerProc [][]int `json:"per_proc"`
	// Energies[m] is processor m's frame energy.
	Energies []float64 `json:"energies"`
	// LowerBound is the certified multiproc.HeteroLowerBound; only
	// meaningful when Gap ≥ 0.
	LowerBound float64 `json:"lower_bound"`
	// Gap is (cost − LowerBound)/cost clamped at 0, so 0 means proven
	// optimal; negative when the bound declined the processor flavours.
	Gap float64 `json:"gap"`
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Requests counts every request seen by Solve and SolveBatch.
	Requests uint64 `json:"requests"`
	// Coalesced counts responses shared via singleflight or batch dedup.
	Coalesced uint64 `json:"coalesced"`
	// Bypasses counts requests that landed in an occupied cache slot but
	// failed the bit-exact verification (permuted tasks, quantum
	// collisions) and were solved directly.
	Bypasses uint64 `json:"bypasses"`
	// Warmed counts cache entries installed by Warm — solutions pushed in
	// from a peer's cold solve rather than computed here.
	Warmed uint64 `json:"warmed"`
	// DeltaSolves is always 0: every DP cache miss is one cold solve. The
	// field stays so that readers of delta_solves keep decoding.
	DeltaSolves uint64 `json:"delta_solves"`
	// SparseSolves counts DP runs that used the sparse row representation
	// for at least one row.
	SparseSolves uint64 `json:"sparse_solves"`
	// SparseCells totals the breakpoints stored across those sparse rows —
	// the sparse analogue of dense grid cells, for capacity planning.
	SparseCells uint64 `json:"sparse_cells"`
	// AnytimeSolves counts responses served by the anytime Pareto tier
	// (deadline-priced routing plus state-budget fallbacks).
	AnytimeSolves uint64 `json:"anytime_solves"`
	// HeteroSolves counts cold solves routed to the heterogeneous
	// profile-vector tier (cache hits of hetero entries don't re-count).
	HeteroSolves uint64 `json:"hetero_solves"`
	// Panics counts solver runs that panicked and were answered with an
	// ErrSolverPanic error.
	Panics uint64 `json:"panics"`
	// Cache aggregates the plan-cache shard counters.
	Cache cache.Stats `json:"cache"`
}

// entry is one cached plan: the solution plus the exactKey of the request
// that produced it, for bit-exact hit verification. Anytime entries only
// live inside a singleflight group — they are never Put. A hetero entry
// keeps its whole answer in hetero and sol is nil, so its cache node does
// not carry an empty core.Solution.
type entry struct {
	key     []byte
	sol     *core.Solution
	anytime bool
	gap     float64
	hetero  *heteroPlan
}

// heteroPlan is a hetero entry's answer in compact form: the HeteroInfo
// with PerProc left nil, the energy, penalty and cost, and place[i], the
// processor of request task i (-1 when rejected). answer rebuilds
// Accepted, Rejected and PerProc from place and the request, which a hit
// has just shown bit-identical, so a cached hetero frame holds n int32s
// instead of M+2 lists of task IDs.
type heteroPlan struct {
	info                  HeteroInfo
	place                 []int32
	energy, penalty, cost float64
}

// newEntry builds the entry of a request solved into sol (and hi, for a
// hetero request).
func newEntry(req Request, sol core.Solution, an anytimeNote, hi *HeteroInfo) entry {
	ent := entry{key: exactKey(req), anytime: an.used, gap: an.gap}
	if hi == nil {
		ent.sol = &sol
		return ent
	}
	procOf := make(map[int]int32, len(sol.Accepted))
	for m, ids := range hi.PerProc {
		for _, id := range ids {
			procOf[id] = int32(m)
		}
	}
	plan := &heteroPlan{info: *hi, place: make([]int32, len(req.Tasks.Tasks)),
		energy: sol.Energy, penalty: sol.Penalty, cost: sol.Cost}
	plan.info.PerProc = nil
	for i, t := range req.Tasks.Tasks {
		m, ok := procOf[t.ID]
		if !ok {
			m = -1
		}
		plan.place[i] = m
	}
	ent.hetero = plan
	return ent
}

// answer returns the entry's solution and hetero extension for req — the
// request it was solved for, bit for bit — in fresh slices the caller may
// mutate without corrupting the cache.
func (ent entry) answer(req Request) (core.Solution, *HeteroInfo) {
	if ent.hetero == nil {
		return cloneSolution(*ent.sol), nil
	}
	sol := core.Solution{Energy: ent.hetero.energy, Penalty: ent.hetero.penalty, Cost: ent.hetero.cost}
	h := ent.hetero.info
	h.Energies = slices.Clone(h.Energies)
	h.PerProc = make([][]int, len(req.Procs))
	sol.Accepted = make([]int, 0, len(req.Tasks.Tasks))
	for i, t := range req.Tasks.Tasks {
		if m := ent.hetero.place[i]; m >= 0 {
			sol.Accepted = append(sol.Accepted, t.ID)
			h.PerProc[m] = append(h.PerProc[m], t.ID)
		} else {
			sol.Rejected = append(sol.Rejected, t.ID)
		}
	}
	slices.Sort(sol.Accepted)
	slices.Sort(sol.Rejected)
	for _, ids := range h.PerProc {
		slices.Sort(ids)
	}
	return sol, &h
}

// anytimeNote rides alongside a solution through run/runSolver so the
// caching layer knows an anytime answer must not be cached.
type anytimeNote struct {
	used bool
	gap  float64
}

// Engine is the cache-fronted solve engine. Safe for concurrent use.
type Engine struct {
	cfg   Config
	cache *cache.Sharded[entry]
	group cache.Group[entry]

	requests      atomic.Uint64
	coalesced     atomic.Uint64
	bypasses      atomic.Uint64
	warmed        atomic.Uint64
	sparseSolves  atomic.Uint64
	sparseCells   atomic.Uint64
	anytimeSolves atomic.Uint64
	heteroSolves  atomic.Uint64
	panics        atomic.Uint64
}

// ErrSolverPanic is wrapped by the error of a request whose solver
// panicked. The engine recovers and keeps nothing of that run: no cache
// entry or replication push, so a repeat runs it again.
var ErrSolverPanic = errors.New("serve: solver panicked")

// jumboTasks is the request size past which the engine purges the core
// solver pools after solving: one n≥10⁴ request grows the pooled DP rows
// and eval contexts to megabytes, and without the purge every later small
// solve drags them through GC cycles.
const jumboTasks = 10000

// New builds an engine from cfg (zero value fine, see Config).
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:   cfg,
		cache: cache.NewSharded[entry](cfg.Shards, cfg.EntriesPerShard),
	}
}

// Solve answers one request, consulting the plan cache and collapsing
// concurrent identical solves. The response is always bit-identical to a
// direct solver run on the same request.
func (e *Engine) Solve(ctx context.Context, req Request) Response {
	e.requests.Add(1)
	if req.Solver == "" {
		req.Solver = e.cfg.DefaultSolver
	}
	return e.solveOne(ctx, req, nil, Fingerprint(req, e.cfg.Quantum))
}

// SolveBatch answers a batch of requests. Identical requests within the
// batch are solved once and shared (marked Coalesced); distinct instances
// fan out across the engine's worker pool; requests sharing a processor
// share one precomputed core.ProcProfile. Responses are positionally
// aligned with reqs and each is bit-identical to a direct solve.
func (e *Engine) SolveBatch(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	e.requests.Add(uint64(len(reqs)))

	creqs := slices.Clone(reqs)
	for i := range creqs {
		if creqs[i].Solver == "" {
			creqs[i].Solver = e.cfg.DefaultSolver
		}
	}

	// One ProcProfile per distinct processor: same-processor requests
	// share the validated, precomputed processor derivation. An invalid
	// processor yields a nil profile and the solver reports the error.
	profiles := make(map[string]*core.ProcProfile)
	ppOf := make([]*core.ProcProfile, len(creqs))
	for i, r := range creqs {
		if len(r.Procs) > 0 {
			continue // hetero solves don't use a single-processor profile
		}
		pk := procKey(r)
		pp, ok := profiles[pk]
		if !ok {
			pp, _ = core.NewProcProfile(r.Proc)
			profiles[pk] = pp
		}
		ppOf[i] = pp
	}

	// Dedup bit-identical requests: the first occurrence leads, the rest
	// share its response. Fingerprint slots may collide (permutations,
	// quantization), so each slot keeps a list of distinct leaders.
	type dupGroup struct {
		leader int
		dups   []int
	}
	bySlot := make(map[string][]*dupGroup)
	fps := make([]string, len(creqs))
	var leaders []int
next:
	for i, r := range creqs {
		fp := Fingerprint(r, e.cfg.Quantum)
		fps[i] = fp
		for _, g := range bySlot[fp] {
			if requestsEqual(creqs[g.leader], r) {
				g.dups = append(g.dups, i)
				continue next
			}
		}
		g := &dupGroup{leader: i}
		bySlot[fp] = append(bySlot[fp], g)
		leaders = append(leaders, i)
	}

	conc.ForEach(len(leaders), e.cfg.Workers, func(j int) (struct{}, error) {
		i := leaders[j]
		out[i] = e.solveOne(ctx, creqs[i], ppOf[i], fps[i])
		return struct{}{}, nil
	})

	for _, groups := range bySlot {
		for _, g := range groups {
			lead := out[g.leader]
			for _, i := range g.dups {
				r := lead
				r.Solution = cloneSolution(r.Solution)
				if r.Err == nil {
					r.Coalesced = true
				}
				out[i] = r
			}
			if len(g.dups) > 0 && lead.Err == nil {
				e.coalesced.Add(uint64(len(g.dups)))
			}
		}
	}
	return out
}

// solveOne is the shared single-request path: per-request deadline, cache
// lookup with bit-exact verification, singleflight, direct-solve bypass.
func (e *Engine) solveOne(ctx context.Context, req Request, pp *core.ProcProfile, fp string) Response {
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return Response{Err: err}
	}

	if ent, ok := e.cache.Get(fp); ok {
		if sameRequest(ent.key, req) {
			sol, hi := ent.answer(req)
			return Response{Solution: sol, CacheHit: true, Hetero: hi}
		}
		// Slot collision: same fingerprint, different bits. Solve
		// directly — storing would evict the slot's owner on every
		// alternation, and correctness forbids serving its solution.
		e.bypasses.Add(1)
		sol, an, hi, err := e.run(req, pp)
		return Response{Solution: sol, Err: err, Anytime: an.used, Gap: an.gap, Hetero: hi}
	}

	ent, err, shared := e.group.Do(ctx, fp, func() (entry, error) {
		creq := cloneRequest(req)
		sol, an, hi, solveErr := e.run(creq, pp)
		if solveErr != nil {
			return entry{}, solveErr
		}
		ent := newEntry(creq, sol, an, hi)
		if !an.used {
			// Anytime answers are budget-dependent, not bit-reproducible:
			// caching (or replicating) one would let it shadow a later
			// exact solve of the same instance. Hetero entries cache — the
			// tier is deterministic — but never replicate: the peer wire
			// codec is single-processor.
			e.cache.Put(fp, ent)
			if e.cfg.OnColdSolve != nil && hi == nil {
				e.cfg.OnColdSolve(creq, sol)
			}
		}
		return ent, nil
	})
	if err != nil {
		return Response{Err: err}
	}
	if shared && !sameRequest(ent.key, req) {
		// Joined a flight for a colliding request: its solution is not
		// ours. Solve directly.
		e.bypasses.Add(1)
		sol, an, hi, err := e.run(req, pp)
		return Response{Solution: sol, Err: err, Anytime: an.used, Gap: an.gap, Hetero: hi}
	}
	if shared {
		e.coalesced.Add(1)
	}
	sol, hi := ent.answer(req)
	return Response{Solution: sol, Coalesced: shared, Anytime: ent.anytime, Gap: ent.gap, Hetero: hi}
}

// run resolves the solver and executes it, attaching the precomputed
// processor profile when one is available. Jumbo requests purge the core
// scratch pools afterwards so one huge solve stops taxing the small ones
// that follow. Every flight and every bypass solve comes through here, so
// this is where a solver panic turns into an ErrSolverPanic error instead
// of killing the process.
func (e *Engine) run(req Request, pp *core.ProcProfile) (sol core.Solution, an anytimeNote, hi *HeteroInfo, err error) {
	defer func() {
		if p := recover(); p != nil {
			e.panics.Add(1)
			sol, an, hi, err = core.Solution{}, anytimeNote{}, nil, fmt.Errorf("%w: %v", ErrSolverPanic, p)
		}
	}()
	sol, an, hi, err = e.runSolver(req, pp)
	if len(req.Tasks.Tasks) >= jumboTasks {
		core.PurgeSolverScratch()
	}
	return sol, an, hi, err
}

func (e *Engine) runSolver(req Request, pp *core.ProcProfile) (core.Solution, anytimeNote, *HeteroInfo, error) {
	if len(req.Procs) > 0 {
		sol, hi, err := e.runHetero(req)
		return sol, anytimeNote{}, hi, err
	}
	in := core.Instance{Tasks: req.Tasks, Proc: req.Proc, FastPow: req.FastPow}
	if pp != nil {
		in = in.WithProcProfile(pp)
	}
	if e.anytimePriced(req) {
		if sol, an, aerr := e.anytimeSolve(req, in); aerr == nil {
			return sol, an, nil, nil
		}
		// The tier declined the instance (e.g. heterogeneous rho) — let
		// the exact solver have it after all.
	}
	solver, err := core.NewSolver(req.Solver, e.cfg.Spec)
	if err != nil {
		return core.Solution{}, anytimeNote{}, nil, err
	}
	if dp, ok := solver.(core.DP); ok {
		sol, stats, err := dp.SolveStats(in)
		if err == nil && stats.SparseCells > 0 {
			e.sparseSolves.Add(1)
			e.sparseCells.Add(uint64(stats.SparseCells))
		}
		if err != nil && e.anytimeFallback(req, err) {
			if asol, an, aerr := e.anytimeSolve(req, in); aerr == nil {
				return asol, an, nil, nil
			}
			// Tier declined too: report the original DP failure.
		}
		return sol, anytimeNote{}, nil, err
	}
	sol, err := solver.Solve(in)
	return sol, anytimeNote{}, nil, err
}

// runHetero answers a heterogeneous profile-vector request on the
// internal/multiproc tier: the requested hetero solver (the exact-DP
// names route to HETERO-PART, the default) plus the certified
// optimality gap from multiproc.HeteroLowerBound.
func (e *Engine) runHetero(req Request) (core.Solution, *HeteroInfo, error) {
	hs, ok := multiproc.HeteroSolverByName(req.Solver)
	if !ok {
		if req.Solver != "DP" && req.Solver != "DP-SPARSE" {
			return core.Solution{}, nil, fmt.Errorf("serve: solver %q cannot solve a heterogeneous processor vector", req.Solver)
		}
		hs = multiproc.HeteroPartition{}
	}
	in := multiproc.HeteroInstance{Tasks: req.Tasks, Procs: req.Procs}
	res, err := multiproc.SolveHeteroCertified(in, hs)
	if err != nil {
		return core.Solution{}, nil, err
	}
	accepted := make([]int, 0, len(req.Tasks.Tasks)-len(res.Rejected))
	for _, ids := range res.PerProc {
		accepted = append(accepted, ids...)
	}
	slices.Sort(accepted)
	sol := core.Solution{
		Accepted: accepted,
		Rejected: res.Rejected,
		Energy:   res.Energy,
		Penalty:  res.Penalty,
		Cost:     res.Cost,
	}
	e.heteroSolves.Add(1)
	return sol, &HeteroInfo{
		PerProc:    res.PerProc,
		Energies:   res.Energies,
		LowerBound: res.LowerBound,
		Gap:        res.Gap,
	}, nil
}

// anytimeEligible limits the anytime tier to the exact DP solvers — the
// heuristics are already fast, and an explicit "ANYTIME" request flows
// the normal registry path (fixed generations, deterministic, cacheable).
func anytimeEligible(solver string) bool {
	return solver == "DP" || solver == "DP-SPARSE"
}

// anytimePriced reports whether a request should skip the exact solver
// outright: the tier is armed, the request carries a deadline, and the
// cost model predicts the exact solve would blow through it.
func (e *Engine) anytimePriced(req Request) bool {
	if e.cfg.AnytimeBudget <= 0 || e.cfg.EstimateCost == nil || req.Timeout <= 0 {
		return false
	}
	if !anytimeEligible(req.Solver) {
		return false
	}
	return e.cfg.EstimateCost(req) > float64(req.Timeout.Microseconds())
}

// anytimeFallback reports whether a failed exact solve should be retried
// on the anytime tier: only state-budget exhaustion qualifies —
// validation errors would fail there identically.
func (e *Engine) anytimeFallback(req Request, err error) bool {
	return e.cfg.AnytimeBudget > 0 && anytimeEligible(req.Solver) && errors.Is(err, core.ErrStateBudget)
}

// anytimeSolve answers a request on the anytime Pareto tier within
// min(AnytimeBudget, Timeout), returning the best feasible front point
// plus its certified optimality-gap bound (negative when the lower-bound
// machinery declined the instance).
func (e *Engine) anytimeSolve(req Request, in core.Instance) (core.Solution, anytimeNote, error) {
	budget := e.cfg.AnytimeBudget
	if req.Timeout > 0 && req.Timeout < budget {
		budget = req.Timeout
	}
	s := anytime.Solver{Seed: e.cfg.Spec.Seed, Workers: e.cfg.Spec.Workers, Budget: budget}
	res, err := s.SolveUntil(context.Background(), in)
	if err != nil {
		return core.Solution{}, anytimeNote{}, err
	}
	gap := res.Gap
	if math.IsNaN(gap) {
		gap = -1
	}
	e.anytimeSolves.Add(1)
	return res.Best, anytimeNote{used: true, gap: gap}, nil
}

// Warm installs a solved entry pushed from a peer — the warm-cache
// replication path. The pair must come from a bit-exact solver run (the
// wire codec preserves every bit); the usual sameRequest verification
// still gates every later hit, so a corrupted push can waste a slot but
// never change a served result. An occupied slot is left alone: the local
// entry is at least as fresh. Reports whether the entry was installed.
func (e *Engine) Warm(req Request, sol core.Solution) bool {
	if len(req.Procs) > 0 {
		// Hetero entries never replicate: the wire codec is
		// single-processor, and a pushed entry would lack its HeteroInfo.
		return false
	}
	if req.Solver == "" {
		req.Solver = e.cfg.DefaultSolver
	}
	fp := Fingerprint(req, e.cfg.Quantum)
	if e.cache.Contains(fp) {
		return false
	}
	sol = cloneSolution(sol)
	e.cache.Put(fp, entry{key: exactKey(req), sol: &sol})
	e.warmed.Add(1)
	return true
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Requests:      e.requests.Load(),
		Coalesced:     e.coalesced.Load(),
		Bypasses:      e.bypasses.Load(),
		Warmed:        e.warmed.Load(),
		SparseSolves:  e.sparseSolves.Load(),
		SparseCells:   e.sparseCells.Load(),
		AnytimeSolves: e.anytimeSolves.Load(),
		HeteroSolves:  e.heteroSolves.Load(),
		Panics:        e.panics.Load(),
		Cache:         e.cache.Stats(),
	}
}

// Reset empties the plan cache (counters are preserved). Benchmarks use
// it to measure cold solves.
func (e *Engine) Reset() { e.cache.Clear() }

// cloneRequest deep-copies the request's slices so a flight never aliases
// caller memory.
func cloneRequest(req Request) Request {
	req.Tasks.Tasks = slices.Clone(req.Tasks.Tasks)
	req.Proc.Levels = slices.Clone(req.Proc.Levels)
	if req.Procs != nil {
		procs := slices.Clone(req.Procs)
		for i := range procs {
			procs[i].Levels = slices.Clone(procs[i].Levels)
		}
		req.Procs = procs
	}
	return req
}

// cloneSolution deep-copies the solution's slices so callers may mutate
// their response without corrupting the cache.
func cloneSolution(s core.Solution) core.Solution {
	s.Accepted = slices.Clone(s.Accepted)
	s.Rejected = slices.Clone(s.Rejected)
	s.PerTaskSpeeds = slices.Clone(s.PerTaskSpeeds)
	return s
}
