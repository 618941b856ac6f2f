package core

import (
	"sync"
	"sync/atomic"
)

// This file holds the sync.Pools behind the DP-family solvers' steady-state
// allocation behavior. One DP solve is a handful of large, short-lived
// buffers (the f row, the reconstruction bitset, the evaluation context's
// items slice and id→index map, the Solution-building scratch); pooling
// them makes repeated solves — the shape every experiment sweep has —
// amortized allocation-free without changing a single float operation.
//
// Two rules keep the pooling exact and race-free:
//
//   - buffers are acquired per call and released before the Solution is
//     returned, never stored on shared structures: evalCtx is read
//     concurrently by parallel search workers, so evaluate scratch comes
//     from the global pools, not from the context;
//   - every buffer is re-initialized to the state the seed code's fresh
//     make() gave it (Inf-filled, zeroed, or length-reset) before use, so
//     reuse is observationally identical to allocation.

// dpScratch bundles the table state of one rejection-DP solve.
type dpScratch struct {
	f      []float64  // DP row buffer, one cell per workload level
	f2     []float64  // second row buffer (the kernel double-buffers rows)
	words  []uint64   // dense take bits of an unrecorded solve
	ids    []int      // reconstruction output
	scaled []item     // ApproxDP's rounded item view
	g      []int64    // ApproxDPPenalty's row, one cell per penalty level
	take   []bool     // ApproxDPPenalty's reconstruction table, flattened
	spRec  sparseRows // sparse per-row breakpoint record (unrecorded sparse solves)
	spF    []float64  // sparse row value buffers (the merge double-buffers values;
	spF2   []float64  // workloads live in the spRec arenas)
}

// The pools sit behind atomic pointers so PurgeSolverScratch can swap in
// empty replacements: a pool itself has no "drop everything now" operation,
// but an unreferenced pool is collected — buffers and all — at the next GC.
var dpScratchPool = newPoolPtr(func() any { return &dpScratch{} })

func getDPScratch() *dpScratch   { return dpScratchPool.Load().Get().(*dpScratch) }
func putDPScratch(sc *dpScratch) { dpScratchPool.Load().Put(sc) }

// evalScratch is the per-call working set of evaluateIndexed.
type evalScratch struct {
	flags  []bool // accepted marker per task position
	cycles []int64
	rhos   []float64
}

var evalScratchPool = newPoolPtr(func() any { return &evalScratch{} })

// ctxPool recycles evaluation contexts (their items slice and id→index
// map) for the solvers that release them.
var ctxPool = newPoolPtr(func() any { return &evalCtx{} })

// subsetPool recycles SubsetDPs — context, scratch, memo and kept rows —
// across NewSubsetDP and Release.
var subsetPool = newPoolPtr(func() any { return &SubsetDP{} })

func newPoolPtr(newFn func() any) *atomic.Pointer[sync.Pool] {
	p := &atomic.Pointer[sync.Pool]{}
	p.Store(&sync.Pool{New: newFn})
	return p
}

// PurgeSolverScratch detaches every pooled solver buffer — DP rows and
// bitsets, evaluation contexts, evaluate scratch, SubsetDPs and their
// kept rows — so the next GC frees
// them. One n=10⁵ solve grows the pooled buffers to match and they stay
// that size for every later solve; long-lived callers (the serve engine
// after a jumbo request) purge so one large instance stops taxing the
// small ones that follow. In-flight solves keep working: a buffer checked
// out before the purge is simply returned to the fresh pool afterwards.
func PurgeSolverScratch() {
	dpScratchPool.Store(&sync.Pool{New: func() any { return &dpScratch{} }})
	evalScratchPool.Store(&sync.Pool{New: func() any { return &evalScratch{} }})
	ctxPool.Store(&sync.Pool{New: func() any { return &evalCtx{} }})
	subsetPool.Store(&sync.Pool{New: func() any { return &SubsetDP{} }})
}

// growF64 returns a length-n slice reusing buf's backing when it is large
// enough. Contents are unspecified; callers re-initialize.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

func growI64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

func growItems(buf []item, n int) []item {
	if cap(buf) < n {
		return make([]item, n)
	}
	return buf[:n]
}
