package core

import (
	"fmt"
	"math"
)

// DefaultCheckpointStride is the row-snapshot interval of SolveCheckpoint
// when DP.CheckpointStride is 0.
const DefaultCheckpointStride = 64

// DPState is the checkpointed row state of one rejection-DP solve: the
// packed take-bit table of every row (the dpkernel layout, shared with the
// cold solver) plus f-row snapshots every CheckpointStride rows and at the
// final row. SolveFrom warm-starts a later solve from it, re-running only
// the rows at or after the first task where the two instances diverge.
//
// The key validity fact: a DP row depends only on the (cycles, penalty)
// bit patterns of the item prefix and on the integer grid capacity — not
// on the energy curve, the processor's power model, task IDs or FastPow,
// all of which enter only the final workload scan and the solution
// evaluation, which SolveFrom performs fresh against its own instance.
// Two instances sharing the grid capacity and an item prefix therefore
// share those rows bit-for-bit.
//
// A state records either dense or sparse rows, matching the kernel that
// produced it (DP.Sparse), never a mix: dense states hold the packed take
// table plus f-row snapshots, sparse states hold the breakpoint arenas of
// dpsparse.go plus (workload, value) breakpoint snapshots. One extra
// validity caveat applies to sparse states whose rows were dominance-
// pruned (recorded under a monotone energy curve): such rows carry only
// the penalty frontier, which is exact only for monotone final scans, so
// SolveFrom declines non-monotone instances instead of warm-starting them.
//
// The zero value is ready for SolveCheckpoint. A state being read by
// SolveFrom(..., evolve=false) is never written and may serve any number
// of concurrent readers; evolve=true mutates the state in place and
// requires exclusive ownership.
type DPState struct {
	valid  bool
	n      int   // item rows recorded
	cap64  int64 // integer grid capacity the table was built on
	stride int
	perRow int64 // take-table words per row, (cap64+1+63)/64
	items  []item
	words  []uint64 // packed take bits, rows 0..n-1
	snaps  []dpSnap // ascending by row; last row always snapshotted

	sparse  bool // rows recorded by the sparse kernel
	pruned  bool // sparse rows carry only the dominance frontier
	sp      sparseRows
	spSnaps []sparseSnap // ascending by row; last row always snapshotted
}

// sparseSnap is one sparse row snapshot: the kept (workload, value)
// breakpoints after `row` items have been folded in.
type sparseSnap struct {
	row int
	ws  []int64
	fs  []float64
}

// dpSnap is one f-row snapshot: the finite prefix after `row` items have
// been folded in. Cells above reach were never written and are +Inf.
type dpSnap struct {
	row   int
	reach int64
	f     []float64 // length reach+1
}

// Valid reports whether the state holds a completed recorded solve.
func (st *DPState) Valid() bool { return st != nil && st.valid }

// Rows returns the number of item rows recorded.
func (st *DPState) Rows() int { return st.n }

// GridCapacity returns the integer workload capacity the table was built
// on — the warm-start compatibility key (see DPGridCapacity).
func (st *DPState) GridCapacity() int64 { return st.cap64 }

// Reset invalidates the state, keeping its buffers for reuse.
func (st *DPState) Reset() { st.valid = false }

// AppendSnapshotRows appends the checkpointed row numbers in ascending
// order — the prefix lengths a warm solve can restart from with zero
// replay. The serve-layer similarity index registers its hash-chain keys
// at exactly these rows.
func (st *DPState) AppendSnapshotRows(buf []int) []int {
	if st.sparse {
		for _, s := range st.spSnaps {
			buf = append(buf, s.row)
		}
		return buf
	}
	for _, s := range st.snaps {
		buf = append(buf, s.row)
	}
	return buf
}

// MemoryBytes estimates the state's retained heap: the take table, the
// snapshots and the item copy. Cache budgets evict on it.
func (st *DPState) MemoryBytes() int64 {
	if st.sparse {
		b := st.sp.memoryBytes()
		for _, s := range st.spSnaps {
			b += int64(len(s.ws))*8 + int64(len(s.fs))*8
		}
		return b + int64(len(st.items))*32
	}
	b := int64(len(st.words)) * 8
	for _, s := range st.snaps {
		b += int64(len(s.f)) * 8
	}
	b += int64(len(st.items)) * 32
	return b
}

// begin resets the state for a fresh dense recording, keeping backing
// arrays.
func (st *DPState) begin(cap64 int64, stride, n int) {
	st.valid = false
	st.sparse = false
	st.cap64 = cap64
	st.stride = stride
	st.n = n
	st.perRow = (cap64 + 1 + 63) / 64
	st.snaps = st.snaps[:0]
	st.spSnaps = st.spSnaps[:0]
}

// beginSparse resets the state for a fresh sparse recording; the solver
// writes the row arenas (st.sp) in place as it runs.
func (st *DPState) beginSparse(cap64 int64, stride, n int, pruned bool) {
	st.valid = false
	st.sparse = true
	st.pruned = pruned
	st.cap64 = cap64
	st.stride = stride
	st.n = n
	st.perRow = 0
	st.snaps = st.snaps[:0]
	st.spSnaps = st.spSnaps[:0]
}

// noteSparseRow is the sparse recording hook: snapshot breakpoints on the
// stride grid and at the final row.
func (st *DPState) noteSparseRow(rows int, ws []int64, fs []float64) {
	if rows%st.stride != 0 && rows != st.n {
		return
	}
	st.addSparseSnap(rows, ws, fs)
}

// noteEvolvedSparseRow is noteSparseRow against the evolving target row
// count, matching what a cold sparse recording of the evolved instance
// would have snapshotted from this row on.
func (st *DPState) noteEvolvedSparseRow(rows, n int, ws []int64, fs []float64) {
	if rows%st.stride != 0 && rows != n {
		return
	}
	st.addSparseSnap(rows, ws, fs)
}

// addSparseSnap appends a breakpoint snapshot, reusing the buffers of a
// previously truncated snapshot slot when one is available.
func (st *DPState) addSparseSnap(row int, ws []int64, fs []float64) {
	if k := len(st.spSnaps); k > 0 && st.spSnaps[k-1].row == row {
		return
	}
	var s sparseSnap
	if len(st.spSnaps) < cap(st.spSnaps) {
		s = st.spSnaps[:len(st.spSnaps)+1][len(st.spSnaps)]
	}
	s.row = row
	s.ws = append(s.ws[:0], ws...)
	s.fs = append(s.fs[:0], fs...)
	st.spSnaps = append(st.spSnaps, s)
}

// finishSparse copies the item prefix and marks the state valid; the row
// arenas were written in place by the solver.
func (st *DPState) finishSparse(items []item) {
	st.items = append(st.items[:0], items...)
	st.valid = true
}

// noteRow is the rejectionDP onRow hook: snapshot on the stride grid and
// at the final row.
func (st *DPState) noteRow(rows int, f []float64, reach int64) {
	if rows%st.stride != 0 && rows != st.n {
		return
	}
	st.addSnap(rows, reach, f)
}

// addSnap appends a snapshot of f[0:reach+1], reusing the float buffer of
// a previously truncated snapshot slot when one is available.
func (st *DPState) addSnap(row int, reach int64, f []float64) {
	if k := len(st.snaps); k > 0 && st.snaps[k-1].row == row {
		return
	}
	var buf []float64
	if len(st.snaps) < cap(st.snaps) {
		buf = st.snaps[:len(st.snaps)+1][len(st.snaps)].f
	}
	buf = growF64(buf, int(reach+1))
	copy(buf, f[:reach+1])
	st.snaps = append(st.snaps, dpSnap{row: row, reach: reach, f: buf})
}

// finish copies the item prefix and the completed take table into the
// state and marks it valid.
func (st *DPState) finish(items []item, words []uint64) {
	st.items = append(st.items[:0], items...)
	need := int64(st.n) * st.perRow
	st.words = growU64(st.words, int(need))
	copy(st.words, words[:need])
	st.valid = true
}

// ensureRows grows the take table to hold n rows, preserving the first
// keep rows. Growth doubles so an append-per-event stream stays amortized
// O(1) words copied per row.
func (st *DPState) ensureRows(n, keep int) {
	need := int64(n) * st.perRow
	if int64(cap(st.words)) < need {
		newCap := need
		if c := 2 * int64(cap(st.words)); c > newCap {
			newCap = c
		}
		nw := make([]uint64, need, newCap)
		copy(nw, st.words[:int64(keep)*st.perRow])
		st.words = nw
		return
	}
	st.words = st.words[:need]
}

// take reports row i's take bit at workload w against the state's table.
func (st *DPState) take(i int, w int64) bool {
	return st.words[int64(i)*st.perRow+w/64]&(1<<uint(w%64)) != 0
}

// DPGridCapacity returns the integer workload capacity DP grids the
// instance on — two instances can share checkpointed row state only when
// this value (and the item prefix) matches. Returns -1 when the capacity
// is not a representable grid (such instances fail validation in any
// solve); -1 never equals a recorded state's capacity.
func DPGridCapacity(in Instance) int64 {
	c := math.Floor(in.Capacity() * (1 + 1e-12))
	if math.IsNaN(c) || c < 0 || c >= float64(math.MaxInt64) {
		return -1
	}
	return int64(c)
}

// SolveCheckpoint is SolveStats recording the run's checkpointed row state
// into st for later SolveFrom warm starts. The solution is bit-identical
// to Solve; on error st is left invalid.
func (d DP) SolveCheckpoint(in Instance, st *DPState) (Solution, DPStats, error) {
	return d.solve(in, st)
}

// SolveFrom solves in warm-started from the recorded state of a previous
// solve: it finds the first task where in diverges from the recorded item
// prefix (comparing cycles and penalty bit patterns; IDs and the
// processor's power model don't enter the table), restores the last
// checkpoint at or before it, and re-runs only the remaining rows. The
// final workload scan and the solution evaluation always use in's own
// energy curve, so the result is bit-identical to a cold d.Solve(in) —
// the differential corpus and FuzzDeltaSolve pin this.
//
// ok=false means the state cannot warm this instance (invalid state,
// different grid capacity, or divergence before the first checkpoint);
// the caller should cold-solve. A non-nil error is the same failure a
// cold solve would report. The returned DPStats counts only the re-run
// rows — the measure of work saved.
//
// evolve=false treats st as read-only (safe for concurrent SolveFrom
// calls sharing one parent); evolve=true requires exclusive ownership and
// advances st in place to describe in, appending fresh checkpoints, so an
// event stream pays only its divergence suffix per step.
func (d DP) SolveFrom(st *DPState, in Instance, evolve bool) (sol Solution, stats DPStats, ok bool, err error) {
	if !st.Valid() {
		return Solution{}, stats, false, nil
	}
	ctx, err := newPooledEvalCtx(in)
	if err != nil {
		return Solution{}, stats, false, err
	}
	defer ctx.release()
	if ctx.hetero {
		return Solution{}, stats, false, ErrHeterogeneous
	}
	cap64 := dpCapacity(ctx.capacity)
	if cap64 != st.cap64 {
		return Solution{}, stats, false, nil
	}
	if st.sparse {
		// Sparse states re-run on the sparse kernel under the breakpoint
		// budget; the dense grid-area admission below does not apply.
		return d.solveFromSparse(ctx, st, cap64, evolve)
	}
	limit := d.MaxStates
	if limit == 0 {
		limit = DefaultMaxDPStates
	}
	if work := int64(len(ctx.items)) * (cap64 + 1); work > limit {
		return Solution{}, stats, false, denseStatesErr(work, len(ctx.items), cap64, limit)
	}

	items := ctx.items
	n := len(items)
	// First divergent row. Only the (c, v) bit patterns participate: IDs
	// label the reconstruction but never steer the table.
	div := 0
	for lim := min(n, st.n); div < lim; div++ {
		a, b := items[div], st.items[div]
		if a.c != b.c || math.Float64bits(a.v) != math.Float64bits(b.v) {
			break
		}
	}
	// Latest checkpoint at or before the divergence.
	si := -1
	for i := len(st.snaps) - 1; i >= 0; i-- {
		if st.snaps[i].row <= div {
			si = i
			break
		}
	}
	if si < 0 {
		return Solution{}, stats, false, nil
	}
	snap := st.snaps[si]
	start := snap.row
	width := cap64 + 1
	perRow := st.perRow
	workers := d.Workers
	if workers < 1 {
		workers = 1
	}

	// Restore the checkpoint into fresh Inf-filled buffers — cells beyond
	// the snapshot's reach must read +Inf exactly as they did mid-cold-run.
	sc := getDPScratch()
	defer putDPScratch(sc)
	prev := growF64(sc.f, int(width))
	sc.f = prev
	cur := growF64(sc.f2, int(width))
	sc.f2 = cur
	for w := range prev {
		prev[w] = math.Inf(1)
	}
	for w := range cur {
		cur[w] = math.Inf(1)
	}
	reach := snap.reach
	copy(prev[:reach+1], snap.f)

	// Take bits for the re-run rows. The kernels only guarantee full
	// rewrites of the words covering reachable cells, so stale rows are
	// cleared up front — exactly the state newTakeTable hands a cold run.
	var words []uint64
	if evolve {
		st.stride = d.checkpointStride()
		st.snaps = st.snaps[:si+1]
		st.ensureRows(n, start)
		words = st.words
		clear(words[int64(start)*perRow : int64(n)*perRow])
	} else {
		words = growU64(sc.words, int(int64(n-start)*perRow))
		sc.words = words
		clear(words)
	}
	// rowBase translates absolute row i into words: in-place rows on the
	// evolve path, a compact [start, n) window on the read-only path.
	rowBase := func(i int) int64 {
		if evolve {
			return int64(i) * perRow
		}
		return int64(i-start) * perRow
	}

	// Re-run rows start..n-1, mirroring rejectionDP operation for
	// operation (same kernels, same parallel chunking condition).
	for i := start; i < n; i++ {
		stats.Rows++
		c, v := items[i].c, items[i].v
		if c > cap64 {
			hi := reach + 1
			dpRejectRange(prev, cur, v, 0, hi)
			stats.Cells += hi
			prev, cur = cur, prev
			if evolve {
				st.noteEvolvedRow(i+1, n, prev, reach)
			}
			continue
		}
		reach = min(reach+c, cap64)
		hi := reach + 1
		dpRow(prev, cur, words[rowBase(i):rowBase(i)+perRow], c, v, hi, workers)
		stats.Cells += hi
		prev, cur = cur, prev
		if evolve {
			st.noteEvolvedRow(i+1, n, prev, reach)
		}
	}
	f := prev
	if evolve {
		st.items = append(st.items[:0], items...)
		st.n = n
	}

	// The final scan and the evaluation run against in's own energy curve
	// — this is where instances sharing rows but differing in processor
	// model, FastPow or dormant mode part ways, each exactly.
	var bestW int64
	if workers > 1 && ctx.fastEnergy {
		bestW, _ = minCostWorkloadParallel(f, ctx.energy, 1, workers)
	} else {
		bestW, _ = minCostWorkload(f, ctx.energy, 1, ctx.fastEnergy)
	}
	if bestW < 0 {
		if evolve {
			st.valid = false
		}
		return Solution{}, stats, true, fmt.Errorf("core: DP found no feasible workload")
	}

	// Reconstruct: re-run rows from the fresh window, untouched prefix
	// rows from the recorded table.
	ids := sc.ids[:0]
	w := bestW
	for i := n - 1; i >= 0; i-- {
		var taken bool
		if i >= start {
			taken = words[rowBase(i)+w/64]&(1<<uint(w%64)) != 0
		} else {
			taken = st.take(i, w)
		}
		if taken {
			ids = append(ids, items[i].id)
			w -= items[i].c
		}
	}
	sc.ids = ids
	if w != 0 {
		if evolve {
			st.valid = false
		}
		return Solution{}, stats, true, fmt.Errorf("core: DP reconstruction left workload %d", w)
	}
	sol, err = ctx.evaluate(ids)
	return sol, stats, true, err
}

// noteEvolvedRow records checkpoints during an evolve re-run: the stride
// grid plus the new final row, matching what a cold SolveCheckpoint of
// the evolved instance would have recorded from this row on.
func (st *DPState) noteEvolvedRow(rows, n int, f []float64, reach int64) {
	if rows%st.stride != 0 && rows != n {
		return
	}
	st.addSnap(rows, reach, f)
}
