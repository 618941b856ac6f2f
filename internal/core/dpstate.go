package core

import "math"

// DefaultCheckpointStride is the row-snapshot interval of SolveCheckpoint
// when DP.CheckpointStride is 0.
const DefaultCheckpointStride = 64

// DPState is the checkpointed row state of one rejection-DP solve: the
// take bits of every row, written in place by the row driver, plus row
// snapshots every CheckpointStride rows and at the final row. SolveFrom
// warm-starts a later solve from it, re-running only the rows at or
// after the first task where the two instances diverge.
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
// produced it (DP.Sparse and, under SparseAuto, the dense admission
// check), never a mix: dense states hold the packed take table plus f-row
// snapshots, sparse states hold the breakpoint arenas of dpsparse.go plus
// (workload, value) breakpoint snapshots. SolveFrom warms only a solve
// whose cold run would pick the state's representation. Sparse rows carry
// only the dominance frontier, which is exact for every energy curve —
// E(w) is non-decreasing on every processor flavour (see speed.Curve) —
// so a sparse state recorded on one processor warms any other.
//
// The zero value is ready for SolveCheckpoint. A state being read by
// SolveFrom(..., evolve=false) is never written and may serve any number
// of concurrent readers; evolve=true mutates the state in place and
// requires exclusive ownership.
type DPState struct {
	valid  bool
	sparse bool  // rows recorded by the sparse kernel
	n      int   // item rows recorded
	cap64  int64 // integer grid capacity the table was built on
	stride int
	perRow int64 // dense take words per row, (cap64+1+63)/64
	items  []item
	words  []uint64   // dense take bits, rows 0..n-1
	sp     sparseRows // sparse take bits, rows 0..n-1
	snaps  []dpSnap   // ascending by row; last row always snapshotted
}

// dpSnap is one row snapshot after `row` items have been folded in: the
// finite dense prefix f[0:reach+1] with ws empty (cells above reach were
// never written and are +Inf), or the kept sparse breakpoints (ws, f).
type dpSnap struct {
	row int
	ws  []int64
	f   []float64
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

// begin resets the state for a fresh recording of n rows, keeping
// backing arrays; the solver writes the take bits in place as it runs.
func (st *DPState) begin(cap64 int64, stride, n int, sparse bool) {
	st.valid, st.sparse = false, sparse
	st.cap64, st.stride, st.n = cap64, stride, n
	st.perRow = (cap64 + 64) / 64
	st.snaps = st.snaps[:0]
}

// rows is the state's take-bit record, rows 0..n-1.
func (st *DPState) rows() rowRec {
	if st.sparse {
		return rowRec{sp: &st.sp}
	}
	return rowRec{words: st.words, perRow: st.perRow}
}

// note is the recording hook: it snapshots the row after `rows` items on
// the stride grid and at the final row st.n, reusing the buffers of a
// previously truncated snapshot slot when one is available.
func (st *DPState) note(rows int, ws []int64, f []float64) {
	if rows%st.stride != 0 && rows != st.n {
		return
	}
	var s dpSnap
	if k := len(st.snaps); k < cap(st.snaps) {
		s = st.snaps[:k+1][k]
	}
	s.row = rows
	s.ws = append(s.ws[:0], ws...)
	s.f = append(s.f[:0], f...)
	st.snaps = append(st.snaps, s)
}

// checkpoint returns the index of the latest snapshot at or before the
// first row where its diverges from the recorded items, or false when
// none precedes it. Only the (c, v) bit patterns participate: IDs label
// the reconstruction but never steer the table.
func (st *DPState) checkpoint(its []item) (int, bool) {
	div := 0
	for lim := min(len(its), st.n); div < lim; div++ {
		a, b := its[div], st.items[div]
		if a.c != b.c || math.Float64bits(a.v) != math.Float64bits(b.v) {
			break
		}
	}
	for k := len(st.snaps) - 1; k >= 0; k-- {
		if st.snaps[k].row <= div {
			return k, true
		}
	}
	return 0, false
}

// ensureRows grows the dense take table to hold n rows, preserving the
// first keep rows. Growth doubles so an append-per-event stream stays
// amortized O(1) words copied per row.
func (st *DPState) ensureRows(n, keep int) {
	need := int64(n) * st.perRow
	if int64(cap(st.words)) < need {
		nw := make([]uint64, need, max(need, 2*int64(cap(st.words))))
		copy(nw, st.words[:int64(keep)*st.perRow])
		st.words = nw
		return
	}
	st.words = st.words[:need]
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
// different grid capacity, a row representation other than the one a
// cold d.Solve(in) would pick, or divergence before the first
// checkpoint); the caller should cold-solve. A non-nil error is the same
// failure a cold solve would report: SolveFrom errors only where the cold
// solve errors. The returned DPStats counts only the re-run rows — the
// measure of work saved.
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
	r, err := d.newRun(ctx.items, cap64)
	if err != nil {
		return Solution{}, stats, false, err
	}
	if r.sparse != st.sparse {
		return Solution{}, stats, false, nil
	}
	k, found := st.checkpoint(ctx.items)
	if !found {
		return Solution{}, stats, false, nil
	}
	from := st.snaps[k]
	r.lo = st.rows()
	if r.sparse {
		r.spent = st.sp.off[from.row] // the breakpoints a cold solve spent on the prefix
	}
	if evolve {
		st.stride = d.checkpointStride()
		st.snaps = st.snaps[:k+1]
		st.n = len(ctx.items)
		r.rec = st
	}
	// The snapshot is read-only on both paths (evolve truncates the row
	// records and the snapshot list, never the kept snapshot's buffers),
	// so it serves as row from.row directly. The final scan and the
	// evaluation run against in's own energy curve — this is where
	// instances sharing rows but differing in processor model, FastPow or
	// dormant mode part ways, each exactly.
	sc := getDPScratch()
	defer putDPScratch(sc)
	ids, err := r.solve(sc, from, ctx.energy)
	if err != nil {
		return Solution{}, r.stats, true, err
	}
	sol, err = ctx.evaluate(ids)
	return sol, r.stats, true, err
}
