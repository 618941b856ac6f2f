package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// fingerprintVersion is folded into every digest so a future change to the
// encoding can never alias keys produced by an older layout. Version 2
// added the FastPow flag: a FastPow solve is a distinct cached artifact
// from the exact solve of the same instance. Version 3 added the
// heterogeneous processor vector: a profile-vector solve can never alias
// a single-processor key.
const fingerprintVersion = 3

// Fingerprint returns the canonical cache key of a request: a sha256 digest
// over the solver name, the processor description and the task set with
// tasks sorted by ID. Sorting makes the key order-insensitive, so permuted
// task sets land in the same cache slot; the engine then verifies exact
// equality (including order) before reusing a stored solution, because
// float summation order is observable in the solved Penalty.
//
// quantum > 0 buckets every float to the nearest multiple before hashing —
// near-identical instances then share a slot and the exact-match check
// decides whether the stored solution may be served. quantum = 0 hashes
// exact bit patterns.
//
// The digest is returned as a raw 32-byte string usable as a map key.
func Fingerprint(req Request, quantum float64) string {
	// One exact-size allocation: the encoding is fixed-width per field
	// (8 bytes per float/int, 1 byte per bool), so the length is known up
	// front. This is the hot path of every cache hit.
	procSize := 7*8 + 1 + 8*len(req.Proc.Levels)
	for _, p := range req.Procs {
		procSize += 7*8 + 1 + 8*len(p.Levels)
	}
	size := 8 + 8 + len(req.Solver) + 1 + // version, solver, fastpow
		8 + procSize + // vector length, processor(s)
		8 + 8 + 32*len(req.Tasks.Tasks) // deadline, count, tasks
	buf := make([]byte, 0, size)

	buf = binary.LittleEndian.AppendUint64(buf, fingerprintVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(req.Solver)))
	buf = append(buf, req.Solver...)
	if req.FastPow {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}

	buf = appendProcs(buf, req, quantum)

	buf = appendFloat(buf, req.Tasks.Deadline, quantum)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(req.Tasks.Tasks)))
	for _, t := range sortedTasks(req.Tasks.Tasks) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.ID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Cycles))
		buf = appendFloat(buf, t.Penalty, quantum)
		buf = appendFloat(buf, t.Rho, quantum)
	}

	sum := sha256.Sum256(buf)
	return string(sum[:])
}

// procKey is the exact-bits digest of the processor description alone —
// the whole profile vector for heterogeneous requests. The batch planner
// uses it to build one ProcProfile per distinct single processor.
func procKey(req Request) string {
	var buf []byte
	buf = appendProcs(buf, req, 0)
	sum := sha256.Sum256(buf)
	return string(sum[:])
}

// appendProcs encodes the request's processor description: a vector-length
// prefix (0 for the single-processor form) followed by each processor.
// The prefix keeps an M=1 heterogeneous request from aliasing the
// single-processor encoding of the same profile.
func appendProcs(buf []byte, req Request, quantum float64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(req.Procs)))
	if len(req.Procs) == 0 {
		return appendProc(buf, req.Proc, quantum)
	}
	for _, p := range req.Procs {
		buf = appendProc(buf, p, quantum)
	}
	return buf
}

// appendProc encodes one processor description (model, speed range,
// levels, dormant mode) into buf.
func appendProc(buf []byte, p speed.Proc, quantum float64) []byte {
	buf = appendFloat(buf, p.Model.Pind, quantum)
	buf = appendFloat(buf, p.Model.Coeff, quantum)
	buf = appendFloat(buf, p.Model.Alpha, quantum)
	buf = appendFloat(buf, p.SMin, quantum)
	buf = appendFloat(buf, p.SMax, quantum)
	if p.DormantEnable {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendFloat(buf, p.Esw, quantum)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p.Levels)))
	for _, l := range p.Levels {
		buf = appendFloat(buf, l, quantum)
	}
	return buf
}

// appendFloat encodes x's bit pattern, optionally bucketed to the nearest
// multiple of quantum. Quantization only widens cache slots; the exact-match
// verification keeps results bit-faithful.
func appendFloat(buf []byte, x, quantum float64) []byte {
	if quantum > 0 {
		x = math.Round(x/quantum) * quantum
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
}

// sortedTasks returns the tasks in ascending ID order (stable on duplicate
// IDs, which validation later rejects anyway). The common already-sorted
// case returns the input slice without copying.
func sortedTasks(ts []task.Task) []task.Task {
	sorted := true
	for i := 1; i < len(ts); i++ {
		if ts[i].ID < ts[i-1].ID {
			sorted = false
			break
		}
	}
	if sorted {
		return ts
	}
	c := slices.Clone(ts)
	slices.SortStableFunc(c, func(a, b task.Task) int { return a.ID - b.ID })
	return c
}

// appendExact appends a request's exact identity: every bit a solve
// depends on, task order included, Timeout excluded. Each field is
// self-delimiting, so two requests encode equally exactly when they are
// bit-identical. The plan cache keeps this encoding in place of a cloned
// request, which is why IDs, cycles and Rho bits go in as varints, and
// processor floats as short codes (appendExactProc): one to three bytes
// each for typical values instead of eight.
func appendExact(buf []byte, req Request) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(req.Solver)))
	buf = append(buf, req.Solver...)
	if req.FastPow {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendExactProc(buf, req.Proc)
	buf = binary.AppendUvarint(buf, uint64(len(req.Procs)))
	for _, p := range req.Procs {
		buf = appendExactProc(buf, p)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(req.Tasks.Deadline))
	buf = binary.AppendUvarint(buf, uint64(len(req.Tasks.Tasks)))
	for _, t := range req.Tasks.Tasks {
		buf = binary.AppendVarint(buf, int64(t.ID))
		buf = binary.AppendVarint(buf, t.Cycles)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Penalty))
		buf = binary.AppendUvarint(buf, math.Float64bits(t.Rho))
	}
	return buf
}

// appendExactProc is appendProc's exact-key form: the same fields, each
// float as the uvarint of its byte-reversed bits. Processor floats are
// short binary fractions (0, 0.5, 1, 3), whose set bits all sit in the
// sign, exponent and top mantissa bytes; reversed, those are the low
// bytes, so the code takes 1–3 bytes instead of 8. The reversal is a
// bijection and the uvarint self-delimiting, so the code stays exact.
// Fingerprint keeps appendProc's fixed-width layout: ring routing hashes
// it.
func appendExactProc(buf []byte, p speed.Proc) []byte {
	buf = appendShortFloat(buf, p.Model.Pind)
	buf = appendShortFloat(buf, p.Model.Coeff)
	buf = appendShortFloat(buf, p.Model.Alpha)
	buf = appendShortFloat(buf, p.SMin)
	buf = appendShortFloat(buf, p.SMax)
	if p.DormantEnable {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendShortFloat(buf, p.Esw)
	buf = binary.AppendUvarint(buf, uint64(len(p.Levels)))
	for _, l := range p.Levels {
		buf = appendShortFloat(buf, l)
	}
	return buf
}

func appendShortFloat(buf []byte, x float64) []byte {
	return binary.AppendUvarint(buf, bits.ReverseBytes64(math.Float64bits(x)))
}

// exactKey returns appendExact(req) in an exact-size slice, for keeping.
func exactKey(req Request) []byte {
	bp := scratchBufs.Get().(*[]byte)
	b := appendExact((*bp)[:0], req)
	key := bytes.Clone(b)
	putScratch(bp, b)
	return key
}

// sameRequest reports whether req is the request whose exactKey is key.
// This is the gate between "same cache slot" and "may reuse the stored
// solution": only a bit-identical input is guaranteed a bit-identical
// output.
func sameRequest(key []byte, req Request) bool {
	bp := scratchBufs.Get().(*[]byte)
	b := appendExact((*bp)[:0], req)
	eq := bytes.Equal(key, b)
	putScratch(bp, b)
	return eq
}

// requestsEqual reports bit-exact equality of two requests, including task
// order.
func requestsEqual(a, b Request) bool { return sameRequest(exactKey(a), b) }
