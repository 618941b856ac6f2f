package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"dvsreject/internal/cache"
	"dvsreject/internal/cluster"
	"dvsreject/internal/core"
	"dvsreject/internal/multiproc"
	"dvsreject/internal/serve"
	"dvsreject/internal/wire"
)

// span is one timed call, kept in memory until the run ends.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index in the same buffer; -1 for a root
	req        int           // request the span belongs to
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanBuf is one worker's span buffer. Each request's spans live in the
// buffer of the worker that sent it, so recording takes no lock.
type spanBuf struct {
	epoch time.Time
	spans []span
}

// begin opens a span. The clock is read after the append, so the
// buffer's own cost stays outside the timed interval.
func (b *spanBuf) begin(name string, parent, req int) int {
	b.spans = append(b.spans, span{name: name, parent: parent, req: req})
	i := len(b.spans) - 1
	b.spans[i].start = time.Since(b.epoch)
	return i
}

func (b *spanBuf) end(i int) { b.spans[i].end = time.Since(b.epoch) }

// timed records fn as a span.
func (b *spanBuf) timed(name string, parent, req int, fn func()) int {
	i := b.begin(name, parent, req)
	fn()
	b.end(i)
	return i
}

// tracer is the traced phase's set of span buffers.
type tracer struct {
	bufs []*spanBuf
}

// write dumps every span as one JSON object per line; parent indexes are
// global line numbers (0-based), -1 for roots.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	offset := 0
	for _, b := range t.bufs {
		for _, s := range b.spans {
			parent := s.parent
			if parent >= 0 {
				parent += offset
			}
			fmt.Fprintf(bw, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d}`+"\n",
				s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), parent, s.req)
		}
		offset += len(b.spans)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRun is everything the traced phase measured.
type tracedRun struct {
	tracer  *tracer
	wire    bool
	elapsed time.Duration
	recs    []record

	cells, sparseCells   []int64 // per dense / sparse direct solve
	rowsWarm, rowsCold   int64   // rows re-run by warm solves vs their cold solves
	allocs               []float64
	gaps                 []float64
	frameBytes           []int
	encodeNs, decodeNs   []time.Duration // wire codec per exchange: request + result
	httpSelf, engineSelf []time.Duration

	// Filled in after the phase, partly from the untraced phases.
	tracedRPS   float64
	untracedRPS float64
	steal       float64 // host steal share over every untraced round
	keptSteal   float64 // ... and over the rounds the figures came from
	openLags    []time.Duration
	openSamples int
	openP99     time.Duration
	all         tally
}

// replayer re-runs each traced request through the layers' public
// functions in process: an engine mirroring the daemon's configuration,
// a plan-cache mirror of the engine's default shape, the codecs, the ring
// and the direct core and multiproc solves. Replays are serialized, so
// engine counter deltas belong to one request.
type replayer struct {
	mu     sync.Mutex
	engine *serve.Engine
	cache  *cache.Sharded[struct{}]
	ring   *cluster.Ring
	states map[*instance]*core.DPState // recorded states of recent instances
	order  []*instance
	run    *tracedRun
}

// keepStates bounds the replayer's recorded DP states; edits pick parents
// among the last coldRecent instances, so this always covers them.
const keepStates = 4 * coldRecent

// runTraced drives the fleet closed-loop for d with tracing on: each
// request's round trip is a root span, and its replay through the layers
// supplies the child spans.
func runTraced(wl workload, f *fleet, s stream, d time.Duration) (*tracedRun, error) {
	tr := &tracedRun{tracer: &tracer{}, wire: wl.proto == "wire"}
	epoch := time.Now()
	for range slots {
		tr.tracer.bufs = append(tr.tracer.bufs, &spanBuf{epoch: epoch})
	}
	peers := make([]string, len(f.daemons))
	for i, dm := range f.daemons {
		peers[i] = dm.wireAddr
		if peers[i] == "" {
			peers[i] = dm.httpAddr
		}
	}
	rp := &replayer{
		engine: serve.New(serve.Config{}),
		cache:  cache.NewSharded[struct{}](16, 256),
		ring:   cluster.NewRing(peers, 0),
		states: map[*instance]*core.DPState{},
		run:    tr,
	}

	var send [slots]func(buf *spanBuf, id int, inst *instance, replay bool) record
	var closers []func()
	if tr.wire {
		nodes := make([]*cluster.WireClient, len(peers))
		for i, p := range peers {
			nodes[i] = cluster.NewWireClient(p)
			closers = append(closers, nodes[i].Close)
		}
		for s := range send {
			send[s] = func(buf *spanBuf, id int, inst *instance, replay bool) record {
				return rp.wireRequest(buf, id, inst, nodes, replay)
			}
		}
	} else {
		for s := range send {
			hc := newHTTPClient(f.daemons[0].httpAddr)
			closers = append(closers, hc.close)
			health := "http://" + f.daemons[0].httpAddr + "/healthz"
			send[s] = func(buf *spanBuf, id int, inst *instance, replay bool) record {
				return rp.httpRequest(buf, id, inst, hc, health, replay)
			}
		}
	}
	defer func() {
		for _, c := range closers {
			c()
		}
	}()

	var mu sync.Mutex
	nextID := 0
	next := func() (group, int) {
		mu.Lock()
		defer mu.Unlock()
		nextID += 2
		return s.next(), nextID - 2
	}
	recs := make([][]record, slots)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	if wl.pair {
		for time.Now().Before(deadline) {
			g, id := next()
			for slot, inst := range g {
				wg.Add(1)
				go func(slot int, inst *instance) {
					defer wg.Done()
					// One replay per pair: both requests carry the same instance.
					r := send[slot](tr.tracer.bufs[slot], id+slot, inst, slot == 0)
					recs[slot] = append(recs[slot], r)
				}(slot, inst)
			}
			wg.Wait()
		}
	} else {
		for slot := range send {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					g, id := next()
					recs[slot] = append(recs[slot], send[slot](tr.tracer.bufs[slot], id, g[0], true))
				}
			}(slot)
		}
		wg.Wait()
	}
	tr.elapsed = time.Since(start)
	for _, r := range recs {
		tr.recs = append(tr.recs, r...)
	}
	return tr, nil
}

// httpRequest is one traced HTTP request: the round trip is the root
// span; the replay adds a bare round trip (GET /healthz on the same
// connection), the server-side JSON decode, the engine and the response
// encode as its children, and the wire codec off the path.
func (rp *replayer) httpRequest(buf *spanBuf, id int, inst *instance, hc *httpClient, health string, replay bool) record {
	root := buf.begin("request", -1, id)
	t0 := time.Now()
	out := hc.solve(inst)
	lat := time.Since(t0)
	buf.end(root)
	if !replay || out.err != nil {
		return record{inst: inst, lat: lat, out: out}
	}
	buf.timed("transport", root, id, func() {
		resp, err := hc.c.Get(health)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	rp.mu.Lock()
	defer rp.mu.Unlock()
	var req serve.Request
	buf.timed("serve.json_decode", root, id, func() {
		var wr serve.WireRequest
		if json.Unmarshal(inst.body, &wr) == nil {
			req, _ = wr.ToRequest()
		}
	})
	resp, engine := rp.engineSolve(buf, root, id, inst, req)
	buf.timed("serve.json_encode", root, id, func() {
		json.NewEncoder(io.Discard).Encode(wireResponse(resp))
	})
	rp.run.httpSelf = append(rp.run.httpSelf, buf.spans[root].dur()-buf.spans[engine].dur())
	if len(inst.req.Procs) == 0 {
		rp.wireCodec(buf, -1, id, inst.req, resp)
	}
	rp.ownerProbe(buf, id, inst.req)
	return record{inst: inst, lat: lat, out: out}
}

// wireRequest is one traced wire request: client-side fingerprint and
// ring routing, then WireClient.Solve to the owner. The replay nests the
// codec, a bare round trip (a one-task solve the node answers from its
// cache) and the engine under the WireClient.Solve span.
func (rp *replayer) wireRequest(buf *spanBuf, id int, inst *instance, nodes []*cluster.WireClient, replay bool) record {
	root := buf.begin("request", -1, id)
	t0 := time.Now()
	var fp string
	var owner int
	buf.timed("serve.fingerprint", root, id, func() { fp = serve.Fingerprint(inst.req, 0) })
	buf.timed("cluster.owner", root, id, func() { owner = rp.ring.Owner(fp) })
	var res wire.Result
	var err error
	rtt := buf.timed("cluster.wire_rtt", root, id, func() { res, err = nodes[owner].Solve(inst.req) })
	lat := time.Since(t0)
	buf.end(root)
	out := outcome{sol: res.Solution, full: true, err: err}
	if !replay || err != nil {
		return record{inst: inst, lat: lat, out: out}
	}
	buf.timed("transport", rtt, id, func() {
		nodes[owner].Solve(serve.Request{Tasks: probeSet, Proc: unitProc, Solver: "DP"})
	})
	rp.mu.Lock()
	defer rp.mu.Unlock()
	resp, _ := rp.engineSolve(buf, rtt, id, inst, inst.req)
	rp.wireCodec(buf, rtt, id, inst.req, resp)
	// The JSON codec on the same request, off the wire path.
	var wr serve.WireRequest
	body, _ := json.Marshal(serve.WireRequest{Solver: inst.req.Solver, Deadline: inst.req.Tasks.Deadline, SMax: inst.req.Proc.SMax, Tasks: wireTasks(inst.req.Tasks)})
	buf.timed("serve.json_decode", -1, id, func() {
		if json.Unmarshal(body, &wr) == nil {
			wr.ToRequest()
		}
	})
	buf.timed("serve.json_encode", -1, id, func() {
		json.NewEncoder(io.Discard).Encode(wireResponse(resp))
	})
	return record{inst: inst, lat: lat, out: out}
}

// wireCodec times the binary codec on one exchange: the client encodes
// the request, the server decodes it, encodes the result, and the client
// decodes that.
func (rp *replayer) wireCodec(buf *spanBuf, parent, id int, req serve.Request, resp serve.Response) {
	wreq := wire.Request{Solver: req.Solver, Tasks: req.Tasks, Proc: req.Proc, FastPow: req.FastPow, Timeout: req.Timeout}
	var reqBytes, resBytes []byte
	res := wire.Result{Solution: resp.Solution, CacheHit: resp.CacheHit, Coalesced: resp.Coalesced}
	e1 := buf.timed("wire.encode_request", parent, id, func() { reqBytes = wire.EncodeRequest(wreq) })
	d1 := buf.timed("wire.decode_request", parent, id, func() { wire.DecodeRequest(reqBytes) })
	e2 := buf.timed("wire.encode_result", parent, id, func() { resBytes = wire.EncodeResult(res) })
	d2 := buf.timed("wire.decode_result", parent, id, func() { wire.DecodeResult(resBytes) })
	s := buf.spans
	rp.run.encodeNs = append(rp.run.encodeNs, s[e1].dur()+s[e2].dur())
	rp.run.decodeNs = append(rp.run.decodeNs, s[d1].dur()+s[d2].dur())
	const frameHeader = 6 // u32 length, version, type
	rp.run.frameBytes = append(rp.run.frameBytes, len(reqBytes)+len(resBytes)+2*frameHeader)
}

// ownerProbe times Ring.Owner on the request's key for workloads whose
// client does not route.
func (rp *replayer) ownerProbe(buf *spanBuf, id int, req serve.Request) {
	fp := serve.Fingerprint(req, 0)
	buf.timed("cluster.owner", -1, id, func() { rp.ring.Owner(fp) })
}

// engineSolve runs the request through the mirror engine as a span, with
// the fingerprint, a plan-cache lookup and, on a miss, the direct solve
// the engine performs nested under it. Callers hold rp.mu.
func (rp *replayer) engineSolve(buf *spanBuf, parent, id int, inst *instance, req serve.Request) (serve.Response, int) {
	before := rp.engine.Stats()
	var resp serve.Response
	eng := buf.timed("serve.engine", parent, id, func() { resp = rp.engine.Solve(context.Background(), req) })
	name := "serve.miss"
	if resp.CacheHit {
		name = "serve.hit"
	}
	buf.spans[eng].name = name
	var fp string
	buf.timed("serve.fingerprint", eng, id, func() { fp = serve.Fingerprint(req, 0) })
	hit := false
	buf.timed("cache.get", eng, id, func() { _, hit = rp.cache.Get(fp) })
	if !hit {
		rp.cache.Put(fp, struct{}{})
	}
	if resp.CacheHit || resp.Err != nil {
		return resp, eng
	}
	delta := rp.engine.Stats().DeltaSolves > before.DeltaSolves
	var inner int
	if len(req.Procs) > 0 {
		inner = rp.heteroSolves(buf, eng, id, req)
	} else {
		inner = rp.coreSolves(buf, eng, id, inst, req, delta)
	}
	rp.run.engineSelf = append(rp.run.engineSelf, buf.spans[eng].dur()-buf.spans[inner].dur())
	return resp, eng
}

// coreSolves times the direct DP routes on a missed request:
// SolveCheckpoint (the engine's cold path), SolveStats (dense or sparse
// rows, with cell counts) and, for an edit whose parent was recorded,
// SolveFrom. The span matching the engine's own route is nested under it;
// the index of that span is returned.
func (rp *replayer) coreSolves(buf *spanBuf, eng, id int, inst *instance, req serve.Request, delta bool) int {
	in := core.Instance{Tasks: req.Tasks, Proc: req.Proc, FastPow: req.FastPow}
	dp := core.DP{CheckpointStride: core.DefaultCheckpointStride}
	st := &core.DPState{}
	var cold core.DPStats
	ckpt := buf.timed("core.dp_checkpoint", -1, id, func() { _, cold, _ = dp.SolveCheckpoint(in, st) })
	var stats core.DPStats
	full := buf.timed("core.dp_dense", -1, id, func() { _, stats, _ = dp.SolveStats(in) })
	if stats.SparseCells > 0 {
		buf.spans[full].name = "core.dp_sparse"
		rp.run.sparseCells = append(rp.run.sparseCells, stats.SparseCells)
	} else {
		rp.run.cells = append(rp.run.cells, stats.Cells)
	}
	inner := ckpt
	if inst.parent != nil {
		if pst := rp.states[inst.parent]; pst != nil {
			var warm core.DPStats
			var ok bool
			w := buf.timed("core.dp_warm", -1, id, func() { _, warm, ok, _ = dp.SolveFrom(pst, in, false) })
			if ok {
				rp.run.rowsWarm += warm.Rows
				rp.run.rowsCold += cold.Rows
				if delta {
					inner = w
				}
			} else {
				buf.spans[w].name = "core.dp_warm_declined"
			}
		}
	}
	buf.spans[inner].parent = eng
	rp.remember(inst, st)
	return inner
}

// heteroSolves times SolveHeteroCertified (nested under the engine, with
// its allocation count) and HeteroLowerBound on its own.
func (rp *replayer) heteroSolves(buf *spanBuf, eng, id int, req serve.Request) int {
	in := multiproc.HeteroInstance{Tasks: req.Tasks, Procs: req.Procs}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var res multiproc.HeteroResult
	inner := buf.timed("multiproc.hetero", eng, id, func() {
		res, _ = multiproc.SolveHeteroCertified(in, multiproc.HeteroPartition{})
	})
	runtime.ReadMemStats(&ms)
	rp.run.allocs = append(rp.run.allocs, float64(ms.Mallocs-mallocs))
	rp.run.gaps = append(rp.run.gaps, max(res.Gap, 0))
	buf.timed("multiproc.lower_bound", -1, id, func() { multiproc.HeteroLowerBound(in, 0) })
	return inner
}

// remember keeps inst's recorded DP state for its future edits.
func (rp *replayer) remember(inst *instance, st *core.DPState) {
	rp.states[inst] = st
	rp.order = append(rp.order, inst)
	if len(rp.order) > keepStates {
		delete(rp.states, rp.order[0])
		rp.order = rp.order[1:]
	}
}

// wireResponse is the JSON body the HTTP surface writes for resp.
func wireResponse(r serve.Response) serve.WireResponse {
	w := serve.WireResponse{
		Accepted: r.Solution.Accepted, Rejected: r.Solution.Rejected,
		Energy: r.Solution.Energy, Penalty: r.Solution.Penalty, Cost: r.Solution.Cost,
		CacheHit: r.CacheHit, Coalesced: r.Coalesced, Hetero: r.Hetero,
	}
	if r.Err != nil {
		w = serve.WireResponse{Error: r.Err.Error()}
	}
	return w
}
