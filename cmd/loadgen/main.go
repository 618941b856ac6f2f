// Command loadgen drives the serving tier — one daemon or a
// consistent-hash cluster — with a Zipf-repeated instance workload and
// reports latency percentiles and throughput.
//
//	loadgen -addr http://127.0.0.1:8080 -duration 10s -conns 8 -check
//
// With -addr empty it self-hosts in process: -nodes N brings up an N-node
// cluster (wire + HTTP listeners per node, warm-cache replication between
// them), so the whole serving stack can be benchmarked with one command:
//
//	loadgen -nodes 3 -proto wire -duration 10s -o BENCH_serve.json
//
// The instance pool is drawn deterministically from -seed; request i
// targets instance Zipf(i), so a small hot set dominates — the cache-hit
// regime the daemon is built for. -rotate swaps the pool for a fresh one
// every interval, so cold misses (and the coalescing of concurrent
// identical ones) recur instead of vanishing after the first second.
// -burst X switches to rounds of X concurrent identical requests against
// a fresh instance per round — the singleflight worst case. -check
// precomputes every instance's solution with a direct solver run and
// fails (exit 1) on any error or any response that is not bit-identical
// to the direct solve. -suite runs the comparison matrix (single node vs
// cluster, HTTP/JSON vs binary wire) and writes one report per run.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"dvsreject/internal/cluster"
	"dvsreject/internal/core"
	"dvsreject/internal/gen"
	"dvsreject/internal/serve"
	"dvsreject/internal/verify"
)

type options struct {
	Addr       string // external daemon(s), comma-separated; "" self-hosts
	Ring       string // ring identities for external clusters (default: the -addr list)
	Nodes      int    // self-hosted cluster size (0/1 = single node)
	Proto      string // http | wire
	Duration   time.Duration
	Conns      int
	Instances  int
	N          int
	Zipf       float64
	Rotate     time.Duration // pool rotation period (0 = static pool)
	Burst      int           // concurrent identical requests per round (0 = Zipf mode)
	Seed       int64
	Solver     string
	Batch      int
	Check      bool
	Suite      bool
	Out        string
	Name       string  // run label in the report
	Compare    string  // baseline report to diff against
	MaxRegress float64 // throughput drop percentage that fails the run
}

// shardRow is one node's counters in the report.
type shardRow struct {
	Addr  string            `json:"addr"`
	Stats cluster.NodeStats `json:"stats"`
}

// report is the JSON consumed by `make bench-json` (BENCH_serve.json).
type report struct {
	Name       string      `json:"name,omitempty"`
	Proto      string      `json:"proto"`
	Nodes      int         `json:"nodes"`
	DurationS  float64     `json:"duration_s"`
	Conns      int         `json:"conns"`
	Instances  int         `json:"instances"`
	N          int         `json:"n"`
	Solver     string      `json:"solver"`
	Batch      int         `json:"batch,omitempty"`
	Burst      int         `json:"burst,omitempty"`
	RotateS    float64     `json:"rotate_s,omitempty"`
	Requests   int         `json:"requests"`
	Errors     int         `json:"errors"`
	Mismatches int         `json:"mismatches"`
	Shed       int         `json:"shed,omitempty"`
	Throughput float64     `json:"throughput_rps"`
	P50us      float64     `json:"p50_us"`
	P95us      float64     `json:"p95_us"`
	P99us      float64     `json:"p99_us"`
	Server     serve.Stats `json:"server_stats"`
	Shards     []shardRow  `json:"shards,omitempty"`
}

// suiteReport wraps the -suite comparison matrix.
type suiteReport struct {
	Runs []report `json:"runs"`
}

func main() {
	var o options
	flag.StringVar(&o.Addr, "addr", "", "daemon address(es), comma-separated; empty self-hosts in process (HTTP base URLs for -proto http, host:port wire addresses for -proto wire)")
	flag.StringVar(&o.Ring, "ring", "", "ring identities for an external cluster, comma-separated and parallel to -addr (default: the -addr list; must match the wire addresses the shards were started with)")
	flag.IntVar(&o.Nodes, "nodes", 1, "self-hosted cluster size")
	flag.StringVar(&o.Proto, "proto", "http", "client protocol: http (JSON) or wire (binary)")
	flag.DurationVar(&o.Duration, "duration", 5*time.Second, "how long to drive load")
	flag.IntVar(&o.Conns, "conns", 8, "concurrent client workers")
	flag.IntVar(&o.Instances, "instances", 64, "distinct instances per pool epoch")
	flag.IntVar(&o.N, "n", 50, "tasks per instance")
	flag.Float64Var(&o.Zipf, "zipf", 1.1, "Zipf exponent of instance popularity (> 1)")
	flag.DurationVar(&o.Rotate, "rotate", time.Second, "swap the instance pool every interval so cold misses recur (0 = static pool)")
	flag.IntVar(&o.Burst, "burst", 0, "burst mode: this many concurrent identical requests per round on a fresh instance (0 = Zipf mode)")
	flag.Int64Var(&o.Seed, "seed", 1, "workload seed")
	flag.StringVar(&o.Solver, "solver", "DP", "solver requested per instance")
	flag.IntVar(&o.Batch, "batch", 0, "POST /batch with this many requests per call (0 = /solve; http, single node only)")
	flag.BoolVar(&o.Check, "check", false, "verify every response bit-identically against a direct solve")
	flag.BoolVar(&o.Suite, "suite", false, "run the comparison matrix (1-node http, N-node http, N-node wire, burst) and emit {\"runs\": [...]}")
	flag.StringVar(&o.Out, "o", "", "write the JSON report to this file")
	flag.StringVar(&o.Compare, "compare", "", "baseline JSON report (suite or single run) to diff against; exit non-zero when throughput regresses")
	flag.Float64Var(&o.MaxRegress, "max-regress", 30, "with -compare, the throughput drop percentage that fails the run")
	flag.Parse()

	if o.Suite {
		if err := runSuite(o, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	rep, err := run(o, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	if rep.Errors > 0 || rep.Mismatches > 0 {
		log.Fatalf("loadgen: %d errors, %d mismatches", rep.Errors, rep.Mismatches)
	}
	if err := gateCompare(o, []report{rep}, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// gateCompare diffs fresh runs against the -compare baseline and errors
// when any run's throughput regressed beyond -max-regress percent.
func gateCompare(o options, fresh []report, w io.Writer) error {
	if o.Compare == "" {
		return nil
	}
	regressed, err := compareRuns(o.Compare, fresh, o.MaxRegress, w)
	if err != nil {
		return err
	}
	if len(regressed) > 0 {
		return fmt.Errorf("loadgen: %d run(s) regressed more than %g%%: %v", len(regressed), o.MaxRegress, regressed)
	}
	fmt.Fprintf(w, "no throughput regressions over %g%%\n", o.MaxRegress)
	return nil
}

// compareRuns diffs fresh runs against the baseline report at path (a
// -suite {"runs": [...]} report or a single-run report), keyed by run
// name. Throughput gates: it is the stable aggregate on shared runners.
// p50 latency is printed informationally only — percentiles are too noisy
// to fail a build on.
func compareRuns(path string, fresh []report, maxRegress float64, w io.Writer) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base suiteReport
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(base.Runs) == 0 {
		var one report
		if err := json.Unmarshal(data, &one); err == nil && one.Requests > 0 {
			base.Runs = []report{one}
		}
	}
	key := func(r report) string {
		if r.Name != "" {
			return r.Name
		}
		return fmt.Sprintf("%s/%dnode/burst=%d", r.Proto, r.Nodes, r.Burst)
	}
	old := make(map[string]report, len(base.Runs))
	for _, r := range base.Runs {
		old[key(r)] = r
	}
	var regressed []string
	fmt.Fprintf(w, "\n%-24s %12s %12s %9s %12s\n", "run (vs "+path+")", "old req/s", "new req/s", "delta", "p50 µs")
	for _, r := range fresh {
		k := key(r)
		b, ok := old[k]
		if !ok {
			fmt.Fprintf(w, "%-24s %12s %12.0f %9s %12.1f\n", k, "-", r.Throughput, "new", r.P50us)
			continue
		}
		delete(old, k)
		delta := (r.Throughput - b.Throughput) / b.Throughput * 100
		mark := ""
		if delta < -maxRegress {
			mark = "  REGRESSION"
			regressed = append(regressed, k)
		}
		fmt.Fprintf(w, "%-24s %12.0f %12.0f %+8.1f%% %12.1f%s\n", k, b.Throughput, r.Throughput, delta, r.P50us, mark)
	}
	for k := range old {
		fmt.Fprintf(w, "%-24s %12s %12s %9s\n", k, "-", "-", "removed")
	}
	return regressed, nil
}

// runSuite executes the comparison matrix self-hosted: the single-node
// HTTP baseline, the cluster over both protocols, and a wire burst run
// that drives concurrent identical cold misses through singleflight.
func runSuite(o options, w io.Writer) error {
	nodes := o.Nodes
	if nodes < 2 {
		nodes = 3
	}
	burstDur := min(o.Duration, 3*time.Second)
	configs := []options{
		{Name: "1node-http", Nodes: 1, Proto: "http"},
		{Name: fmt.Sprintf("%dnode-http", nodes), Nodes: nodes, Proto: "http"},
		{Name: fmt.Sprintf("%dnode-wire", nodes), Nodes: nodes, Proto: "wire"},
		{Name: "burst-wire", Nodes: 1, Proto: "wire", Burst: o.Conns,
			N: 30000, Instances: 64, Rotate: -1, Duration: burstDur},
	}
	var suite suiteReport
	for _, c := range configs {
		ro := o
		ro.Suite, ro.Out, ro.Addr = false, "", ""
		ro.Name, ro.Nodes, ro.Proto, ro.Burst = c.Name, c.Nodes, c.Proto, c.Burst
		if c.N != 0 {
			ro.N, ro.Instances, ro.Duration = c.N, c.Instances, c.Duration
		}
		if c.Rotate < 0 {
			ro.Rotate = 0
		}
		fmt.Fprintf(w, "=== %s ===\n", ro.Name)
		rep, err := run(ro, w)
		if err != nil {
			return fmt.Errorf("suite run %s: %w", ro.Name, err)
		}
		if rep.Errors > 0 || rep.Mismatches > 0 {
			return fmt.Errorf("suite run %s: %d errors, %d mismatches", ro.Name, rep.Errors, rep.Mismatches)
		}
		suite.Runs = append(suite.Runs, rep)
	}
	if o.Out != "" {
		b, err := json.MarshalIndent(suite, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.Out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return gateCompare(o, suite.Runs, w)
}

// target is one shard from the client's point of view.
type target struct {
	httpBase string
	wireAddr string
	node     *cluster.Node // self-hosted only
}

// workload is the pregenerated request pool: epochs × instances requests,
// flattened epoch-major, with per-request routing and (under -check) the
// reference solutions.
type workload struct {
	reqs     []serve.Request
	bodies   [][]byte // http JSON forms
	expected []core.Solution
	route    []int // owner target per request
	epochs   int
}

func run(o options, w io.Writer) (report, error) {
	if o.Proto == "" {
		o.Proto = "http"
	}
	if o.Proto != "http" && o.Proto != "wire" {
		return report{}, fmt.Errorf("loadgen: -proto %q, want http or wire", o.Proto)
	}
	targets, ringIDs, cleanup, err := resolveTargets(o, w)
	if err != nil {
		return report{}, err
	}
	defer cleanup()
	if o.Batch > 0 && (o.Proto != "http" || len(targets) > 1) {
		return report{}, fmt.Errorf("loadgen: -batch requires -proto http and a single node")
	}

	wl, err := buildWorkload(o)
	if err != nil {
		return report{}, err
	}
	ring := cluster.NewRing(ringIDs, 0)
	wl.route = make([]int, len(wl.reqs))
	for i, req := range wl.reqs {
		wl.route[i] = ring.Owner(serve.Fingerprint(req, 0))
	}

	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        o.Conns * 2,
		MaxIdleConnsPerHost: o.Conns * 2,
	}}

	nworkers := o.Conns
	if o.Burst > 0 {
		nworkers = o.Burst
	}
	workers := make([]*worker, nworkers)
	for i := range workers {
		workers[i] = &worker{id: i, o: o, wl: wl, targets: targets, httpc: httpc}
	}
	defer func() {
		for _, wk := range workers {
			wk.close()
		}
	}()

	start := time.Now()
	deadline := start.Add(o.Duration)
	if o.Burst > 0 {
		runBurst(o, workers, deadline)
	} else {
		runZipf(o, workers, start, deadline)
	}
	elapsed := time.Since(start)

	rep := report{
		Name: o.Name, Proto: o.Proto, Nodes: len(targets),
		DurationS: elapsed.Seconds(),
		Conns:     o.Conns, Instances: o.Instances, N: o.N,
		Solver: o.Solver, Batch: o.Batch, Burst: o.Burst,
		RotateS: o.Rotate.Seconds(),
	}
	var lats []time.Duration
	for _, wk := range workers {
		rep.Requests += wk.out.requests
		rep.Errors += wk.out.errors
		rep.Mismatches += wk.out.mismatches
		rep.Shed += wk.out.shed
		lats = append(lats, wk.out.lats...)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep.Throughput = float64(rep.Requests) / elapsed.Seconds()
	rep.P50us = percentileUS(lats, 0.50)
	rep.P95us = percentileUS(lats, 0.95)
	rep.P99us = percentileUS(lats, 0.99)
	rep.Shards = collectShards(httpc, targets)
	for _, sh := range rep.Shards {
		rep.Server = addStats(rep.Server, sh.Stats.Engine)
	}

	fmt.Fprintf(w, "%d requests in %.2fs (%.0f req/s), p50 %.1fµs p95 %.1fµs p99 %.1fµs, %d errors, %d mismatches, %d shed\n",
		rep.Requests, rep.DurationS, rep.Throughput, rep.P50us, rep.P95us, rep.P99us, rep.Errors, rep.Mismatches, rep.Shed)
	for _, sh := range rep.Shards {
		fmt.Fprintf(w, "shard %s: %d reqs, %d hits / %d misses, %d sparse, %d anytime, %d hetero, %d coalesced, %d warmed, %d repl sent / %d applied, %d wire solves\n",
			sh.Addr, sh.Stats.Engine.Requests, sh.Stats.Engine.Cache.Hits, sh.Stats.Engine.Cache.Misses,
			sh.Stats.Engine.SparseSolves, sh.Stats.Engine.AnytimeSolves,
			sh.Stats.Engine.HeteroSolves,
			sh.Stats.Engine.Coalesced, sh.Stats.Engine.Warmed,
			sh.Stats.ReplSent, sh.Stats.ReplApplied, sh.Stats.WireSolves)
	}

	if o.Out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return rep, err
		}
		if err := os.WriteFile(o.Out, append(b, '\n'), 0o644); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// resolveTargets either parses the external -addr list or self-hosts a
// -nodes cluster with wire and HTTP listeners per node. The returned ring
// identities are what consistent-hash routing keys on: the wire addresses
// for self-hosted clusters (the same identities the shards replicate by),
// the -ring list (or the -addr list) for external ones.
func resolveTargets(o options, w io.Writer) ([]target, []string, func(), error) {
	if o.Addr != "" {
		addrs := strings.Split(o.Addr, ",")
		ringIDs := addrs
		if o.Ring != "" {
			ringIDs = strings.Split(o.Ring, ",")
			if len(ringIDs) != len(addrs) {
				return nil, nil, nil, fmt.Errorf("loadgen: -ring lists %d identities for %d addrs", len(ringIDs), len(addrs))
			}
		}
		targets := make([]target, len(addrs))
		for i, a := range addrs {
			if o.Proto == "wire" {
				targets[i] = target{wireAddr: a, httpBase: ""}
			} else {
				targets[i] = target{httpBase: a}
			}
		}
		return targets, ringIDs, func() {}, nil
	}

	nodes := o.Nodes
	if nodes < 1 {
		nodes = 1
	}
	wireLns := make([]net.Listener, nodes)
	wireAddrs := make([]string, nodes)
	for i := range wireLns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		wireLns[i] = ln
		wireAddrs[i] = ln.Addr().String()
	}
	targets := make([]target, nodes)
	clusterNodes := make([]*cluster.Node, nodes)
	var srvs []*http.Server
	for i := range targets {
		nd := cluster.NewNode(cluster.NodeConfig{
			Engine: serve.Config{DefaultSolver: o.Solver},
			Self:   wireAddrs[i],
			Peers:  wireAddrs,
		})
		clusterNodes[i] = nd
		go nd.ServeWire(wireLns[i])
		hl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, n := range clusterNodes[:i+1] {
				n.Close()
			}
			return nil, nil, nil, err
		}
		srv := &http.Server{Handler: nd.Handler()}
		srvs = append(srvs, srv)
		go srv.Serve(hl)
		targets[i] = target{httpBase: "http://" + hl.Addr().String(), wireAddr: wireAddrs[i], node: nd}
	}
	fmt.Fprintf(w, "self-hosted %d-node cluster (%s)\n", nodes, strings.Join(wireAddrs, ", "))
	cleanup := func() {
		for _, s := range srvs {
			s.Close()
		}
		for _, n := range clusterNodes {
			n.Close()
		}
	}
	return targets, wireAddrs, cleanup, nil
}

// runZipf drives the steady-state workload: each worker draws Zipf-hot
// instances from the epoch active at the time of the request, so every
// rotation re-introduces a burst of cold misses on hot keys.
func runZipf(o options, workers []*worker, start, deadline time.Time) {
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed + int64(wk.id)*7919))
			zipf := rand.NewZipf(rng, o.Zipf, 1, uint64(o.Instances-1))
			for time.Now().Before(deadline) {
				epoch := 0
				if o.Rotate > 0 {
					epoch = int(time.Since(start) / o.Rotate)
					if epoch >= wk.wl.epochs {
						epoch = wk.wl.epochs - 1
					}
				}
				idx := epoch*o.Instances + int(zipf.Uint64())
				if o.Batch > 0 {
					wk.solveBatch(idx, zipf, epoch)
					continue
				}
				wk.solveOne(idx)
			}
		}(wk)
	}
	wg.Wait()
}

// runBurst drives rounds of len(workers) concurrent identical requests,
// each round against the next (cold, until the pool wraps) instance —
// the singleflight stress shape.
func runBurst(o options, workers []*worker, deadline time.Time) {
	for round := 0; time.Now().Before(deadline); round++ {
		idx := round % len(workers[0].wl.reqs)
		startCh := make(chan struct{})
		var wg sync.WaitGroup
		for _, wk := range workers {
			wg.Add(1)
			go func(wk *worker) {
				defer wg.Done()
				<-startCh
				wk.solveOne(idx)
			}(wk)
		}
		close(startCh)
		wg.Wait()
	}
}

type workerOut struct {
	lats       []time.Duration
	requests   int
	errors     int
	mismatches int
	shed       int
}

// worker is one load-generating client: its own wire connections (one per
// shard), a shared HTTP transport, and private counters.
type worker struct {
	id      int
	o       options
	wl      *workload
	targets []target
	httpc   *http.Client
	wcs     []*cluster.WireClient
	out     workerOut
}

func (wk *worker) close() {
	for _, c := range wk.wcs {
		if c != nil {
			c.Close()
		}
	}
}

func (wk *worker) wire(t int) *cluster.WireClient {
	if wk.wcs == nil {
		wk.wcs = make([]*cluster.WireClient, len(wk.targets))
	}
	if wk.wcs[t] == nil {
		wk.wcs[t] = cluster.NewWireClient(wk.targets[t].wireAddr)
	}
	return wk.wcs[t]
}

// solveOne sends request idx to its owner shard and verifies the response
// when -check is on.
func (wk *worker) solveOne(idx int) {
	t := wk.wl.route[idx]
	wk.out.requests++
	t0 := time.Now()
	if wk.o.Proto == "wire" {
		res, err := wk.wire(t).Solve(wk.wl.reqs[idx])
		wk.out.lats = append(wk.out.lats, time.Since(t0))
		if err != nil {
			var sheddErr *cluster.ShedError
			if errors.As(err, &sheddErr) {
				wk.out.shed++
			} else {
				wk.out.errors++
			}
			return
		}
		if wk.o.Check && verify.BitIdenticalSolutions(res.Solution, wk.wl.expected[idx]) != nil {
			wk.out.mismatches++
		}
		return
	}
	resp, err := postSolve(wk.httpc, wk.targets[t].httpBase, wk.wl.bodies[idx], wk.o.Check)
	wk.out.lats = append(wk.out.lats, time.Since(t0))
	if err != nil {
		if errors.Is(err, errShed) {
			wk.out.shed++
		} else {
			wk.out.errors++
		}
		return
	}
	if wk.o.Check && !responseMatches(resp, toWireResponse(wk.wl.expected[idx])) {
		wk.out.mismatches++
	}
}

// solveBatch sends one /batch call of o.Batch Zipf draws from epoch.
func (wk *worker) solveBatch(first int, zipf *rand.Zipf, epoch int) {
	o := wk.o
	idx := make([]int, o.Batch)
	idx[0] = first
	for k := 1; k < len(idx); k++ {
		idx[k] = epoch*o.Instances + int(zipf.Uint64())
	}
	wk.out.requests += o.Batch
	t0 := time.Now()
	resps, err := postBatch(wk.httpc, wk.targets[0].httpBase, wk.wl.bodies, idx, o.Check)
	lat := time.Since(t0)
	if err != nil {
		wk.out.errors++
		return
	}
	for k := range idx {
		wk.out.lats = append(wk.out.lats, lat/time.Duration(o.Batch))
		if o.Check && !responseMatches(resps[k], toWireResponse(wk.wl.expected[idx[k]])) {
			wk.out.mismatches++
		}
	}
}

// buildWorkload draws the instance pools — one per rotation epoch — and,
// when -check is on, their reference solutions.
func buildWorkload(o options) (*workload, error) {
	if o.Instances < 1 || o.N < 1 || o.Conns < 1 {
		return nil, fmt.Errorf("loadgen: instances, n and conns must be ≥ 1")
	}
	if o.Zipf <= 1 {
		return nil, fmt.Errorf("loadgen: -zipf must be > 1")
	}
	epochs := 1
	if o.Rotate > 0 {
		epochs = int(o.Duration/o.Rotate) + 2
		// Bound pregeneration: past this the tail epochs just stay warm
		// longer.
		if cap := 4096 / o.Instances; epochs > cap && cap >= 1 {
			epochs = cap
		}
	}
	wl := &workload{epochs: epochs}
	total := epochs * o.Instances
	wl.reqs = make([]serve.Request, total)
	wl.bodies = make([][]byte, total)
	if o.Check {
		wl.expected = make([]core.Solution, total)
	}
	for i := 0; i < total; i++ {
		set, err := gen.Frame(rand.New(rand.NewSource(o.Seed+int64(i))), gen.Config{
			N:       o.N,
			Load:    1.2,
			Penalty: gen.PenaltyModel(int64(i) % 3),
		})
		if err != nil {
			return nil, err
		}
		wreq := serve.WireRequest{Deadline: set.Deadline, SMax: 1, Solver: o.Solver}
		for _, t := range set.Tasks {
			wreq.Tasks = append(wreq.Tasks, serve.WireTask{ID: t.ID, Cycles: t.Cycles, Penalty: t.Penalty, Rho: t.Rho})
		}
		if wl.bodies[i], err = json.Marshal(wreq); err != nil {
			return nil, err
		}
		if wl.reqs[i], err = wreq.ToRequest(); err != nil {
			return nil, err
		}
		if o.Check {
			if wl.expected[i], err = directSolve(wl.reqs[i]); err != nil {
				return nil, err
			}
		}
	}
	return wl, nil
}

// directSolve computes the reference solution the serving tier must
// reproduce bit for bit.
func directSolve(req serve.Request) (core.Solution, error) {
	name := req.Solver
	if name == "" {
		name = "DP"
	}
	s, err := core.NewSolver(name, core.SolverSpec{})
	if err != nil {
		return core.Solution{}, err
	}
	return s.Solve(core.Instance{Tasks: req.Tasks, Proc: req.Proc, FastPow: req.FastPow})
}

// toWireResponse flattens a reference solution for HTTP comparison.
func toWireResponse(sol core.Solution) serve.WireResponse {
	return serve.WireResponse{
		Accepted: sol.Accepted, Rejected: sol.Rejected,
		Energy: sol.Energy, Penalty: sol.Penalty, Cost: sol.Cost,
	}
}

// responseMatches compares a wire response against the reference: same
// admission sets, same float bit patterns. Cache/coalescing flags are
// transport metadata and ignored.
func responseMatches(got, want serve.WireResponse) bool {
	if got.Error != "" {
		return false
	}
	bits := math.Float64bits
	return slices.Equal(orEmpty(got.Accepted), orEmpty(want.Accepted)) &&
		slices.Equal(orEmpty(got.Rejected), orEmpty(want.Rejected)) &&
		bits(got.Energy) == bits(want.Energy) &&
		bits(got.Penalty) == bits(want.Penalty) &&
		bits(got.Cost) == bits(want.Cost)
}

func orEmpty(s []int) []int {
	if s == nil {
		return []int{}
	}
	return s
}

// errShed marks a 429 from the admission controller on the HTTP path.
var errShed = errors.New("request shed")

// postSolve sends one request. Without decode it drains the body unparsed —
// on a shared CPU the client's JSON decoding competes with the server, and
// uncheck runs only need the status line and the latency.
func postSolve(client *http.Client, base string, body []byte, decode bool) (serve.WireResponse, error) {
	resp, err := client.Post(base+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.WireResponse{}, err
	}
	defer resp.Body.Close()
	var out serve.WireResponse
	if decode || resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return serve.WireResponse{}, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return out, errShed
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, out.Error)
	}
	return out, nil
}

func postBatch(client *http.Client, base string, bodies [][]byte, idx []int, decode bool) ([]serve.WireResponse, error) {
	var batch bytes.Buffer
	batch.WriteString(`{"requests":[`)
	for k, i := range idx {
		if k > 0 {
			batch.WriteByte(',')
		}
		batch.Write(bodies[i])
	}
	batch.WriteString(`]}`)
	resp, err := client.Post(base+"/batch", "application/json", &batch)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("batch status %d", resp.StatusCode)
	}
	if !decode {
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	var out serve.WireBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if len(out.Responses) != len(idx) {
		return nil, fmt.Errorf("batch returned %d responses for %d requests", len(out.Responses), len(idx))
	}
	return out.Responses, nil
}

// collectShards snapshots per-node counters: directly for self-hosted
// nodes, over HTTP for external ones (accepting both the cluster
// NodeStats shape and a legacy daemon's bare engine stats).
func collectShards(client *http.Client, targets []target) []shardRow {
	rows := make([]shardRow, len(targets))
	for i, t := range targets {
		addr := t.wireAddr
		if addr == "" {
			addr = t.httpBase
		}
		rows[i].Addr = addr
		if t.node != nil {
			rows[i].Stats = t.node.Stats()
			continue
		}
		if t.httpBase != "" {
			rows[i].Stats = fetchNodeStats(client, t.httpBase)
		}
	}
	return rows
}

func fetchNodeStats(client *http.Client, base string) cluster.NodeStats {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return cluster.NodeStats{}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return cluster.NodeStats{}
	}
	var ns cluster.NodeStats
	json.Unmarshal(raw, &ns)
	if ns.Engine == (serve.Stats{}) {
		// Legacy daemon: /stats is the bare engine counters.
		json.Unmarshal(raw, &ns.Engine)
	}
	return ns
}

func addStats(a, b serve.Stats) serve.Stats {
	a.Requests += b.Requests
	a.Coalesced += b.Coalesced
	a.Bypasses += b.Bypasses
	a.Warmed += b.Warmed
	a.SparseSolves += b.SparseSolves
	a.SparseCells += b.SparseCells
	a.AnytimeSolves += b.AnytimeSolves
	a.HeteroSolves += b.HeteroSolves
	a.Cache.Hits += b.Cache.Hits
	a.Cache.Misses += b.Cache.Misses
	a.Cache.Evictions += b.Cache.Evictions
	a.Cache.Entries += b.Cache.Entries
	return a
}

func percentileUS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Microsecond)
}
