package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dvsreject/internal/core"
	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/serve"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
	"dvsreject/internal/verify"
)

var idealProc = speed.Proc{Model: power.Cubic(), SMax: 1}

// testReq draws a deterministic contested instance as a serve request.
func testReq(t *testing.T, seed int64, n int) serve.Request {
	t.Helper()
	set, err := gen.Frame(rand.New(rand.NewSource(seed)), gen.Config{
		N:       n,
		Load:    1.2,
		Penalty: gen.PenaltyModel(seed % 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return serve.Request{Tasks: set, Proc: idealProc, Solver: "DP"}
}

func directSolve(t *testing.T, req serve.Request) core.Solution {
	t.Helper()
	s, err := core.NewSolver(req.Solver, core.SolverSpec{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(core.Instance{Tasks: req.Tasks, Proc: req.Proc, FastPow: req.FastPow})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestRingDeterministicAcrossOrderAndProcess(t *testing.T) {
	ids := []string{"10.0.0.1:9000", "10.0.0.2:9000", "10.0.0.3:9000"}
	perm := []string{"10.0.0.3:9000", "10.0.0.1:9000", "10.0.0.2:9000"}
	a, b := NewRing(ids, 0), NewRing(perm, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		ao, ar := a.OwnerReplica(key)
		bo, br := b.OwnerReplica(key)
		if a.ID(ao) != b.ID(bo) || a.ID(ar) != b.ID(br) {
			t.Fatalf("key %q: owner/replica differ across id order: %s/%s vs %s/%s",
				key, a.ID(ao), a.ID(ar), b.ID(bo), b.ID(br))
		}
		if ao == ar {
			t.Fatalf("key %q: replica equals owner on a 3-node ring", key)
		}
	}
	// Placement is a pure function of the identity strings, so it must
	// never drift: pin a few points.
	pins := map[string]string{
		"key-0": "10.0.0.2:9000",
		"key-1": "10.0.0.2:9000",
		"key-2": "10.0.0.3:9000",
	}
	for key, want := range pins {
		if got := a.ID(a.Owner(key)); got != want {
			t.Errorf("owner(%q) = %s, want pinned %s", key, got, want)
		}
	}
}

func TestRingBalance(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e"}
	r := NewRing(ids, 0)
	counts := make([]int, len(ids))
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	want := keys / len(ids)
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("node %s owns %d of %d keys, want within [%d, %d]", ids[i], c, keys, want/2, want*2)
		}
	}
}

func TestRingSingleNode(t *testing.T) {
	r := NewRing([]string{"only"}, 0)
	o, rep := r.OwnerReplica("anything")
	if o != 0 || rep != 0 {
		t.Fatalf("single-node ring: owner %d replica %d, want 0/0", o, rep)
	}
	if o, rep := (NewRing(nil, 0)).OwnerReplica("x"); o != -1 || rep != -1 {
		t.Fatalf("empty ring: got %d/%d, want -1/-1", o, rep)
	}
}

// lowPenaltyReq builds a request whose total penalty is pen, with cost
// dominated by the DP estimate for n tasks.
func penaltyReq(n int, pen float64) serve.Request {
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Task{ID: i + 1, Cycles: 10, Penalty: pen / float64(n)}
	}
	return serve.Request{
		Tasks:  task.Set{Tasks: tasks, Deadline: 100},
		Proc:   idealProc,
		Solver: "DP",
	}
}

// TestEstimateCostWidthAware pins the cost model's grid awareness: a
// deadline-heavy DP request past the dense wall must charge for its
// sparse breakpoint bound, while the budget-bound approximators stay
// flat in n no matter the width.
func TestEstimateCostWidthAware(t *testing.T) {
	narrow := penaltyReq(100, 1) // width 101: dense regime
	wide := penaltyReq(100, 1)
	wide.Tasks.Deadline = 1 << 26 // 100·2^26 cells: beyond the dense wall
	nc, wc := EstimateCost(narrow), EstimateCost(wide)
	if wc <= 100*nc {
		t.Fatalf("beyond-wall DP cost %.1f not ≫ dense cost %.1f", wc, nc)
	}
	approxNarrow, approxWide := narrow, wide
	approxNarrow.Solver = "APPROX"
	approxWide.Solver = "APPROX"
	an, aw := EstimateCost(approxNarrow), EstimateCost(approxWide)
	if an != aw {
		t.Fatalf("APPROX cost depends on grid width: %.1f vs %.1f", an, aw)
	}
}

func TestAdmissionShedsLowPenaltyFirst(t *testing.T) {
	// Capacity 15 estimated-µs. A DP request with n=100 on a width-101
	// grid costs 5 + 0.0005·100·101 ≈ 10, so one admit nearly fills the
	// gate and the second is over capacity.
	a := NewAdmission(AdmissionConfig{Capacity: 15, Slope: 0.05, Drain: 1})
	filler := penaltyReq(100, 1000)
	if ok, _ := a.Admit(filler); !ok {
		t.Fatal("first request not admitted under empty gate")
	}
	// Second pushes past capacity (≈20 > 15): overload pricing starts,
	// but its penalty is enormous, so it is served anyway.
	rich := penaltyReq(100, 1e6)
	if ok, _ := a.Admit(rich); !ok {
		t.Fatal("high-penalty request shed; it should ride past capacity")
	}
	// Now a near-zero-penalty request must be shed, with a positive
	// Retry-After derived from the backlog.
	poor := penaltyReq(100, 0.001)
	ok, retry := a.Admit(poor)
	if ok {
		t.Fatal("low-penalty request admitted under overload")
	}
	if retry < time.Millisecond || retry > 5*time.Second {
		t.Fatalf("retry-after %v outside [1ms, 5s]", retry)
	}
	st := a.Stats()
	if st.Admitted != 2 || st.Shed != 1 {
		t.Fatalf("stats admitted=%d shed=%d, want 2/1", st.Admitted, st.Shed)
	}
	if st.ShedPenalty == 0 {
		t.Fatal("shed penalty not accumulated")
	}
	// Draining the gate readmits the same poor request.
	a.Release(filler)
	a.Release(rich)
	if ok, _ := a.Admit(poor); !ok {
		t.Fatal("request still shed after the gate drained")
	}
	a.Release(poor)
	if got := a.Stats().InflightCost; got != 0 {
		t.Fatalf("inflight cost %v after full drain, want 0", got)
	}
}

func TestAdmissionDisabledAdmitsEverything(t *testing.T) {
	var a *Admission // nil gate
	if ok, _ := a.Admit(penaltyReq(10000, 0)); !ok {
		t.Fatal("nil admission shed a request")
	}
	a = NewAdmission(AdmissionConfig{}) // zero capacity = disabled
	for i := 0; i < 100; i++ {
		if ok, _ := a.Admit(penaltyReq(10000, 0)); !ok {
			t.Fatal("disabled admission shed a request")
		}
	}
}

func TestGatedHandlerSheds429(t *testing.T) {
	// Capacity far below one DP n=100 request (cost 55): with zero
	// penalty riding on it, the request is shed immediately.
	node := NewNode(NodeConfig{
		Self:      "self",
		Peers:     []string{"self"},
		Admission: AdmissionConfig{Capacity: 1, Slope: 0.05, Drain: 1},
	})
	defer node.Close()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()

	var sb strings.Builder
	sb.WriteString(`{"deadline":100,"smax":1,"tasks":[`)
	for i := 1; i <= 100; i++ {
		if i > 1 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"id":%d,"cycles":10,"penalty":0.000001}`, i)
	}
	sb.WriteString(`]}`)
	body := sb.String()

	resp, err := http.Post(srv.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if resp.Header.Get("X-Retry-After-Ms") == "" {
		t.Fatal("429 without an X-Retry-After-Ms header")
	}
	var werr serve.WireResponse
	if err := json.NewDecoder(resp.Body).Decode(&werr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(werr.Error, "overloaded") {
		t.Fatalf("shed body %q does not mention overload", werr.Error)
	}
	st := node.Stats()
	if st.Admission.Shed != 1 {
		t.Fatalf("node shed counter %d, want 1", st.Admission.Shed)
	}
}

// startCluster brings up n nodes with real TCP wire listeners and returns
// their addresses plus a stop func.
func startCluster(t *testing.T, n int, admission AdmissionConfig) ([]string, []*Node) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(NodeConfig{
			Self:      addrs[i],
			Peers:     addrs,
			Admission: admission,
		})
		go nodes[i].ServeWire(lns[i])
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return addrs, nodes
}

func TestClusterEndToEndBitIdentical(t *testing.T) {
	addrs, nodes := startCluster(t, 3, AdmissionConfig{})
	client := NewClient(addrs, 0)
	defer client.Close()

	type solved struct {
		req   serve.Request
		owner int
		want  core.Solution
	}
	var cases []solved
	for seed := int64(1); seed <= 8; seed++ {
		req := testReq(t, seed, 60)
		res, owner, err := client.Solve(req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := directSolve(t, req)
		if err := verify.BitIdenticalSolutions(res.Solution, want); err != nil {
			t.Fatalf("seed %d: wire solution differs from direct solve: %v", seed, err)
		}
		if res.CacheHit {
			t.Fatalf("seed %d: cold solve reported as cache hit", seed)
		}
		cases = append(cases, solved{req: req, owner: owner, want: want})
	}

	// Every owner shard solved something (3 nodes, 8 keys — all hit with
	// overwhelming probability for this pinned key set).
	seen := map[int]bool{}
	for _, c := range cases {
		seen[c.owner] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all 8 keys routed to %d shard(s); routing is not spreading", len(seen))
	}

	// A repeat through the router is a cache hit on the owner, still
	// bit-identical.
	for _, c := range cases {
		res, owner, err := client.Solve(c.req)
		if err != nil {
			t.Fatal(err)
		}
		if owner != c.owner {
			t.Fatalf("rerouted: first %d then %d", c.owner, owner)
		}
		if !res.CacheHit {
			t.Fatal("repeat solve missed the owner's cache")
		}
		if err := verify.BitIdenticalSolutions(res.Solution, c.want); err != nil {
			t.Fatalf("cached solution differs: %v", err)
		}
	}

	// Replication: each cold solve was pushed to the key's replica. Wait
	// for the queues to drain, then ask the replica directly (not via the
	// router) and expect a warm hit with the identical solution.
	// A replica can receive several keys, so wait until it has installed
	// all of them, not just the first.
	ring := NewRing(addrs, 0)
	replicas := make([]int, len(cases))
	pushes := map[int]uint64{}
	for i, c := range cases {
		_, replicas[i] = ring.OwnerReplica(serve.Fingerprint(c.req, 0))
		pushes[replicas[i]]++
	}
	deadline := time.Now().Add(5 * time.Second)
	for i, c := range cases {
		replica := replicas[i]
		for {
			if nodes[replica].Engine().Stats().Warmed >= pushes[replica] {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never warmed (stats %+v)", replica, nodes[replica].Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
		direct := NewWireClient(addrs[replica])
		res, err := direct.Solve(c.req)
		direct.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatalf("replica %d served a replicated key cold", replica)
		}
		if err := verify.BitIdenticalSolutions(res.Solution, c.want); err != nil {
			t.Fatalf("replicated solution differs from direct solve: %v", err)
		}
	}

	var sent, applied uint64
	for _, nd := range nodes {
		st := nd.Stats()
		sent += st.ReplSent
		applied += st.ReplApplied
	}
	if sent == 0 || applied == 0 {
		t.Fatalf("replication counters sent=%d applied=%d, want both > 0", sent, applied)
	}
}

func TestWireShedsOverCapacity(t *testing.T) {
	addrs, _ := startCluster(t, 1, AdmissionConfig{Capacity: 1, Slope: 0.05, Drain: 1})
	c := NewWireClient(addrs[0])
	defer c.Close()
	_, err := c.Solve(penaltyReq(100, 0.001))
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("error %v, want *ShedError", err)
	}
	if shed.RetryAfter < time.Millisecond {
		t.Fatalf("shed retry-after %v, want ≥ 1ms", shed.RetryAfter)
	}
	if !strings.Contains(shed.Msg, "overloaded") {
		t.Fatalf("shed msg %q does not mention overload", shed.Msg)
	}
	// High-penalty request still rides through on the same connection.
	res, err := c.Solve(penaltyReq(100, 1e9))
	if err != nil {
		t.Fatalf("high-penalty request failed: %v", err)
	}
	if len(res.Solution.Accepted)+len(res.Solution.Rejected) != 100 {
		t.Fatal("solution does not cover the instance")
	}
}

func TestWireRemoteSolverError(t *testing.T) {
	addrs, _ := startCluster(t, 1, AdmissionConfig{})
	c := NewWireClient(addrs[0])
	defer c.Close()
	req := testReq(t, 1, 10)
	req.Solver = "NO-SUCH-SOLVER"
	_, err := c.Solve(req)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("error %v, want *RemoteError", err)
	}
	if remote.Code != http.StatusUnprocessableEntity {
		t.Fatalf("remote code %d, want 422", remote.Code)
	}
	// The connection survives an error frame: the next request works.
	req.Solver = "DP"
	if _, err := c.Solve(req); err != nil {
		t.Fatalf("connection unusable after error frame: %v", err)
	}
}

// panicSolver panics on every solve.
type panicSolver struct{}

func (panicSolver) Name() string                               { return "PANIC-TEST" }
func (panicSolver) Solve(core.Instance) (core.Solution, error) { panic("injected solver panic") }

// TestWireSolverPanic: a solver panic reaches a wire client as a 500
// error frame, and the node keeps serving the connection.
func TestWireSolverPanic(t *testing.T) {
	core.RegisterSolver("PANIC-TEST", func(core.SolverSpec) (core.Solver, error) { return panicSolver{}, nil })
	addrs, nodes := startCluster(t, 1, AdmissionConfig{})
	c := NewWireClient(addrs[0])
	defer c.Close()
	req := testReq(t, 1, 10)
	req.Solver = "PANIC-TEST"
	_, err := c.Solve(req)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != http.StatusInternalServerError {
		t.Fatalf("error %v, want a 500 *RemoteError", err)
	}
	if p := nodes[0].Engine().Stats().Panics; p != 1 {
		t.Fatalf("node counted %d panics, want 1", p)
	}
	req.Solver = "DP"
	if _, err := c.Solve(req); err != nil {
		t.Fatalf("node unusable after a solver panic: %v", err)
	}
}

func TestWireClientRedialsAfterNodeRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	node := NewNode(NodeConfig{Self: addr, Peers: []string{addr}})
	go node.ServeWire(ln)

	c := NewWireClient(addr)
	defer c.Close()
	req := testReq(t, 42, 30)
	if _, err := c.Solve(req); err != nil {
		t.Fatal(err)
	}

	node.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	node2 := NewNode(NodeConfig{Self: addr, Peers: []string{addr}})
	defer node2.Close()
	go node2.ServeWire(ln2)

	// The stale connection fails once; the client redials within the same
	// call or the next one.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if _, lastErr = c.Solve(req); lastErr == nil {
			return
		}
	}
	t.Fatalf("client never recovered after restart: %v", lastErr)
}
