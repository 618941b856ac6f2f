package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"dvsreject/internal/core"
	"dvsreject/internal/serve"
	"dvsreject/internal/wire"
)

// NodeConfig parameterizes one cluster node.
type NodeConfig struct {
	// Engine configures the node's serve.Engine. Its OnColdSolve hook is
	// owned by the node (warm-cache replication) and must be left nil.
	Engine serve.Config
	// Self is this node's ring identity — by convention its wire address.
	Self string
	// Peers lists every node identity on the ring, including Self. Empty
	// (or Self-only) runs a standalone node: no routing, no replication.
	Peers []string
	// Vnodes is the virtual-node count per peer (0 = 64).
	Vnodes int
	// Admission configures the overload controller. Zero Capacity disables
	// shedding.
	Admission AdmissionConfig
	// ReplicaQueue bounds the replication send queue (0 = 256). When the
	// queue is full pushes are dropped, never blocked on: replication is a
	// warm-cache hint, not durability.
	ReplicaQueue int
}

// NodeStats aggregates one node's counters across its layers.
type NodeStats struct {
	Engine    serve.Stats    `json:"engine"`
	Admission AdmissionStats `json:"admission"`
	// ReplSent counts cache entries pushed to the replica peer.
	ReplSent uint64 `json:"repl_sent"`
	// ReplDropped counts pushes dropped on a full queue or a dead peer.
	ReplDropped uint64 `json:"repl_dropped"`
	// ReplApplied counts pushes received and installed via Engine.Warm
	// (the engine's Warmed counter also ticks for each).
	ReplApplied uint64 `json:"repl_applied"`
	// WireSolves counts solve frames served over the binary protocol.
	WireSolves uint64 `json:"wire_solves"`
	// WireErrors counts malformed frames and failed reads on wire
	// connections.
	WireErrors uint64 `json:"wire_errors"`
}

// replItem is one queued warm-cache push, pre-encoded on the solving
// goroutine so the sender only does I/O.
type replItem struct {
	target  string
	payload []byte
}

// Node is one shard of the serving cluster: a serve.Engine fronted by the
// admission controller, speaking HTTP/JSON (Handler) and the binary wire
// protocol (ServeWire) side by side, and replicating its cold solves to
// the key's next ring node.
type Node struct {
	cfg    NodeConfig
	engine *serve.Engine
	gate   *Admission
	ring   *Ring
	self   int

	repl chan replItem
	wg   sync.WaitGroup
	done chan struct{}

	mu      sync.Mutex
	clients map[string]*WireClient
	lns     []net.Listener
	conns   map[net.Conn]struct{}
	closed  bool

	replSent    atomic.Uint64
	replDropped atomic.Uint64
	replApplied atomic.Uint64
	wireSolves  atomic.Uint64
	wireErrors  atomic.Uint64
}

// NewNode builds a node. Call Close when done to stop the replication
// sender and any wire listeners.
func NewNode(cfg NodeConfig) *Node {
	if cfg.ReplicaQueue <= 0 {
		cfg.ReplicaQueue = 256
	}
	n := &Node{
		cfg:     cfg,
		gate:    NewAdmission(cfg.Admission),
		ring:    NewRing(cfg.Peers, cfg.Vnodes),
		repl:    make(chan replItem, cfg.ReplicaQueue),
		done:    make(chan struct{}),
		clients: make(map[string]*WireClient),
		conns:   make(map[net.Conn]struct{}),
	}
	n.self = n.ring.Index(cfg.Self)
	ecfg := cfg.Engine
	if n.ring.Len() > 1 {
		ecfg.OnColdSolve = n.enqueueReplica
	}
	n.engine = serve.New(ecfg)
	n.wg.Add(1)
	go n.replicaSender()
	return n
}

// Engine exposes the node's serve engine (tests, benchmarks).
func (n *Node) Engine() *serve.Engine { return n.engine }

// Gate exposes the node's admission controller.
func (n *Node) Gate() *Admission { return n.gate }

// Stats snapshots the node's counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Engine:      n.engine.Stats(),
		Admission:   n.gate.Stats(),
		ReplSent:    n.replSent.Load(),
		ReplDropped: n.replDropped.Load(),
		ReplApplied: n.replApplied.Load(),
		WireSolves:  n.wireSolves.Load(),
		WireErrors:  n.wireErrors.Load(),
	}
}

// Handler returns the node's HTTP surface: the engine's gated mux with
// GET /stats upgraded to the full NodeStats.
func (n *Node) Handler() http.Handler {
	inner := serve.NewGatedHandler(n.engine, n.gate)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(n.Stats())
	})
	mux.Handle("/", inner)
	return mux
}

// Close stops the replication sender, closes peer connections, accepted
// wire connections and any listeners passed to ServeWire, and waits for
// connection handlers.
func (n *Node) Close() {
	close(n.done)
	n.mu.Lock()
	n.closed = true
	for _, c := range n.clients {
		c.Close()
	}
	for conn := range n.conns {
		conn.Close()
	}
	lns := n.lns
	n.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	n.wg.Wait()
}

// enqueueReplica is the engine's OnColdSolve hook: route the solved key to
// its replica on the ring and queue the bit-exact (request, solution) pair
// for the sender. Runs on the solving goroutine, so it only encodes and
// enqueues.
func (n *Node) enqueueReplica(req serve.Request, sol core.Solution) {
	key := serve.Fingerprint(req, 0)
	owner, replica := n.ring.OwnerReplica(key)
	target := replica
	if target == n.self {
		// We are the key's replica (a client routed it here off-owner, or
		// the ring wrapped); push toward the owner instead so two nodes
		// end up warm either way.
		target = owner
	}
	if target < 0 || target == n.self {
		return
	}
	payload := wire.EncodeReplicate(toWireRequest(req), sol)
	select {
	case n.repl <- replItem{target: n.ring.ID(target), payload: payload}:
	default:
		n.replDropped.Add(1)
	}
}

// replicaSender drains the replication queue over persistent wire
// connections, one frame per entry. A send error drops the entry and the
// connection; the next entry redials.
func (n *Node) replicaSender() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case item := <-n.repl:
			c := n.client(item.target)
			if err := c.Push(wire.FrameReplicate, item.payload); err != nil {
				n.replDropped.Add(1)
				continue
			}
			n.replSent.Add(1)
		}
	}
}

// client returns the node's persistent connection to peer, creating it on
// first use.
func (n *Node) client(peer string) *WireClient {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.clients[peer]
	if !ok {
		c = NewWireClient(peer)
		n.clients[peer] = c
	}
	return c
}

// ServeWire accepts binary-protocol connections on ln until Close (or an
// external ln.Close). Each connection carries a sequence of frames:
// FrameSolve is answered with FrameSolution or FrameError in order;
// FrameReplicate is one-way and warms the local cache.
func (n *Node) ServeWire(ln net.Listener) {
	n.mu.Lock()
	n.lns = append(n.lns, ln)
	n.mu.Unlock()
	n.wg.Add(1)
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				conn.Close()
				n.mu.Lock()
				delete(n.conns, conn)
				n.mu.Unlock()
			}()
			n.serveConn(conn)
		}()
	}
}

// serveConn handles one wire connection until EOF or a framing error.
func (n *Node) serveConn(conn net.Conn) {
	for {
		select {
		case <-n.done:
			return
		default:
		}
		t, payload, err := wire.ReadFrame(conn)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				n.wireErrors.Add(1)
			}
			return
		}
		switch t {
		case wire.FrameSolve:
			wreq, err := wire.DecodeRequest(payload)
			if err != nil {
				n.wireErrors.Add(1)
				n.reply(conn, wire.FrameError, wire.EncodeError(wire.Error{Code: http.StatusBadRequest, Msg: err.Error()}))
				return
			}
			ft, fp := n.solveFrame(wreq)
			n.reply(conn, ft, fp)
		case wire.FrameReplicate:
			wreq, sol, err := wire.DecodeReplicate(payload)
			if err != nil {
				n.wireErrors.Add(1)
				continue
			}
			if n.engine.Warm(toServeRequest(wreq), sol) {
				n.replApplied.Add(1)
			}
		default:
			n.wireErrors.Add(1)
			n.reply(conn, wire.FrameError, wire.EncodeError(wire.Error{Code: http.StatusBadRequest, Msg: "unexpected frame type"}))
			return
		}
	}
}

// solveFrame runs one wire solve through the gate and the engine,
// returning the response frame.
func (n *Node) solveFrame(wreq wire.Request) (wire.FrameType, []byte) {
	req := toServeRequest(wreq)
	ok, retryAfter := n.gate.Admit(req)
	if !ok {
		return wire.FrameError, wire.EncodeError(wire.Error{
			Code:       http.StatusTooManyRequests,
			RetryAfter: retryAfter,
			Msg:        serve.OverloadedMsg(retryAfter),
		})
	}
	defer n.gate.Release(req)
	resp := n.engine.Solve(context.Background(), req)
	if resp.Err != nil {
		return wire.FrameError, wire.EncodeError(wire.Error{Code: serve.SolveStatus(resp.Err), Msg: resp.Err.Error()})
	}
	n.wireSolves.Add(1)
	return wire.FrameSolution, wire.EncodeResult(wire.Result{
		Solution:  resp.Solution,
		CacheHit:  resp.CacheHit,
		Coalesced: resp.Coalesced,
	})
}

// reply writes one frame, counting (and swallowing) write errors — the
// client observes them as a broken connection.
func (n *Node) reply(conn net.Conn, t wire.FrameType, payload []byte) {
	if err := wire.WriteFrame(conn, t, payload); err != nil {
		n.wireErrors.Add(1)
	}
}

// toServeRequest maps a wire request onto the engine's request type.
func toServeRequest(w wire.Request) serve.Request {
	return serve.Request{
		Tasks:   w.Tasks,
		Proc:    w.Proc,
		Solver:  w.Solver,
		FastPow: w.FastPow,
		Timeout: w.Timeout,
	}
}

// toWireRequest maps an engine request onto the wire form.
func toWireRequest(r serve.Request) wire.Request {
	return wire.Request{
		Solver:  r.Solver,
		Tasks:   r.Tasks,
		Proc:    r.Proc,
		FastPow: r.FastPow,
		Timeout: r.Timeout,
	}
}
