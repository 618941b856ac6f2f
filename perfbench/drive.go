package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"syscall"
	"time"

	"dvsreject/internal/cluster"
	"dvsreject/internal/core"
	"dvsreject/internal/serve"
)

// slots is the number of requests in flight at once: one per worker, and
// one per core of the two-core machine the benchmark was sized on.
const slots = 2

// client sends one request to the serving stack and returns its answer.
type client interface {
	solve(inst *instance) outcome
}

// httpClient owns one keep-alive connection to a node's /solve.
type httpClient struct {
	url string
	c   *http.Client
}

func newHTTPClient(addr string) *httpClient {
	return &httpClient{
		url: "http://" + addr + "/solve",
		c: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
}

// solve posts the request and keeps the raw answer: decoding it waits
// for the check after the phase, so the generator spends less CPU while
// the daemon is measured.
func (h *httpClient) solve(inst *instance) outcome {
	resp, err := h.c.Post(h.url, "application/json", bytes.NewReader(inst.body))
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return outcome{err: err}
	}
	out := outcome{raw: raw}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		out.shed, out.err = true, errors.New("shed by admission control")
	case resp.StatusCode != http.StatusOK:
		out.err = fmt.Errorf("/solve status %d: %s", resp.StatusCode, raw)
	}
	return out
}

// decode fills an HTTP outcome's fields from its raw /solve answer.
func (out outcome) decode() outcome {
	if out.raw == nil || out.err != nil {
		return out
	}
	var wr serve.WireResponse
	if err := json.Unmarshal(out.raw, &wr); err != nil {
		return outcome{err: fmt.Errorf("decode /solve answer: %w", err)}
	}
	return outcome{
		sol:    core.Solution{Accepted: wr.Accepted, Rejected: wr.Rejected, Energy: wr.Energy, Penalty: wr.Penalty, Cost: wr.Cost},
		hetero: wr.Hetero,
	}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// wireClient routes each request by fingerprint over one connection per
// node, shared by every worker (a WireClient serializes its calls).
type wireClient struct {
	c *cluster.Client
}

func (w *wireClient) solve(inst *instance) outcome {
	res, _, err := w.c.Solve(inst.req)
	if err != nil {
		var shed *cluster.ShedError
		return outcome{shed: errors.As(err, &shed), err: err}
	}
	return outcome{sol: res.Solution, full: true}
}

// newClients connects one client per slot; the returned func closes them.
func newClients(w workload, f *fleet) ([slots]client, func()) {
	var cs [slots]client
	if w.proto == "wire" {
		peers := make([]string, len(f.daemons))
		for i, d := range f.daemons {
			peers[i] = d.wireAddr
		}
		wc := &wireClient{c: cluster.NewClient(peers, 0)}
		for i := range cs {
			cs[i] = wc
		}
		return cs, wc.c.Close
	}
	hs := make([]*httpClient, slots)
	for i := range cs {
		hs[i] = newHTTPClient(f.daemons[0].httpAddr)
		cs[i] = hs[i]
	}
	return cs, func() {
		for _, h := range hs {
			h.close()
		}
	}
}

// record is one request sent in a measured phase.
type record struct {
	inst *instance
	lat  time.Duration // open loop: from the due time; closed loop: from the send
	out  outcome
}

// phase is the raw outcome of one load phase.
type phase struct {
	recs    []record
	elapsed time.Duration
	lags    []time.Duration // open loop: how late the generator sent each group
	steal   int64           // host steal ticks during the phase
	cpu     time.Duration   // closed loop: the fleet's CPU time during the phase
}

// openSchedule draws the due offsets of n groups at rate per second: one
// group per 1/rate interval, at a seeded uniform position inside it, so
// the offered rate is exact and arrivals never fall into lockstep with
// the server.
func openSchedule(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	for k := range due {
		due[k] = time.Duration((float64(k) + rng.Float64()) / rate * float64(time.Second))
	}
	return due
}

// openLoop sends each group at its due time regardless of how earlier
// requests fare. A request waits for a free slot when both are busy, and
// its latency counts from the due time, so a stall shows in every request
// it delays.
func openLoop(cs [slots]client, groups []group, due []time.Duration) phase {
	type job struct {
		inst *instance
		due  time.Time
	}
	jobs := make(chan job)
	recs := make([][]record, slots)
	var wg sync.WaitGroup
	for s := range cs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for j := range jobs {
				out := cs[s].solve(j.inst)
				recs[s] = append(recs[s], record{inst: j.inst, lat: time.Since(j.due), out: out})
			}
		}(s)
	}
	var ph phase
	start := time.Now()
	for k, g := range groups {
		at := start.Add(due[k])
		sleepUntil(at)
		ph.lags = append(ph.lags, time.Since(at))
		for _, inst := range g {
			jobs <- job{inst: inst, due: at}
		}
	}
	close(jobs)
	wg.Wait()
	ph.elapsed = time.Since(start)
	for _, r := range recs {
		ph.recs = append(ph.recs, r...)
	}
	return ph
}

// sleepUntil returns at the given instant. time.Sleep wakes up to a
// millisecond late (the runtime timer's granularity on Linux), which would
// swamp sub-millisecond latencies; so this sleeps in the kernel until just
// before the instant and spins the rest.
func sleepUntil(at time.Time) {
	const spin = 100 * time.Microsecond
	for {
		d := time.Until(at) - spin
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
	for time.Now().Before(at) {
	}
}

// closedLoop keeps every slot busy for d: each worker sends its next
// request as soon as its previous answer arrives. Pair workloads send
// each group's two requests together and wait for both.
func closedLoop(cs [slots]client, s stream, d time.Duration, pair bool) phase {
	var mu sync.Mutex
	next := func() group {
		mu.Lock()
		defer mu.Unlock()
		return s.next()
	}
	recs := make([][]record, slots)
	send := func(slot int, inst *instance) {
		t0 := time.Now()
		out := cs[slot].solve(inst)
		recs[slot] = append(recs[slot], record{inst: inst, lat: time.Since(t0), out: out})
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	if pair {
		for time.Now().Before(deadline) {
			g := next()
			for slot, inst := range g {
				wg.Add(1)
				go func(slot int, inst *instance) {
					defer wg.Done()
					send(slot, inst)
				}(slot, inst)
			}
			wg.Wait()
		}
	} else {
		for slot := range cs {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					send(slot, next()[0])
				}
			}(slot)
		}
		wg.Wait()
	}
	ph := phase{elapsed: time.Since(start)}
	for _, r := range recs {
		ph.recs = append(ph.recs, r...)
	}
	return ph
}
