package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dvsreject/internal/cluster"
	"dvsreject/internal/serve"
	"dvsreject/internal/task"
)

// daemon is one running rejectschedd process.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string // empty when the wire listener is off
	logs     bytes.Buffer
	done     chan struct{} // closed once the process has been waited for
	waitErr  error
}

// fleet is the serving stack of one workload: one process per node.
type fleet struct {
	daemons []*daemon
	stopped bool
}

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux configuration Go supports).
const clockTick = 10 * time.Millisecond

// probeSet is the one-task instance a setup probe solves.
var probeSet = task.Set{Deadline: 10, Tasks: []task.Task{{ID: 1, Cycles: 4, Penalty: 2}}}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startFleet launches the workload's daemons and returns once every node
// has answered a first solve over the workload's protocol, together with
// the time that took.
func startFleet(bin string, w workload) (*fleet, time.Duration, error) {
	addrs, err := freeAddrs(2 * w.nodes)
	if err != nil {
		return nil, 0, err
	}
	httpAddrs, wireAddrs := addrs[:w.nodes], addrs[w.nodes:]
	f := &fleet{}
	start := time.Now()
	for i := 0; i < w.nodes; i++ {
		d := &daemon{httpAddr: httpAddrs[i], done: make(chan struct{})}
		args := []string{"-addr", d.httpAddr}
		if w.proto == "wire" {
			d.wireAddr = wireAddrs[i]
			args = append(args, "-wire-addr", d.wireAddr, "-peers", strings.Join(wireAddrs, ","))
		}
		d.cmd = exec.Command(bin, args...)
		d.cmd.Stdout = &d.logs
		d.cmd.Stderr = &d.logs
		// Take the daemon down with the benchmark if it dies first.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			f.stop()
			return nil, 0, fmt.Errorf("start %s: %w", bin, err)
		}
		go func() {
			d.waitErr = d.cmd.Wait()
			close(d.done)
		}()
		f.daemons = append(f.daemons, d)
	}
	for _, d := range f.daemons {
		if err := d.await(d.probe); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	setup := time.Since(start)
	// /stats must answer too (wire nodes start that listener last); not
	// part of the measured set-up.
	for _, d := range f.daemons {
		if err := d.await(func() error { _, err := d.stats(); return err }); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	return f, setup, nil
}

// await polls the node until try succeeds.
func (d *daemon) await(try func() error) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := try()
		if err == nil {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("rejectschedd exited during start-up: %v\n%s", d.waitErr, d.logs.String())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rejectschedd at %s never answered: %v", d.httpAddr, err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func (d *daemon) probe() error {
	req := serve.Request{Tasks: probeSet, Proc: unitProc, Solver: "DP"}
	if d.wireAddr != "" {
		c := cluster.NewWireClient(d.wireAddr)
		defer c.Close()
		_, err := c.Solve(req)
		return err
	}
	body, err := json.Marshal(serve.WireRequest{Deadline: probeSet.Deadline, SMax: 1, Tasks: wireTasks(probeSet)})
	if err != nil {
		return err
	}
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Post("http://"+d.httpAddr+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe solve: status %d", resp.StatusCode)
	}
	return nil
}

// stats fetches the node's counters from GET /stats.
func (d *daemon) stats() (cluster.NodeStats, error) {
	var st cluster.NodeStats
	c := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get("http://" + d.httpAddr + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// stats snapshots every node's counters.
func (f *fleet) stats() ([]cluster.NodeStats, error) {
	out := make([]cluster.NodeStats, len(f.daemons))
	for i, d := range f.daemons {
		st, err := d.stats()
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// cpu is the user plus system CPU time the fleet's processes have used.
func (f *fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, d := range f.daemons {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line.
		s := string(raw)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc stat line %q", s)
		}
		for _, fld := range fields[11:13] {
			ticks, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return 0, err
			}
			total += time.Duration(ticks) * clockTick
		}
	}
	return total, nil
}

// peakRSSMB is the sum of the processes' resident-memory high-water marks.
func (f *fleet) peakRSSMB() (float64, error) {
	var kb float64
	for _, d := range f.daemons {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err != nil {
					return 0, err
				}
				kb += n
				found = true
			}
		}
		if !found {
			return 0, errors.New("no VmHWM in /proc status")
		}
	}
	return kb / 1024, nil
}

// stop shuts every process down (SIGTERM, then SIGKILL after a grace
// period) and waits until each has exited. It is safe to call twice.
func (f *fleet) stop() error {
	if f.stopped {
		return nil
	}
	f.stopped = true
	var first error
	for _, d := range f.daemons {
		d.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, d := range f.daemons {
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
		if d.waitErr != nil && first == nil {
			first = fmt.Errorf("rejectschedd %s: %v\n%s", d.httpAddr, d.waitErr, d.logs.String())
		}
	}
	return first
}
