package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dvsreject/internal/serve"
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(label string, declared []struct{ Name, Unit string }, defs []metricDef) {
		var got, want []string
		for _, d := range declared {
			want = append(want, d.Name+" "+d.Unit)
		}
		for _, d := range defs {
			got = append(got, d.name+" "+d.unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s metrics:\n code %v\n BENCHMARK.json %v", label, got, want)
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetricDefs)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		bw := b.Workloads[i]
		if bw.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, bw.Name, w.name)
		}
		// The fixed open-loop rate and latency limit are recorded in "why".
		if want := fmt.Sprintf("open loop %g/s, SLO %v", w.openRate, w.slo); !strings.Contains(bw.Why, want) {
			t.Errorf("workload %s: why %q does not state %q", w.name, bw.Why, want)
		}
	}
}

// streamDigest renders the first n groups of a stream in a comparable form:
// each request's fingerprint, plus its JSON body when it has one.
func streamDigest(s stream, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		g := s.next()
		var parts []string
		for _, inst := range g {
			parts = append(parts, fmt.Sprintf("%x|%s", serve.Fingerprint(inst.req, 0), inst.body))
		}
		out = append(out, strings.Join(parts, "+"))
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		n := 300
		if w.pair {
			n = 40
		}
		a := streamDigest(w.newStream(phaseSeed(7, 0)), n)
		b := streamDigest(w.newStream(phaseSeed(7, 0)), n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed drew different request streams", w.name)
		}
		if c := streamDigest(w.newStream(phaseSeed(8, 0)), n); reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds drew the same request stream", w.name)
		}
	}
	if !reflect.DeepEqual(openSchedule(3, 100, 50), openSchedule(3, 100, 50)) {
		t.Error("the same seed drew different open-loop schedules")
	}
}

func TestColdWireMix(t *testing.T) {
	s := newColdStream(phaseSeed(1, 0))
	seen := map[string]bool{}
	edits := 0
	for i := 0; i < 2000; i++ {
		inst := s.next()[0]
		fp := serve.Fingerprint(inst.req, 0)
		if seen[fp] {
			t.Fatalf("request %d repeats an earlier instance", i)
		}
		seen[fp] = true
		if inst.parent != nil {
			edits++
		}
	}
	if edits < 400 || edits > 800 {
		t.Errorf("%d edits in 2000 requests, want about 600", edits)
	}
}

func TestCheckerSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestSmoke runs every workload briefly against freshly built daemons, both
// untraced and traced, and expects correct answers only and exactly the
// declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs rejectschedd")
	}
	bin := filepath.Join(t.TempDir(), "rejectschedd")
	build := exec.Command("go", "build", "-o", bin, "dvsreject/cmd/rejectschedd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build rejectschedd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				res, err := run(options{workload: w.name, seed: 1, seconds: 2, trace: traced, daemon: bin, traceDir: t.TempDir()}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEndMetrics
				if traced {
					defs = perLayerMetricDefs
				}
				var got, want []string
				for name, m := range res.Metrics {
					got = append(got, name+" "+m.Unit)
				}
				for _, d := range defs {
					want = append(want, d.name+" "+d.unit)
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Errorf("printed metrics %v, want %v", got, want)
				}
				if traced && res.Metrics["verify.failed_frac"].Value != 0 {
					t.Errorf("failed_frac %g", res.Metrics["verify.failed_frac"].Value)
				}
			})
		}
	}
}
