// Command bench is the benchmark-regression harness: it times every case
// of internal/benchcase — the instances `go test -bench Core` runs as
// BenchmarkCore sub-benchmarks — and writes a machine-readable JSON
// report, BENCH_core.json by default. Committing the report alongside a
// performance-sensitive change gives code review and CI a before/after
// record without re-deriving numbers from log output:
//
//	go run ./cmd/bench -o BENCH_core.json            # or: make bench-json
//	go run ./cmd/bench -benchtime 5s -o after.json   # longer, steadier runs
//
// Regression gating compares the fresh run against a committed baseline,
// printing per-case ns/op deltas and exiting non-zero when any case slows
// down beyond the threshold (15% by default):
//
//	go run ./cmd/bench -compare BENCH_core.json -o new.json   # or: make bench-diff
//	go run ./cmd/bench -compare old.json -max-regress 25
//
// Profiling a run (the output feeds `go tool pprof`):
//
//	go run ./cmd/bench -cpuprofile cpu.out -memprofile mem.out
//
// For statistically rigorous comparisons, run the regular `go test -bench`
// twice and feed the outputs to benchstat; this harness trades confidence
// intervals for a stable machine-readable snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"dvsreject/internal/benchcase"
	"dvsreject/internal/cache"
)

type result struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	// M is the processor count of multiprocessor cases; omitted (0) for
	// single-processor benchmarks, keeping the schema backward-compatible.
	M           int     `json:"m,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Cache is set only for the serve-layer benchmarks: the engine's
	// plan-cache counters after the measured run. Omitted elsewhere, so
	// the schema stays backward-compatible.
	Cache *cache.Stats `json:"cache,omitempty"`
}

type report struct {
	GeneratedAt string   `json:"generated_at"`
	GoOS        string   `json:"goos"`
	GoArch      string   `json:"goarch"`
	GoMaxProcs  int      `json:"gomaxprocs"`
	BenchTime   string   `json:"benchtime"`
	Results     []result `json:"results"`
}

// key is r's report key, the string benchcase.Case.Key gives its case.
func key(r result) string { return benchcase.Case{Name: r.Name, N: r.N, M: r.M}.Key() }

// ratios are the headline speedups printed after the table (the README
// perf tables quote them): warm near-miss re-solves against their cold
// counterparts, and sparse rows against the dense kernel.
var ratios = []struct{ label, cold, warm string }{
	{"warm append speedup", "DPColdWide/n=1000", "DPWarmAppend/n=1000"},
	{"warm modify speedup", "DPColdWide/n=1000", "DPWarmModify/n=1000"},
	{"online replan speedup", "OnlineReplanCold/n=1000", "OnlineReplanIncremental/n=1000"},
	{"sparse rows speedup", "DPSparseRegimeDense/n=28", "DPSparseRegimeSparse/n=28"},
}

// compareReports writes per-case ns/op deltas of fresh against the
// baseline report at path to w and returns the keys of cases whose
// slowdown exceeds maxRegress percent, or — when maxAllocsRegress > 0 —
// whose allocs/op grew by more than that percentage AND by more than a
// small absolute floor (4 allocations, so 1→2 on a near-zero-alloc case
// never gates). Cases present on only one side are reported but never
// gate (a new benchmark has no baseline to regress against).
func compareReports(w io.Writer, path string, base, fresh report, maxRegress, maxAllocsRegress float64) []string {
	old := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		old[key(r)] = r
	}

	var regressed []string
	fmt.Fprintf(w, "\n%-42s %14s %14s %9s\n", "benchmark (vs "+path+")", "old ns/op", "new ns/op", "delta")
	for _, r := range fresh.Results {
		k := key(r)
		b, ok := old[k]
		if !ok {
			fmt.Fprintf(w, "%-42s %14s %14.0f %9s\n", k, "-", r.NsPerOp, "new")
			continue
		}
		delete(old, k)
		delta := (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		mark := ""
		if delta > maxRegress {
			mark = "  REGRESSION"
			regressed = append(regressed, k)
		}
		if maxAllocsRegress > 0 && r.AllocsPerOp-b.AllocsPerOp > 4 &&
			float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+maxAllocsRegress/100) {
			mark += fmt.Sprintf("  ALLOCS %d→%d", b.AllocsPerOp, r.AllocsPerOp)
			regressed = append(regressed, k+" (allocs)")
		}
		fmt.Fprintf(w, "%-42s %14.0f %14.0f %+8.1f%%%s\n", k, b.NsPerOp, r.NsPerOp, delta, mark)
	}
	for k := range old {
		fmt.Fprintf(w, "%-42s %14s %14s %9s\n", k, "-", "-", "removed")
	}
	return regressed
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %v", path, err)
	}
	return rep, nil
}

// minTimedRuns is the fewest iterations a case is timed over.
// testing.Benchmark times an op slower than -benchtime exactly once, so at
// a short -benchtime a slow case would be one call, set against a
// baseline that averaged many warm calls at 1 s.
const minTimedRuns = 3

// measure sets c up and times it, returning its result and its headline
// note. The workload is unreachable once measure returns.
func measure(c benchcase.Case) (result, string, error) {
	op, err := c.Setup()
	if err != nil {
		return result{}, "", err
	}
	// One untimed run grows the scratch pools and warms the caches, so no
	// case is timed on its first call after Setup.
	if err := op.Run(); err != nil {
		return result{}, "", err
	}
	var runErr error
	bench := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op.Run(); err != nil {
				runErr = err
				b.FailNow()
			}
		}
	}
	r := testing.Benchmark(bench)
	if runErr == nil && r.N < minTimedRuns {
		if r, err = benchmarkRuns(bench, minTimedRuns); err != nil {
			return result{}, "", err
		}
	}
	if runErr != nil {
		return result{}, "", runErr
	}
	res := result{
		Name:        c.Name,
		N:           c.N,
		M:           c.M,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if op.Cache != nil {
		st := op.Cache()
		res.Cache = &st
	}
	note := ""
	if op.Note != nil {
		note = op.Note()
	}
	return res, note, nil
}

// benchmarkRuns is testing.Benchmark at -benchtime nx: one untimed call,
// then n timed ones, whose time and allocations make the result.
func benchmarkRuns(f func(*testing.B), n int) (testing.BenchmarkResult, error) {
	bt := flag.Lookup("test.benchtime").Value
	prev := bt.String()
	if err := bt.Set(fmt.Sprintf("%dx", n)); err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer bt.Set(prev)
	return testing.Benchmark(f), nil
}

func main() { os.Exit(run()) }

// run is the command; it returns the exit code, so its deferred calls —
// stopping the CPU profile and closing its file — run on every path.
func run() (code int) {
	testing.Init()
	out := flag.String("o", "BENCH_core.json", "output path for the JSON report")
	benchtime := flag.String("benchtime", "1s", "minimum measuring time per benchmark (forwarded to the testing package)")
	compare := flag.String("compare", "", "baseline JSON report to diff against; exit non-zero on regressions")
	maxRegress := flag.Float64("max-regress", 15, "with -compare, the ns/op slowdown percentage that fails the run")
	maxAllocsRegress := flag.Float64("max-allocs-regress", 0, "with -compare, the allocs/op growth percentage that fails the run (0 disables; a 4-alloc absolute floor filters noise)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the benchmark run to this file")
	flag.Parse()
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
		return 1
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return fail("bad -benchtime: %v", err)
	}
	// A comparison runs at the baseline's GOMAXPROCS: the row-parallel DP
	// and the parallel solvers allocate per worker, so allocs/op measured
	// at another setting would not be comparable.
	var base report
	if *compare != "" {
		var err error
		if base, err = readReport(*compare); err != nil {
			return fail("%v", err)
		}
		if base.GoMaxProcs > 0 {
			runtime.GOMAXPROCS(base.GoMaxProcs)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail("%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && code == 0 {
				code = fail("%v", err)
			}
		}()
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		BenchTime:   *benchtime,
	}
	var notes []string
	for _, c := range benchcase.All() {
		res, note, err := measure(c)
		if err != nil {
			return fail("%s: %v", c.Key(), err)
		}
		rep.Results = append(rep.Results, res)
		if note != "" {
			notes = append(notes, note)
		}
		fmt.Printf("%-42s %14.0f ns/op %8d B/op %6d allocs/op\n",
			c.Key(), res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		// Two collections between cases: the first moves sync.Pool scratch
		// grown by this case to the victim cache, the second frees it, so
		// the next case starts from a clean heap.
		runtime.GC()
		runtime.GC()
	}

	ns := make(map[string]float64, len(rep.Results))
	for _, r := range rep.Results {
		ns[key(r)] = r.NsPerOp
	}
	for _, r := range ratios {
		if c, w := ns[r.cold], ns[r.warm]; c > 0 && w > 0 {
			fmt.Printf("%-26s %6.1fx  (%s vs %s)\n", r.label, c/w, r.warm, r.cold)
		}
	}
	// Anytime quality headlines: solution quality per unit wall time, not
	// speed — the README's ≥99%-of-exact claim at n=1000 in 10 ms and the
	// certified gap on the grid the exact dense solver cannot touch.
	for _, n := range notes {
		fmt.Println(n)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail("%v", err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return fail("%v", err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Results))

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail("%v", err)
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail("%v", err)
		}
	}
	if *compare != "" {
		if regressed := compareReports(os.Stdout, *compare, base, rep, *maxRegress, *maxAllocsRegress); len(regressed) > 0 {
			return fail("%d case(s) regressed (ns/op over %g%% or allocs/op over %g%%): %v",
				len(regressed), *maxRegress, *maxAllocsRegress, regressed)
		}
		fmt.Printf("no regressions over %g%%\n", *maxRegress)
	}
	return 0
}
