package main

import (
	"bytes"
	"flag"
	"slices"
	"strings"
	"testing"
	"time"

	"dvsreject/internal/benchcase"
)

// TestTableMatchesBaseline pins the case table to the committed baseline:
// the gate prints a baseline case the run no longer produces as "removed"
// without failing, so a dropped or renamed case would silently lose its
// gate. Adding or dropping a case means regenerating BENCH_core.json.
func TestTableMatchesBaseline(t *testing.T) {
	base, err := readReport("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	inBase := make(map[string]bool)
	for _, r := range base.Results {
		inBase[key(r)] = true
	}
	seen := make(map[string]bool)
	for _, c := range benchcase.All() {
		k := c.Key()
		switch {
		case seen[k]:
			t.Errorf("duplicate case %s", k)
		case !inBase[k]:
			t.Errorf("case %s is missing from BENCH_core.json", k)
		}
		seen[k] = true
	}
	for k := range inBase {
		if !seen[k] {
			t.Errorf("BENCH_core.json case %s is not in the table", k)
		}
	}
	if t.Failed() {
		t.Log("regenerate the baseline: GOMAXPROCS=1 go run ./cmd/bench -o BENCH_core.json")
	}
}

func TestCompareReports(t *testing.T) {
	row := func(name string, n, m int, ns float64, allocs int64) result {
		return result{Name: name, N: n, M: m, NsPerOp: ns, AllocsPerOp: allocs}
	}
	base := report{Results: []result{
		row("Slow", 10, 0, 100, 0),
		row("Steady", 10, 0, 100, 50),
		row("AllocsUp", 10, 0, 100, 10),
		row("AllocsNoise", 10, 0, 100, 1),
		row("AllocsFloor", 10, 0, 100, 1),
		row("Gone", 10, 0, 100, 0),
		row("Multi", 64, 2, 100, 0),
	}}
	fresh := report{Results: []result{
		row("Slow", 10, 0, 250, 0),        // +150% > 100%
		row("Steady", 10, 0, 190, 55),     // +90%, allocs +10%
		row("AllocsUp", 10, 0, 100, 41),   // 10 → 41: +310%, +31
		row("AllocsNoise", 10, 0, 100, 2), // 1 → 2: +100%, under the floor
		row("AllocsFloor", 10, 0, 100, 5), // 1 → 5: +400%, exactly the floor
		row("Fresh", 10, 0, 1e9, 1e6),     // no baseline
		row("Multi", 64, 4, 1e9, 1e6),     // another M: a new case
	}}
	var out bytes.Buffer
	got := compareReports(&out, "base.json", base, fresh, 100, 300)
	want := []string{"Slow/n=10", "AllocsUp/n=10 (allocs)"}
	if !slices.Equal(got, want) {
		t.Errorf("regressed = %q, want %q\n%s", got, want, out.String())
	}
	// Cases on one side only are listed with their marker in the last
	// column; a different M is a different case.
	marks := make(map[string]string)
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			marks[f[0]] = f[len(f)-1]
		}
	}
	for k, want := range map[string]string{
		"Fresh/n=10": "new", "Multi/n=64/M=4": "new",
		"Gone/n=10": "removed", "Multi/n=64/M=2": "removed",
	} {
		if marks[k] != want {
			t.Errorf("%s marked %q, want %q:\n%s", k, marks[k], want, out.String())
		}
	}

	// The allocs gate is off at -max-allocs-regress 0.
	if got := compareReports(&out, "base.json", base, fresh, 100, 0); !slices.Equal(got, []string{"Slow/n=10"}) {
		t.Errorf("with the allocs gate off, regressed = %q, want [Slow/n=10]", got)
	}
}

// TestMeasureSlowCase: at -benchtime 20ms a 30 ms op is timed over
// minTimedRuns calls after an untimed warm-up, not once on its first call.
func TestMeasureSlowCase(t *testing.T) {
	bt := flag.Lookup("test.benchtime").Value
	prev := bt.String()
	if err := bt.Set("20ms"); err != nil {
		t.Fatal(err)
	}
	defer bt.Set(prev)
	calls := 0
	c := benchcase.Case{Name: "Slow", N: 1, Setup: func() (benchcase.Op, error) {
		return benchcase.Op{Run: func() error {
			calls++
			time.Sleep(30 * time.Millisecond)
			return nil
		}}, nil
	}}
	res, _, err := measure(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != minTimedRuns || res.NsPerOp < 30e6 {
		t.Errorf("timed %d iterations at %.0f ns/op, want %d at ≥ 30 ms", res.Iterations, res.NsPerOp, minTimedRuns)
	}
	// The warm-up, the one-call first attempt, and the nx run's untimed
	// call before its timed ones.
	if want := 3 + minTimedRuns; calls != want {
		t.Errorf("op ran %d times, want %d", calls, want)
	}
}
