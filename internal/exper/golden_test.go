package exper

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// stubClock pins the harness clock so the wall-clock timing columns of
// E4/E8 (the only non-deterministic table cells) render identically on
// every run, restoring the real clock when the test ends.
func stubClock(t *testing.T) {
	t.Helper()
	saveNow, saveSince := now, since
	now = func() time.Time { return time.Time{} }
	since = func(time.Time) time.Duration { return 0 }
	t.Cleanup(func() { now, since = saveNow, saveSince })
}

func renderSuite(t *testing.T, workers int) string {
	t.Helper()
	results, err := RunSuite(All(), Options{Quick: true, Seed: 1, Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.Table.Format())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSuiteSerialParallelByteIdentical is the harness's output-preservation
// pin: the full E1–E15 suite rendered with a serial worker pool must be
// byte-for-byte identical to the same suite rendered on a parallel pool.
// Trials draw from independent per-trial RNGs and all aggregation is folded
// in index order, so any divergence here means a trial picked up shared
// state it should not have.
func TestSuiteSerialParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite in -short mode")
	}
	stubClock(t)
	serial := renderSuite(t, 1)
	parallel := renderSuite(t, 4)
	if serial != parallel {
		d := diffLine(serial, parallel)
		t.Fatalf("serial and parallel suite output diverge (first differing line %d):\nserial:   %q\nparallel: %q",
			d.line, d.a, d.b)
	}
}

// TestSuiteMatchesCommittedOutput pins experiments_output.txt: the full
// suite at seed 1 (what go run ./cmd/experiments prints) must reproduce
// every committed table byte for byte, except E4 and E8, whose runtime
// columns are wall-clock.
func TestSuiteMatchesCommittedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	committed := map[string]string{}
	for _, block := range strings.Split(string(data), "\n\n") {
		if id, _, ok := strings.Cut(block, " — "); ok {
			committed[id] = block + "\n"
		}
	}
	results, err := RunSuite(All(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		id := r.Table.ID
		if id == "E4" || id == "E8" {
			continue
		}
		want, ok := committed[id]
		if !ok {
			t.Errorf("%s: no table in experiments_output.txt", id)
			continue
		}
		if got := r.Table.Format(); got != want {
			d := diffLine(got, want)
			t.Errorf("%s differs from experiments_output.txt at line %d:\ngot:  %q\nwant: %q", id, d.line, d.a, d.b)
		}
	}
}

type lineDiff struct {
	line int
	a, b string
}

func diffLine(a, b string) lineDiff {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return lineDiff{i + 1, al[i], bl[i]}
		}
	}
	return lineDiff{len(al), "<end>", "<end>"}
}
