package dvsreject

// The benchmark harness: BenchmarkExp runs each reconstructed table/figure
// (E1..E16 in DESIGN.md §4) in quick mode, so `go test -bench=Exp`
// regenerates every result series, and BenchmarkCore runs the solver and
// substrate microbenchmarks of internal/benchcase — the cases cmd/bench
// records in BENCH_core.json. For full-size tables use
// `go run ./cmd/experiments`.

import (
	"testing"

	"dvsreject/internal/benchcase"
	"dvsreject/internal/exper"
)

func BenchmarkExp(b *testing.B) {
	for _, e := range exper.All() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tab, err := e.Run(exper.Options{Quick: true, Seed: int64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(tab.Rows) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkCore runs every case as a sub-benchmark named by its report
// key, e.g. BenchmarkCore/SolverDP/n=10 or
// BenchmarkCore/HeteroPartition/n=24/M=2.
func BenchmarkCore(b *testing.B) {
	for _, c := range benchcase.All() {
		b.Run(c.Key(), func(b *testing.B) {
			op, err := c.Setup()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
