package multiproc

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dvsreject/internal/core"
	"dvsreject/internal/gen"
)

// herdFrames builds 30 hetero-herd shaped instances: big.LITTLE vectors of
// M = 2 and 4 cores (ratio 2, ideal cubic), n = 16–20 tasks loaded to
// 1.2·Σsmax, every penalty model — the shapes cycled in a fixed order,
// the task contents drawn from seed.
func herdFrames(tb testing.TB, seed int64) []HeteroInstance {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	frames := make([]HeteroInstance, 0, 30)
	for i := 0; i < 30; i++ {
		m := 2 + 2*(i%2)
		procs, err := gen.BigLittle(gen.BigLittleConfig{NBig: m / 2, NLittle: m / 2})
		if err != nil {
			tb.Fatal(err)
		}
		capacity := 0.0
		for _, p := range procs {
			capacity += p.SMax
		}
		set, err := gen.Frame(rand.New(rand.NewSource(rng.Int63())), gen.Config{
			N: 16 + (i/2)%5, Load: 1.2 * capacity, Penalty: gen.PenaltyModel((i / 10) % 3),
		})
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, HeteroInstance{Tasks: set, Procs: procs})
	}
	return frames
}

// TestDifferentialHeteroHerd extends the HETERO-PART pin to herd-shaped
// frames: the certified bound matches refHeteroLowerBound bit for bit on
// 300 frames, HETERO-PART matches refHeteroPartition on 30 of them.
func TestDifferentialHeteroHerd(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for i, in := range herdFrames(t, seed) {
			want, wantErr := refHeteroLowerBound(in, 0)
			got, err := HeteroLowerBound(in, 0)
			if err != nil || wantErr != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d frame %d: bound %v (%v), reference %v (%v)", seed, i, got, err, want, wantErr)
			}
			if seed != 1 {
				continue
			}
			wantSol, err := refHeteroPartition(HeteroPartition{}, in)
			if err != nil {
				t.Fatalf("frame %d: reference: %v", i, err)
			}
			gotSol, err := (HeteroPartition{}).Solve(in)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			mustEqualHetero(t, in, fmtLabel("herd", i), gotSol, wantSol)
		}
	}
}

// TestHeteroPartitionStateBudget: a per-processor DP budget too small for
// any probe surfaces as the core's typed budget error.
func TestHeteroPartitionStateBudget(t *testing.T) {
	in := herdFrames(t, 1)[0]
	if _, err := (HeteroPartition{MaxStates: 8}).Solve(in); !errors.Is(err, core.ErrStateBudget) {
		t.Fatalf("MaxStates 8: error %v, want one wrapping core.ErrStateBudget", err)
	}
}

// BenchmarkHeteroPartitionHerd times one HETERO-PART solve per op, cycling
// through the herd frames, so ns/op and allocs/op are per-frame means.
func BenchmarkHeteroPartitionHerd(b *testing.B) {
	frames := herdFrames(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (HeteroPartition{}).Solve(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeteroLowerBoundHerd times the certified bound the serve path
// attaches to every hetero answer, over the same herd frames.
func BenchmarkHeteroLowerBoundHerd(b *testing.B) {
	frames := herdFrames(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HeteroLowerBound(frames[i%len(frames)], 0); err != nil {
			b.Fatal(err)
		}
	}
}
