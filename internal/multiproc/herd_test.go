package multiproc

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dvsreject/internal/conc"
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

// heteroDigestWant is TestHeteroPartitionDigest's SHA-256, recorded from
// the HETERO-PART that re-priced every probe with a cold subset DP.
const heteroDigestWant = "b8cc30957c2d7c4ad6fb85dcef9b786f95eb01c8947b05dcba3463f7e3d1b14c"

// TestHeteroPartitionDigest pins every HETERO-PART answer, budget
// failures included, to one recorded digest: herd frames for seeds 1–10,
// 50 wider big.LITTLE shapes (M 2–8, n 8–47), a frame past
// heteroSwapLimit and one with a 2²⁴-cycle deadline, each solved at
// MaxStates 0, 60 and 400. An answer enters the digest as its per-processor
// lists, rejected set and energy, penalty and cost bits, or as its error
// text. The refHeteroPartition pins run at MaxStates 0 only; this one also
// covers probes that pass a small breakpoint budget.
func TestHeteroPartitionDigest(t *testing.T) {
	var frames []HeteroInstance
	for seed := int64(1); seed <= 10; seed++ {
		frames = append(frames, herdFrames(t, seed)...)
	}
	rng := rand.New(rand.NewSource(77))
	shape := func(m, n int, load, deadline float64, xscale bool) HeteroInstance {
		nBig := 1 + rng.Intn(m-1)
		procs, err := gen.BigLittle(gen.BigLittleConfig{
			NBig: nBig, NLittle: m - nBig, Ratio: []float64{1.5, 2, 3}[rng.Intn(3)], XScale: xscale,
		})
		if err != nil {
			t.Fatal(err)
		}
		capacity := 0.0
		for _, p := range procs {
			capacity += p.SMax
		}
		set, err := gen.Frame(rand.New(rand.NewSource(rng.Int63())), gen.Config{
			N: n, Load: load * capacity, Deadline: deadline, Penalty: gen.PenaltyModel(rng.Intn(3)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return HeteroInstance{Tasks: set, Procs: procs}
	}
	for i := 0; i < 50; i++ {
		frames = append(frames, shape(2+rng.Intn(7), 8+rng.Intn(40), 0.8+0.8*rng.Float64(), 0, i%4 == 3))
	}
	frames = append(frames,
		shape(3, heteroSwapLimit+6, 1.2, 0, false),
		shape(2, 16, 1.2, 1<<24, false),
	)

	// Four workers solve at once, so the race detector sees concurrent
	// solves share the core SubsetDP pool; the digest reads the answers in
	// order.
	budgets := []int64{0, 60, 400}
	type answer struct {
		sol Solution
		err error
	}
	answers, _ := conc.ForEach(len(frames)*len(budgets), 4, func(k int) (answer, error) {
		sol, err := (HeteroPartition{MaxStates: budgets[k%len(budgets)]}).Solve(frames[k/len(budgets)])
		return answer{sol, err}, nil
	})
	h := sha256.New()
	failed := map[int64]int{}
	for k, a := range answers {
		i, maxStates, sol := k/len(budgets), budgets[k%len(budgets)], a.sol
		if a.err != nil {
			failed[maxStates]++
			fmt.Fprintf(h, "%d/%d error %s\n", i, maxStates, a.err)
			continue
		}
		fmt.Fprintf(h, "%d/%d %v %v", i, maxStates, sol.PerProc, sol.Rejected)
		for _, e := range sol.Energies {
			fmt.Fprintf(h, " %x", math.Float64bits(e))
		}
		fmt.Fprintf(h, " %x %x %x\n", math.Float64bits(sol.Energy), math.Float64bits(sol.Penalty), math.Float64bits(sol.Cost))
	}
	t.Logf("%d frames; failed answers per MaxStates: %v", len(frames), failed)
	if got := hex.EncodeToString(h.Sum(nil)); got != heteroDigestWant {
		t.Errorf("digest of %d frames × 3 budgets = %s, want %s", len(frames), got, heteroDigestWant)
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
