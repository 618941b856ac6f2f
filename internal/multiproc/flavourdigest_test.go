package multiproc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dvsreject/internal/conc"
	"dvsreject/internal/core"
	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
)

// flavourProcs are the ladder and dormant processors the flavour digest
// covers: the XScale ladder under both power models, the ladder with a
// dormant mode, and continuous dormant XScale, across switch energies.
var flavourProcs = []struct {
	name string
	p    speed.Proc
}{
	{"xscale-ladder", speed.Proc{Model: power.XScale(), Levels: power.XScaleLevels()}},
	{"cubic-ladder", speed.Proc{Model: power.Cubic(), Levels: power.XScaleLevels()}},
	{"ladder-dormant-0", speed.Proc{Model: power.XScale(), Levels: power.XScaleLevels(), DormantEnable: true}},
	{"ladder-dormant-2", speed.Proc{Model: power.XScale(), Levels: power.XScaleLevels(), DormantEnable: true, Esw: 2}},
	{"ladder-dormant-12", speed.Proc{Model: power.XScale(), Levels: power.XScaleLevels(), DormantEnable: true, Esw: 12}},
	{"dormant-0", speed.Proc{Model: power.XScale(), SMax: 1, DormantEnable: true}},
	{"dormant-0.5", speed.Proc{Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 0.5}},
	{"dormant-4-smin", speed.Proc{Model: power.XScale(), SMin: 0.3, SMax: 1, DormantEnable: true, Esw: 4}},
	{"dormant-12", speed.Proc{Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 12}},
}

// flavourInstances returns the single-processor half of the corpus: every
// flavourProcs entry on two dense gen.Frame frames (n 12 and 40, D 1000)
// and two sparse gen.Sparse frames (n 20 and 26, D 2²⁴).
func flavourInstances(tb testing.TB) (labels []string, ins []core.Instance) {
	tb.Helper()
	rng := rand.New(rand.NewSource(26))
	for _, fp := range flavourProcs {
		for k, n := range []int{12, 40} {
			set, err := gen.Frame(rand.New(rand.NewSource(rng.Int63())), gen.Config{
				N: n, Load: 1.3, Penalty: gen.PenaltyModel(k % 3),
			})
			if err != nil {
				tb.Fatal(err)
			}
			labels = append(labels, fmt.Sprintf("%s/dense-n%d", fp.name, n))
			ins = append(ins, core.Instance{Tasks: set, Proc: fp.p})
		}
		for k, n := range []int{20, 26} {
			set, err := gen.Sparse(rand.New(rand.NewSource(rng.Int63())), gen.SparseConfig{
				N: n, Penalty: gen.PenaltyModel((k + 1) % 3),
			})
			if err != nil {
				tb.Fatal(err)
			}
			labels = append(labels, fmt.Sprintf("%s/sparse-n%d", fp.name, n))
			ins = append(ins, core.Instance{Tasks: set, Proc: fp.p})
		}
	}
	return labels, ins
}

// flavourVectors returns the hetero half: big.LITTLE XScale vectors of
// M 2 and 4 on the ladder (little cores on the ladder halved), the ladder
// with a dormant mode, and continuous dormant cores, with n 16–20 tasks
// loaded to 1.2·Σ capacity at D 1000 and 2²⁰, three frames each.
func flavourVectors(tb testing.TB) (labels []string, ins []HeteroInstance) {
	tb.Helper()
	half := make(power.LevelSet, len(power.XScaleLevels()))
	for i, s := range power.XScaleLevels() {
		half[i] = s / 2
	}
	vectors := []struct {
		name string
		set  func(p *speed.Proc, little bool)
	}{
		{"ladder", func(p *speed.Proc, little bool) {
			p.Levels = power.XScaleLevels()
			if little {
				p.Levels = half
			}
		}},
		{"ladder-dormant-2", func(p *speed.Proc, little bool) {
			p.Levels = power.XScaleLevels()
			if little {
				p.Levels = half
			}
			p.DormantEnable, p.Esw = true, 2
		}},
		{"dormant-0.5", func(p *speed.Proc, little bool) { p.DormantEnable, p.Esw = true, 0.5 }},
		{"dormant-4", func(p *speed.Proc, little bool) { p.DormantEnable, p.Esw = true, 4 }},
	}
	rng := rand.New(rand.NewSource(126))
	for _, v := range vectors {
		for _, m := range []int{2, 4} {
			for _, d := range []float64{1000, 1 << 20} {
				for f := 0; f < 3; f++ {
					procs, err := gen.BigLittle(gen.BigLittleConfig{NBig: m / 2, NLittle: m / 2, XScale: true})
					if err != nil {
						tb.Fatal(err)
					}
					capacity := 0.0
					for i := range procs {
						v.set(&procs[i], i >= m/2)
						capacity += procs[i].MaxSpeed()
					}
					set, err := gen.Frame(rand.New(rand.NewSource(rng.Int63())), gen.Config{
						N: 16 + 2*f, Deadline: d, Load: 1.2 * capacity, Penalty: gen.PenaltyModel(f),
					})
					if err != nil {
						tb.Fatal(err)
					}
					labels = append(labels, fmt.Sprintf("%s/M%d/D%g/%d", v.name, m, d, f))
					ins = append(ins, HeteroInstance{Tasks: set, Procs: procs})
				}
			}
		}
	}
	return labels, ins
}

// flavourDigestLines solves the corpus and returns one line per answer:
// DP, DP-SPARSE at Workers 1 and 2 and ApproxDP(ε=0.1) on every
// flavourInstances entry, and HETERO-PART on every flavourVectors entry,
// each at MaxStates 0 and a small budget (5,000 single-processor states,
// 400 per HETERO-PART processor). An answer is its accepted and
// rejected sets (per-processor lists for HETERO-PART) and its energy,
// penalty and cost bits; a failure is its error text.
func flavourDigestLines(tb testing.TB) []string {
	tb.Helper()
	labels, ins := flavourInstances(tb)
	solvers := []struct {
		name string
		make func(maxStates int64) core.Solver
	}{
		{"DP", func(s int64) core.Solver { return core.DP{MaxStates: s} }},
		{"DP-SPARSE/w1", func(s int64) core.Solver { return core.DP{MaxStates: s, Sparse: core.SparseOn, Workers: 1} }},
		{"DP-SPARSE/w2", func(s int64) core.Solver { return core.DP{MaxStates: s, Sparse: core.SparseOn, Workers: 2} }},
		{"ApproxDP", func(s int64) core.Solver { return core.ApproxDP{Eps: 0.1, MaxStates: s} }},
	}
	var lines []string
	for i, in := range ins {
		for _, s := range solvers {
			for _, maxStates := range []int64{0, 5000} {
				sol, err := s.make(maxStates).Solve(in)
				label := fmt.Sprintf("%s %s/%d", labels[i], s.name, maxStates)
				if err != nil {
					lines = append(lines, label+" error "+err.Error())
					continue
				}
				lines = append(lines, fmt.Sprintf("%s %v %v %x %x %x", label, sol.Accepted, sol.Rejected,
					math.Float64bits(sol.Energy), math.Float64bits(sol.Penalty), math.Float64bits(sol.Cost)))
			}
		}
	}

	hlabels, hins := flavourVectors(tb)
	budgets := []int64{0, 400}
	type answer struct {
		sol Solution
		err error
	}
	answers, _ := conc.ForEach(len(hins)*len(budgets), 2, func(k int) (answer, error) {
		sol, err := (HeteroPartition{MaxStates: budgets[k%len(budgets)]}).Solve(hins[k/len(budgets)])
		return answer{sol, err}, nil
	})
	for k, a := range answers {
		label := fmt.Sprintf("%s HETERO-PART/%d", hlabels[k/len(budgets)], budgets[k%len(budgets)])
		if a.err != nil {
			lines = append(lines, label+" error "+a.err.Error())
			continue
		}
		line := fmt.Sprintf("%s %v %v", label, a.sol.PerProc, a.sol.Rejected)
		for _, e := range a.sol.Energies {
			line += fmt.Sprintf(" %x", math.Float64bits(e))
		}
		lines = append(lines, line+fmt.Sprintf(" %x %x %x", math.Float64bits(a.sol.Energy),
			math.Float64bits(a.sol.Penalty), math.Float64bits(a.sol.Cost)))
	}
	return lines
}

// flavourDigestWant is TestFlavourDigest's SHA-256. Against the solvers
// that kept every sparse breakpoint and scanned every workload on these
// processors, every answer is bit-identical; only state-budget failures
// moved, into answers or into budget failures at other rows.
const flavourDigestWant = "5809f262b140ea669d59bafe52271814dac656afb43c4da5c08c6e5634da5111"

// TestFlavourDigest pins every DP, DP-SPARSE, ApproxDP and HETERO-PART
// answer on ladder and dormant processors, budget failures included, to
// one digest (see flavourDigestLines), and checks that CostLowerBound
// certifies every single-processor instance of the corpus at its default,
// 4,000 and 600 state budgets without exceeding DP's optimum.
func TestFlavourDigest(t *testing.T) {
	lines := flavourDigestLines(t)
	h := sha256.New()
	failed := 0
	for _, l := range lines {
		fmt.Fprintln(h, l)
		if strings.Contains(l, " error ") {
			failed++
		}
	}
	t.Logf("%d answers, %d failures", len(lines), failed)
	if got := hex.EncodeToString(h.Sum(nil)); got != flavourDigestWant {
		t.Errorf("digest of %d answers = %s, want %s", len(lines), got, flavourDigestWant)
	}

	labels, ins := flavourInstances(t)
	budgets := []int64{0, 4000, 600}
	gaps := make([]float64, len(budgets))
	for i, in := range ins {
		opt, err := (core.DP{}).Solve(in)
		if err != nil {
			t.Fatalf("%s: DP: %v", labels[i], err)
		}
		for b, maxStates := range budgets {
			lb, err := core.CostLowerBound(in, maxStates)
			if err != nil {
				t.Errorf("%s: CostLowerBound(%d): %v", labels[i], maxStates, err)
				continue
			}
			if lb > opt.Cost {
				t.Errorf("%s: CostLowerBound(%d) = %v above the DP optimum %v", labels[i], maxStates, lb, opt.Cost)
			}
			gaps[b] += (opt.Cost - lb) / opt.Cost / float64(len(ins))
		}
	}
	t.Logf("CostLowerBound mean gap to the DP optimum at budgets %v: %.3g", budgets, gaps)
}
