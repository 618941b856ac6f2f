package core

import (
	"math"
	"testing"

	"dvsreject/internal/gen"
)

// probeWorkloads spans the interesting regions of the energy curve for an
// instance: zero, the smin plateau, mid-range, the capacity boundary with
// and without slack, infeasible, and non-finite inputs.
func probeWorkloads(in Instance) []float64 {
	capTrue := in.Capacity()
	fracs := []float64{-0.5, 0, 1e-12, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999,
		1, 1 + 1e-10, 1 + 1e-8, 1.1, 2}
	ws := make([]float64, 0, len(fracs)+3)
	for _, f := range fracs {
		ws = append(ws, capTrue*f)
	}
	return append(ws, math.NaN(), math.Inf(1), math.Inf(-1))
}

// TestEvalCtxBitIdentity is the exactness contract of the evaluation
// context: every cached or closed-form quantity must reproduce the
// corresponding Instance method bit for bit, on every processor flavour.
// Solver decisions, tie-breaks and branch-and-bound node counts depend on
// this being exact, not merely close.
func TestEvalCtxBitIdentity(t *testing.T) {
	for name, proc := range testProcs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				in := randomInstance(t, seed, 12, 0.5+0.4*float64(seed), proc, gen.PenaltyModel(seed%3))
				ctx, err := newEvalCtx(in)
				if err != nil {
					t.Fatal(err)
				}
				if ctx.capacity != in.Capacity() {
					t.Fatalf("capacity %v != %v", ctx.capacity, in.Capacity())
				}
				if ctx.hetero != in.Heterogeneous() || ctx.convex != in.convexEnergy() {
					t.Fatalf("flag mismatch: hetero %v/%v convex %v/%v",
						ctx.hetero, in.Heterogeneous(), ctx.convex, in.convexEnergy())
				}
				for _, w := range probeWorkloads(in) {
					if got, want := ctx.fits(w), in.Fits(w); got != want {
						t.Errorf("fits(%v) = %v, Instance.Fits = %v", w, got, want)
					}
					got, want := ctx.energy(w), in.energyOf(w)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("energy(%v) = %v (bits %x), energyOf = %v (bits %x)",
							w, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					gotS, wantS := ctx.surrogate(w), in.surrogateEnergy(w)
					if math.Float64bits(gotS) != math.Float64bits(wantS) {
						t.Errorf("surrogate(%v) = %v, surrogateEnergy = %v", w, gotS, wantS)
					}
				}
			}
		})
	}
}

// TestEvalCtxBitIdentityHetero covers the heterogeneous surrogate closed
// form, which the homogeneous testProcs sweep cannot reach.
func TestEvalCtxBitIdentityHetero(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in := diffInstance(t, seed, 12, 1.2, testProcs["ideal-cubic"], true)
		if !in.Heterogeneous() {
			t.Fatalf("seed %d: expected a heterogeneous instance", seed)
		}
		ctx, err := newEvalCtx(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range probeWorkloads(in) {
			got, want := ctx.surrogate(w), in.surrogateEnergy(w)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("seed %d: surrogate(%v) = %v, surrogateEnergy = %v", seed, w, got, want)
			}
		}
	}
}

// TestEvalCtxItemsMatch pins the cached items slice and id→index map to
// their Instance counterparts.
func TestEvalCtxItemsMatch(t *testing.T) {
	in := randomInstance(t, 7, 20, 1.3, testProcs["ideal-cubic"], gen.PenaltyUniform)
	ctx, err := newEvalCtx(in)
	if err != nil {
		t.Fatal(err)
	}
	want := in.items()
	if len(ctx.items) != len(want) {
		t.Fatalf("items length %d != %d", len(ctx.items), len(want))
	}
	for i := range want {
		if ctx.items[i] != want[i] {
			t.Errorf("items[%d] = %+v, want %+v", i, ctx.items[i], want[i])
		}
	}
	for i, task := range in.Tasks.Tasks {
		if ctx.idx[task.ID] != i {
			t.Errorf("idx[%d] = %d, want %d", task.ID, ctx.idx[task.ID], i)
		}
	}
}

// TestMinCostWorkloadMatchesFullScan checks the pruned, cut-off final
// scan against the exhaustive reference on adversarial penalty shapes and
// every testProcs energy curve, ladders and dormant modes included: the
// same argmin (including first-strict-improvement tie-breaking) must come
// back.
func TestMinCostWorkloadMatchesFullScan(t *testing.T) {
	for procName, proc := range testProcs {
		in := randomInstance(t, 3, 10, 1.4, proc, gen.PenaltyUniform)
		ctx, err := newEvalCtx(in)
		if err != nil {
			t.Fatal(err)
		}
		width := int64(math.Floor(ctx.capacity*(1+1e-12))) + 1

		cases := map[string]func(w int64) float64{
			"strictly-decreasing": func(w int64) float64 { return float64(width - w) },
			"constant":            func(w int64) float64 { return 5 },
			"zigzag":              func(w int64) float64 { return float64((w*7919)%13) + float64(width-w)/float64(width) },
			"sparse": func(w int64) float64 {
				if w%17 != 0 {
					return math.Inf(1)
				}
				return float64(width - w)
			},
			"all-infeasible": func(w int64) float64 { return math.Inf(1) },
			"zero-tail": func(w int64) float64 {
				if w > width/2 {
					return 0
				}
				return float64(width - w)
			},
		}
		for name, shape := range cases {
			pen := make([]float64, width)
			for w := int64(0); w < width; w++ {
				pen[w] = shape(w)
			}
			// Reference: the seed code's full-width scan.
			refW, refCost := int64(-1), math.Inf(1)
			for w := int64(0); w < width; w++ {
				if math.IsInf(pen[w], 1) {
					continue
				}
				if c := ctx.energy(float64(w)) + pen[w]; c < refCost {
					refCost, refW = c, w
				}
			}
			gotW, gotCost := minCostWorkload(pen, ctx.energy, 1)
			if gotW != refW || math.Float64bits(gotCost) != math.Float64bits(refCost) {
				t.Errorf("%s/%s: minCostWorkload = (%d, %v), full scan = (%d, %v)", procName, name, gotW, gotCost, refW, refCost)
			}
		}
	}
}
