package speed

import (
	"math"
	"testing"
)

// FuzzEnergyMonotone draws a processor and frame length (see energyProc)
// and an integer workload w up to one past the capacity, and checks the
// two facts the rejection DP builds on: Curve.Energy(w) ≤
// Curve.Energy(w+1) — with no tolerance on ladders, to one ulp on
// continuous curves (see energyDips) — and Curve.Energy agrees with
// Proc.Energy bit for bit at both workloads.
func FuzzEnergyMonotone(f *testing.F) {
	// The paper's processors at D 1000: the XScale ladder, dormant XScale,
	// the dormant ladder, and dormant XScale with SMin 0.3 at D 2²⁰; then
	// the dormant processor whose E(3) sits one ulp below E(2)
	// (TestQuickEnergyMonotone).
	f.Add(0.08, 1.52, 3.0, 0.0, 1.0, uint8(1), false, 0.0, 1000.0, uint64(400))
	f.Add(0.08, 1.52, 3.0, 0.0, 1.0, uint8(0), true, 2.0, 1000.0, uint64(150))
	f.Add(0.08, 1.52, 3.0, 0.0, 1.0, uint8(1), true, 2.0, 1000.0, uint64(599))
	f.Add(0.08, 1.52, 3.0, 0.3, 1.0, uint8(0), true, 4.0, float64(1<<20), uint64(7))
	f.Add(6.628178200546925e-08, 0.05, 3.0, 0.0, 1.0, uint8(0), true, 20.0, 6.096569558987497e+07, uint64(2))
	f.Fuzz(func(t *testing.T, pind, coeff, alpha, smin, smax float64, ladder uint8, dormant bool, esw, d float64, w uint64) {
		p, d := energyProc(pind, coeff, alpha, smin, smax, ladder, dormant, esw, d)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		c := NewCurve(p, d)
		w %= uint64(c.Capacity()) + 2
		lo, hi := c.Energy(float64(w)), c.Energy(float64(w+1))
		if energyDips(p, lo, hi) {
			t.Fatalf("%+v, D %v: E(%d) = %v < E(%d) = %v", p, d, w+1, hi, w, lo)
		}
		for _, x := range []uint64{w, w + 1} {
			got, want := c.Energy(float64(x)), p.Energy(float64(x), d)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v, D %v: Curve.Energy(%d) = %v, Proc.Energy = %v", p, d, x, got, want)
			}
		}
	})
}
