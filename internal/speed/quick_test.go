package speed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dvsreject/internal/power"
)

// energyProc maps raw draws onto a valid processor and frame length. Each
// float is kept when inside its range, else folded in modulo the range's
// width: a polynomial model with Pind 0–1, Coeff 0.05–5 and α 1.5–3;
// SMax 0.1–2 and SMin up to SMax/2 (a draw below zero reads 0); ladder%4
// picks no ladder or one of three (the XScale levels, the same halved,
// {0.2, 0.5, 1}·SMax); an optional dormant mode with Esw 0–20; and D
// 1–2²⁶. TestQuickEnergyMonotone draws inside the ranges (energyArgs);
// FuzzEnergyMonotone's mutations also reach outside them.
func energyProc(pind, coeff, alpha, smin, smax float64, ladder uint8, dormant bool, esw, d float64) (Proc, float64) {
	fold := func(x, lo, hi float64) float64 {
		switch {
		case x != x:
			return lo
		case x >= lo && x <= hi:
			return x
		case math.IsInf(x, 0):
			return hi
		}
		return lo + math.Mod(math.Abs(x), hi-lo)
	}
	p := Proc{
		Model:         power.Polynomial{Pind: fold(pind, 0, 1), Coeff: fold(coeff, 0.05, 5), Alpha: fold(alpha, 1.5, 3)},
		SMax:          fold(smax, 0.1, 2),
		DormantEnable: dormant,
		Esw:           fold(esw, 0, 20),
	}
	p.SMin = max(0, fold(smin, -p.SMax/2, p.SMax/2))
	switch ladder % 4 {
	case 1:
		p.Levels = power.XScaleLevels()
	case 2:
		p.Levels = power.LevelSet{0.075, 0.2, 0.3, 0.4, 0.5}
	case 3:
		p.Levels = power.LevelSet{0.2 * p.SMax, 0.5 * p.SMax, p.SMax}
	}
	return p, fold(d, 1, 1<<26)
}

// energyArgs fills TestQuickEnergyMonotone's arguments from its seeded
// source: each energyProc parameter uniform over its range (so SMin is 0
// on half the draws), a ladder on three draws in four, dormancy on half,
// D log-uniform over 1–2²⁶ so short and long frames both occur, and a
// uniform start workload.
func energyArgs(args []reflect.Value, r *rand.Rand) {
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	smax := u(0.1, 2)
	for i, v := range []any{
		u(0, 1), u(0.05, 5), u(1.5, 3), u(-smax/2, smax/2), smax,
		uint8(r.Intn(4)), r.Intn(2) == 0, u(0, 20), math.Exp2(u(0, 26)), r.Uint64(),
	} {
		args[i] = reflect.ValueOf(v)
	}
}

// energyDips reports whether e, the energy one cycle above the workload
// priced prev, breaks monotonicity on p: any decrease on a ladder; more
// than one ulp on a continuous curve, where the stretch schedule's
// execution time w/(w/D) rounds to either side of D and can cost an ulp
// of E wherever one more cycle adds less than an ulp (see speed.Curve).
func energyDips(p Proc, prev, e float64) bool {
	if e >= prev {
		return false
	}
	if p.Levels == nil {
		return e < math.Nextafter(prev, math.Inf(-1))
	}
	return true
}

// energyRuns compares E at consecutive integer workloads of p over a
// frame of length d — the first 32, 32 from start, and the last 32 up to
// one past the capacity — and returns the first dip (see energyDips) as
// an error, and whether any of those schedules sleeps through its idle
// interval.
func energyRuns(p Proc, d float64, start uint64) (slept bool, err error) {
	c := NewCurve(p, d)
	top := uint64(c.Capacity()) + 1
	for _, lo := range []uint64{0, start % (top + 1), max(top, 32) - 32} {
		prev := c.Energy(float64(lo))
		for w := lo + 1; w <= lo+32 && w <= top; w++ {
			e := c.Energy(float64(w))
			if energyDips(p, prev, e) {
				return slept, fmt.Errorf("%+v, D %v: E(%d) = %v < E(%d) = %v", p, d, w, e, w-1, prev)
			}
			if a, err := p.Assign(float64(w), d); err == nil && a.Shutdown {
				slept = true
			}
			prev = e
		}
	}
	return slept, nil
}

// Property: E(w) is non-decreasing in w for every processor flavour —
// random models, SMin, ladders, dormancy — compared at consecutive integer
// workloads (see energyRuns and energyDips).
func TestQuickEnergyMonotone(t *testing.T) {
	// The paper's processors at a short and a long frame: ideal cubic,
	// leaky XScale, dormant XScale, the XScale ladder and the dormant
	// ladder.
	for _, p := range []Proc{
		{Model: power.Cubic(), SMax: 1},
		{Model: power.XScale(), SMax: 1},
		{Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 0.2},
		{Model: power.XScale(), Levels: power.XScaleLevels()},
		{Model: power.XScale(), Levels: power.XScaleLevels(), DormantEnable: true, Esw: 0.2},
	} {
		for _, d := range []float64{100, 1 << 20} {
			if _, err := energyRuns(p, d, uint64(d)/3); err != nil {
				t.Error(err)
			}
		}
	}
	// The one-ulp allowance is needed off the closed form too: this dormant
	// processor leaks so little that sleeping never pays, and at w = 2 its
	// stretch schedule's w/(w/D) rounds above D with no idle term to offset
	// it.
	p := Proc{Model: power.Polynomial{Pind: 6.628178200546925e-08, Coeff: 0.05, Alpha: 3}, SMax: 1, DormantEnable: true, Esw: 20}
	if c := NewCurve(p, 6.096569558987497e+07); !(c.Energy(3) < c.Energy(2)) {
		t.Errorf("%+v: E(3) = %v, E(2) = %v; want the one-ulp dip speed.Curve documents", p, c.Energy(3), c.Energy(2))
	}

	var trials, leaky, sleeps int
	f := func(pind, coeff, alpha, smin, smax float64, ladder uint8, dormant bool, esw, d float64, start uint64) bool {
		p, d := energyProc(pind, coeff, alpha, smin, smax, ladder, dormant, esw, d)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		slept, err := energyRuns(p, d, start)
		if err != nil {
			t.Log(err)
			return false
		}
		trials++
		if p.Model.Static() > 0 {
			leaky++
		}
		if slept {
			sleeps++
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1)), Values: energyArgs}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// Guard the draws themselves: most processors leak, and a fair share
	// of schedules sleep, so the dormant branch is really exercised.
	if leaky < trials*9/10 || sleeps < trials/4 {
		t.Errorf("%d trials: %d leak, %d sleep through an idle interval", trials, leaky, sleeps)
	}
}

// Property: E(W) is convex on the leakage-free continuous processor
// (midpoint below chord).
func TestQuickContinuousEnergyConvex(t *testing.T) {
	p := Proc{Model: power.Cubic(), SMax: 1}
	d := 50.0
	f := func(wa, wb uint16) bool {
		a := float64(wa%5000) / 100
		b := float64(wb%5000) / 100
		mid := (a + b) / 2
		return p.Energy(mid, d) <= (p.Energy(a, d)+p.Energy(b, d))/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the closed form E(W) = W³/D² holds on the leakage-free cubic
// continuous processor with smin = 0.
func TestQuickCubicClosedForm(t *testing.T) {
	p := Proc{Model: power.Cubic(), SMax: 1}
	f := func(w, dd uint16) bool {
		d := 10 + float64(dd%1000)
		W := math.Mod(float64(w), d) // keep feasible
		got := p.Energy(W, d)
		want := math.Pow(W, 3) / (d * d)
		return math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the discrete assignment delivers exactly W cycles and fits in
// the frame.
func TestQuickDiscreteDeliversWorkload(t *testing.T) {
	p := Proc{Model: power.XScale(), Levels: power.XScaleLevels()}
	d := 25.0
	f := func(w uint16) bool {
		W := float64(w%250) / 10 // [0, 25): feasible at smax = 1
		a, err := p.Assign(W, d)
		if err != nil {
			return false
		}
		delivered := a.LoSpeed*a.LoTime + a.HiSpeed*a.HiTime
		return math.Abs(delivered-W) <= 1e-6 && a.BusyTime() <= d+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: free shutdown is never worse than costly shutdown, which is
// never worse than no dormant mode at all.
func TestQuickDormantOrdering(t *testing.T) {
	m := power.XScale()
	f := func(w, e uint16) bool {
		d := 20.0
		W := float64(w%200) / 10
		esw := float64(e%400) / 100
		free := Proc{Model: m, SMax: 1, DormantEnable: true, Esw: 0}
		some := Proc{Model: m, SMax: 1, DormantEnable: true, Esw: esw}
		none := Proc{Model: m, SMax: 1}
		ef, es, en := free.Energy(W, d), some.Energy(W, d), none.Energy(W, d)
		return ef <= es+1e-9 && es <= en+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the heterogeneous KKT solution is never beaten by a uniform
// common-speed schedule of the same tasks.
func TestQuickHeteroBeatsCommonSpeed(t *testing.T) {
	m := power.Cubic()
	f := func(c1, c2, c3 uint8, r1, r2, r3 uint8) bool {
		cycles := []int64{int64(c1%50) + 1, int64(c2%50) + 1, int64(c3%50) + 1}
		rho := []float64{
			0.25 + float64(r1%16)/4,
			0.25 + float64(r2%16)/4,
			0.25 + float64(r3%16)/4,
		}
		var w float64
		for _, c := range cycles {
			w += float64(c)
		}
		d := w * 1.5 // comfortably feasible at smax = 1... need s = 2/3
		a, err := AssignHeterogeneous(m, cycles, rho, d, 1)
		if err != nil {
			return false
		}
		s := w / d
		var common float64
		for i, c := range cycles {
			common += rho[i] * m.Coeff * math.Pow(s, m.Alpha-1) * float64(c)
		}
		return a.Energy <= common+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
