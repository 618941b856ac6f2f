package speed

import (
	"math"

	"dvsreject/internal/power"
)

// Curve is the energy curve E(w) of one processor over a fixed frame
// length, precomputed for repeated probing. Solvers that evaluate many
// candidate workloads against the same processor (the multiprocessor
// local search probes O(n²·M) of them per iteration; the rejection DP's
// final scan probes one per frontier level) build one Curve per solve
// instead of paying Proc.Assign's validation and candidate enumeration on
// every probe.
//
// Exactness contract: Energy(w) reproduces Proc.Energy(w, d) bit for bit.
// On continuous-speed dormant-disable processors it mirrors the float
// operation sequence of Proc.assignContinuous exactly (same checks, same
// clamping, same order of arithmetic). On discrete-ladder processors it
// mirrors Proc.assignDiscrete with the per-level power draws memoized in
// a power.PdTable — each level's P(s) is computed once through the same
// Pind + Pd(s) sum and reused, so every probe returns the identical bits
// without the per-level math.Pow. Every other flavour falls back to
// Proc.Energy itself. The zero Curve is not usable; construct with
// NewCurve.
//
// Monotonicity: E(w) is non-decreasing in w on every processor flavour —
// ideal or leaky, any SMin, continuous or on a ladder, with or without a
// dormant mode. E(w) is the cheapest of a few candidate schedules: run at
// one speed s for w/s and spend the rest of the frame idle, or split the
// frame between two adjacent ladder levels. Each candidate's cost is
// non-decreasing in w, because execution power ≥ awake-idle power ≥
// dormant power: one more cycle at speed s costs P(s)/s of execution and
// saves at most Pind/s of awake idling (nothing once the idle interval
// sleeps for the constant Esw), and P(s) = Pind + Pd(s) ≥ Pind; a split
// moves time from its lower level to the dearer higher one; the stretch
// speed max(w/d, SMin) only rises. A candidate drops out only where it
// meets the next one: a level leaves once it must run the whole frame,
// where the split above it (or the stretch speed) starts at the same cost
// P(s)·d, and the critical-speed sprint leaves where the stretch speed
// reaches it. So the minimum never steps down. The rejection DP
// (internal/core) relies on this on every flavour: its sparse rows keep
// only the penalty frontier, its final scans cost only that frontier and
// stop once the energy alone reaches the incumbent, and its lower bound
// floors workloads. In float arithmetic a continuous curve can dip by one
// ulp: at the stretch speed w/d the execution time w/(w/d) rounds to
// either side of d, which moves E by an ulp wherever one more cycle adds
// less than that (SMin ≤ w/d ≪ 1, d ≳ 2²⁰) — on the closed form, and on
// a dormant processor where sleeping never pays (Esw ≳ Pind·d), whose
// idle interval is clamped at 0 so nothing offsets an execution time
// rounded above d. On a ladder every candidate rises by at least a
// level's Pd(s)/s per cycle, far above an ulp of E over the tested
// ranges, and no dip has been seen.
// TestQuickEnergyMonotone and FuzzEnergyMonotone check both at
// consecutive integer workloads.
type Curve struct {
	proc     Proc
	deadline float64

	fast       bool    // closed continuous-speed form applies
	capSlack   float64 // capacity·(1+feasibilitySlack)
	smin, smax float64
	pind       float64 // static power Pind
	coeff      float64 // dynamic power coefficient
	alpha      float64 // dynamic power exponent
	idleTotal  float64 // energy of an entirely idle frame, Pind·d

	fastDiscrete bool // memoized discrete-ladder form applies
	levels       power.LevelSet
	pd           power.PdTable // Pd(s) per level, seeded once
	dormant      bool
	esw          float64
	idleFrame    float64 // energy of an entirely idle frame, idleCost(d)
}

// NewCurve builds the curve for workloads executed within a frame of
// length d on p. The processor and frame length must already be valid (as
// Proc.Energy assumes); invalid workloads still price to +Inf. Discrete
// processors seed a fresh Pd table; batch callers sharing one processor
// across many solves can reuse a prebuilt table via NewCurveWithPd.
func NewCurve(p Proc, d float64) Curve {
	var pd power.PdTable
	if p.Levels != nil {
		pd = power.NewPdTable(p.Model, p.Levels)
	}
	return NewCurveWithPd(p, d, pd)
}

// NewCurveWithPd is NewCurve reusing a memo table built by
// power.NewPdTable(p.Model, p.Levels); the table is ignored on
// continuous-speed processors.
func NewCurveWithPd(p Proc, d float64, pd power.PdTable) Curve {
	m := p.Model
	c := Curve{
		proc:      p,
		deadline:  d,
		fast:      p.Levels == nil && !p.DormantEnable,
		capSlack:  p.Capacity(d) * (1 + feasibilitySlack),
		smin:      p.SMin,
		smax:      p.SMax,
		pind:      m.Static(),
		coeff:     m.Coeff,
		alpha:     m.Alpha,
		idleTotal: m.Static() * d,
	}
	if p.Levels != nil {
		c.fastDiscrete = true
		c.levels = p.Levels
		c.pd = pd
		c.dormant = p.DormantEnable
		c.esw = p.Esw
		c.idleFrame, _ = p.idleCost(d)
	}
	return c
}

// Capacity returns the largest schedulable workload smax·d.
func (c *Curve) Capacity() float64 { return c.proc.Capacity(c.deadline) }

// Fits reports whether a workload of w cycles is schedulable, with the
// same float slack Proc.Assign applies.
func (c *Curve) Fits(w float64) bool { return w <= c.capSlack }

// Energy returns E(w) = Proc.Energy(w, deadline), +Inf when infeasible.
func (c *Curve) Energy(w float64) float64 {
	if c.fast {
		// w != w catches NaN, w < 0 catches -Inf, the capacity check catches
		// +Inf — the same rejections Proc.Assign makes.
		if w < 0 || w != w {
			return math.Inf(1)
		}
		if w > c.capSlack {
			return math.Inf(1)
		}
		if w == 0 {
			return c.idleTotal
		}
		// Proc.assignContinuous, dormant-disable branch: run at the slowest
		// deadline- and hardware-feasible speed. The branches compute the same
		// values as the math.Min(math.Max(·)) clamp there — the operands are
		// never NaN and never signed zeros of opposite sign.
		s := w / c.deadline
		if s < c.smin {
			s = c.smin
		}
		if s > c.smax {
			s = c.smax
		}
		exec := w / s
		var dyn float64
		if s > 0 {
			dyn = c.coeff * math.Pow(s, c.alpha)
		}
		return (c.pind+dyn)*exec + c.pind*(c.deadline-exec)
	}
	if c.fastDiscrete {
		return c.energyDiscrete(w)
	}
	return c.proc.Energy(w, c.deadline)
}

// energyDiscrete mirrors Proc.assignDiscrete (and Assign's surrounding
// checks) with the per-level powers read from the memo table: the same
// candidates in the same order, the same slack comparisons, the same
// ExecEnergy + IdleEnergy summation order, so the minimum and its
// tie-breaks are bit-identical to Proc.Energy.
func (c *Curve) energyDiscrete(w float64) float64 {
	if w < 0 || w != w {
		return math.Inf(1)
	}
	if w > c.capSlack {
		return math.Inf(1)
	}
	if w == 0 {
		return c.idleFrame
	}
	d := c.deadline
	best := math.Inf(1)

	ideal := w / d
	if lo, hi, ok := c.levels.Bracket(ideal); ok && lo != hi {
		// Split: tLo·lo + tHi·hi = w, tLo + tHi = d; no idle time.
		tHi := (w - lo*d) / (hi - lo)
		tLo := d - tHi
		if tHi >= -feasibilitySlack && tLo >= -feasibilitySlack {
			tHi = math.Max(tHi, 0)
			tLo = math.Max(tLo, 0)
			if total := (c.levelPower(lo)*tLo + c.levelPower(hi)*tHi) + 0; total < best {
				best = total
			}
		}
	}

	for i, s := range c.levels {
		if s*d < w*(1-feasibilitySlack) {
			continue // level alone cannot meet the deadline
		}
		exec := w / s
		if exec > d {
			exec = d
		}
		total := (c.pind + c.pd.At(i)) * exec
		total += c.idleCost(d - exec)
		if total < best {
			best = total
		}
	}
	return best
}

// levelPower returns P(s) = Pind + Pd(s) for a grid speed, from the memo
// table — the same sum Model.Power computes, with Pd read instead of
// recomputed. Off-grid speeds cannot occur (Bracket returns grid values);
// the fallback keeps the function total.
func (c *Curve) levelPower(s float64) float64 {
	if pd, ok := c.pd.Lookup(s); ok {
		return c.pind + pd
	}
	return c.proc.Model.Power(s)
}

// idleCost mirrors Proc.idleCost on the cached scalars.
func (c *Curve) idleCost(dur float64) float64 {
	if dur <= 0 {
		return 0
	}
	awake := c.pind * dur
	if c.dormant && c.esw < awake {
		return c.esw
	}
	return awake
}
